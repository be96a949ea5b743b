/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   qvr_perfbench --workload <qvr-pipeline|fleet-openloop|
 *                             pixel-composite>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 [--trace-out <file>] [--git-sha <sha>]
 *
 * Runs one workload on one thread for the given host seconds and
 * prints, as the last line of stdout, one JSON object with the keys
 * correct / attempted / failed / metrics.  With --trace 0 the metrics
 * are the end-to-end ones; with --trace 1 the per-layer ones from a
 * traced run, whose spans are also written as Chrome trace-event
 * JSON.  Earlier stdout lines carry provenance, every workload
 * metric that applies (by name, unit and kind), the host-metric
 * spreads and, when traced, the per-layer self-time table.
 *
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed (the result line is still printed), 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/simd/dispatch.hpp"

namespace perfbench
{

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"scene.frame_us", "us"},
        {"scene.batches_per_frame", "count"},
        {"motion.trace_us_per_frame", "us"},
        {"foveation.resolve_calls", "count"},
        {"foveation.oracle_miss_ratio", "ratio"},
        {"foveation.resolve_us", "us"},
        {"foveation.miss_us", "us"},
        {"foveation.oracle_entries_per_user", "count"},
        {"core.liwc_select_us", "us"},
        {"core.uca_frame_us", "us"},
        {"core.uca_tiles_per_call", "count"},
        {"core.uca_border_ratio", "ratio"},
        {"core.arrivals", "count"},
        {"core.roams", "count"},
        {"core.peak_active_users", "count"},
        {"core.pixel_composite_us", "us"},
        {"core.pixel_fast_tile_ratio", "ratio"},
        {"core.pixel_interior_mpix_s", "Mpix/s"},
        {"core.pixel_blend_mpix_s", "Mpix/s"},
        {"core.step_replay_coverage", "ratio"},
        {"trace.overhead_ratio", "ratio"},
        {"gpu.time_us", "us"},
        {"gpu.local_triangles_per_frame", "count"},
        {"remote.render_us", "us"},
        {"net.transfer_us", "us"},
        {"net.codec_us", "us"},
        {"collab.session_s", "s"},
        {"collab.replay_coverage", "ratio"},
        {"serve.submitted", "count"},
        {"serve.admitted_ratio", "ratio"},
        {"serve.downgraded_ratio", "ratio"},
        {"serve.batched_ratio", "ratio"},
        {"serve.pool_utilisation", "ratio"},
        {"serve.wait_p50_ms", "ms"},
    };
    return k;
}

namespace
{

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
const char *const kEndToEnd[] = {
    "frames_per_s",      "host_frame_us_p50", "host_frame_us_p99",
    "setup_s",           "peak_rss_mb",       "mtp_mean_ms",
    "fps_compliance",    "downlink_kb_per_frame",
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricJson(const std::string &name, double value, const std::string &unit)
{
    return quoted(name) + ": {\"value\": " + num(value) +
           ", \"unit\": " + quoted(unit) + "}";
}

int
usage()
{
    std::cerr << "usage: qvr_perfbench --workload <qvr-pipeline|"
                 "fleet-openloop|pixel-composite> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--git-sha <sha>]\n";
    return 2;
}

bool
parse(int argc, char **argv, Options &opt)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = *end == '\0' && !val.empty();
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            have_seconds = *end == '\0' && opt.seconds > 0.0 &&
                           opt.seconds <= 120.0;
        } else if (arg == "--trace") {
            have_trace = val == "0" || val == "1";
            opt.trace = val == "1";
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else if (arg == "--git-sha") {
            opt.gitSha = val;
        } else {
            return false;
        }
    }
    return have_seed && have_seconds && have_trace &&
           (opt.workload == "qvr-pipeline" ||
            opt.workload == "fleet-openloop" ||
            opt.workload == "pixel-composite");
}

void
printSelfTimes(const Tracer &t)
{
    std::printf("# per-layer self time of the traced repetitions\n");
    std::printf("# %-28s %10s %14s %14s %12s\n", "span", "calls",
                "total_us", "self_us", "mean_us");
    for (const auto &[name, tot] : t.totals()) {
        std::printf("# %-28s %10llu %14.1f %14.1f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(tot.calls),
                    tot.totalUs, tot.selfUs,
                    tot.totalUs / static_cast<double>(tot.calls));
    }
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parse(argc, argv, opt))
        return usage();


    std::optional<Tracer> tracer;
    if (opt.trace)
        tracer.emplace();
    Tracer *t = tracer ? &*tracer : nullptr;

    Report rep;
    if (opt.workload == "qvr-pipeline")
        rep = runQvrPipeline(opt, t);
    else if (opt.workload == "fleet-openloop")
        rep = runFleetOpenLoop(opt, t);
    else
        rep = runPixelComposite(opt, t);

    // ---- provenance ------------------------------------------------
    std::string prov = "{\"provenance\": {";
    prov += "\"git_sha\": " + quoted(opt.gitSha);
    prov += ", \"build_type\": " + quoted(QVR_PERFBENCH_BUILD_TYPE);
    prov += ", \"simd_backend\": " +
            quoted(qvr::core::simd::backendName(
                qvr::core::simd::dispatch()));
    prov += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
    prov += ", \"threads_used\": 1";
    prov += ", \"workload\": " + quoted(opt.workload);
    prov += ", \"seed\": " + std::to_string(opt.seed);
    prov += ", \"seconds\": " + num(opt.seconds);
    prov += ", \"traced\": " + std::string(opt.trace ? "true" : "false");
    for (const auto &[k, v] : rep.counts)
        prov += ", " + quoted(k) + ": " + num(v);
    prov += ", \"spread\": {";
    for (std::size_t i = 0; i < rep.spreads.size(); i++) {
        const Spread &s = rep.spreads[i];
        prov += (i ? ", " : "") + quoted(s.name) +
                ": {\"repetitions\": " + std::to_string(s.repetitions) +
                ", \"min\": " + num(s.min) + ", \"q1\": " + num(s.q1) +
                ", \"median\": " + num(s.median) + ", \"q3\": " +
                num(s.q3) + ", \"max\": " + num(s.max) + "}";
    }
    prov += "}}}";
    std::printf("%s\n", prov.c_str());

    std::string wm = "{\"workload_metrics\": {";
    for (std::size_t i = 0; i < rep.workloadMetrics.items().size(); i++) {
        const Metric &m = rep.workloadMetrics.items()[i];
        wm += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
              num(m.value) + ", \"unit\": " + quoted(m.unit) +
              ", \"kind\": " + quoted(m.kind) + "}";
    }
    wm += "}}";
    std::printf("%s\n", wm.c_str());

    bool complete = true;
    std::string metrics;
    if (t) {
        printSelfTimes(*t);
        if (!opt.traceOut.empty()) {
            if (t->writeChrome(opt.traceOut))
                std::printf("# chrome trace: %s (%zu spans)\n",
                            opt.traceOut.c_str(), t->spans().size());
            else
                rep.fail("could not write the chrome trace");
        }
        for (const auto &[name, unit] : perLayerCatalogue()) {
            const Metric *m = rep.perLayer.find(name);
            metrics += (metrics.empty() ? "" : ", ") +
                       metricJson(name, m ? m->value : 0.0, unit);
        }
    } else {
        for (const char *name : kEndToEnd) {
            const Metric *m = rep.endToEnd.find(name);
            if (!m || !std::isfinite(m->value) || m->value <= 0.0) {
                complete = false;
                rep.fail(std::string("end-to-end metric missing or not "
                                     "positive: ") +
                         name);
                continue;
            }
            metrics += (metrics.empty() ? "" : ", ") +
                       metricJson(m->name, m->value, m->unit);
        }
    }
    for (const std::string &why : rep.failures)
        std::printf("# FAIL: %s\n", why.c_str());
    const bool correct = rep.failures.empty() && complete;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
