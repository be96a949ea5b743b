/**
 * @file
 * Workload `qvr-pipeline`: the paper's Fig. 12 evaluation as a closed
 * loop with one simulated user.  Every Table-3 benchmark runs on
 * Wi-Fi at 500 MHz through the full Q-VR design: one pass over all
 * frames gives the sim metrics, then timed passes repeat the first
 * frames of every run, one timed Pipeline::step per frame.  Local and
 * Static run untimed on the same frames to give the paper's ratio
 * metrics.
 */

#include <algorithm>
#include <optional>

#include "common.hpp"
#include "core/qvr_system.hpp"
#include "replay.hpp"
#include "scene/benchmarks.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

/** Frames per benchmark of the sim pass: the paper's 300-frame runs
 *  plus headroom. */
constexpr std::size_t kFramesPerBenchmark = 400;
/** Frames per benchmark of a timed pass: the first kTimedFrames of
 *  each run, short enough that one run times every step 30+ times
 *  (best-of-N needs many repetitions on a shared host), long enough
 *  that the p99 of the pooled 1050 step times has 10 samples beyond
 *  it. */
constexpr std::size_t kTimedFrames = 150;
constexpr int kSetupReps = 5;
constexpr const char *kStepSpan = "core.pipeline_step";

struct BenchInput
{
    core::ExperimentSpec spec;
    core::PipelineConfig cfg;
    std::vector<scene::FrameWorkload> frames;
};

std::vector<BenchInput>
makeInputs(std::uint64_t seed)
{
    std::vector<BenchInput> out;
    const auto &benches = scene::table3Benchmarks();
    for (std::size_t i = 0; i < benches.size(); i++) {
        BenchInput in;
        in.spec.benchmark = benches[i].name;
        in.spec.channel = net::ChannelConfig::wifi();
        in.spec.gpuFrequencyScale = 1.0;
        in.spec.numFrames = kFramesPerBenchmark;
        in.spec.seed = deriveSeed(seed, i);
        in.cfg = in.spec.toConfig();
        in.frames = core::generateExperimentWorkload(in.spec);
        out.push_back(std::move(in));
    }
    return out;
}

std::uint64_t
frameDigest(std::uint64_t h, const core::FrameStats &s)
{
    h = digestValue(h, s.index);
    h = digestValue(h, s.e1);
    h = digestValue(h, s.e2);
    h = digestValue(h, s.mtpLatency);
    h = digestValue(h, s.displayTime);
    h = digestValue(h, s.frameInterval);
    h = digestValue(h, s.transmittedBytes);
    h = digestValue(h, s.localTriangles);
    h = digestValue(h, s.energy.total());
    h = digestValue(h, s.tComposition);
    h = digestValue(h, s.reprojected);
    h = digestValue(h, s.lostLayers);
    return digestValue(h, s.localFallback);
}

/** Timed passes over every benchmark until the budget is spent. */
struct Loop
{
    /** Q-VR results of the first pass, one per benchmark. */
    std::vector<core::PipelineResult> first;
    /** Sim digest of each benchmark's first kTimedFrames frames, from
     *  the first pass: every later pass must reproduce it. */
    std::vector<std::uint64_t> digests;
    /** Fastest host time of each (benchmark, frame) step. */
    BestTimes best;
    /** Raw per-pass figures, kept to show the host noise. */
    std::vector<double> passFps, passP50, passP99;
    std::uint64_t steps = 0;
    std::uint64_t failedFrames = 0;
    /** Benchmark runs whose sim digest differed from the reference. */
    std::uint64_t mismatches = 0;
};

/** Passes over the first @p frames frames of every benchmark. */
Loop
timedLoop(const std::vector<BenchInput> &inputs, std::size_t frames,
          double budget, const std::vector<std::uint64_t> *reference,
          Tracer *t, ReplayCounts *replay)
{
    Loop loop;
    const auto start = Clock::now();
    std::size_t pass = 0;
    do {
        // A budgeted loop spreads its passes over the CPUs; a single
        // pass runs where its caller put it (see overheadRatio).
        if (budget > 0.0)
            nextCpu();
        std::size_t unit = 0;
        const auto pass_t0 = Clock::now();
        std::vector<double> pass_us;
        for (std::size_t bi = 0; bi < inputs.size(); bi++) {
            const BenchInput &in = inputs[bi];
            auto pipeline =
                core::makePipeline(core::DesignPoint::Qvr, in.cfg);
            std::optional<LayerReplay> rp;
            if (replay)
                rp.emplace(in.cfg, t, bi);
            core::PipelineResult result;
            result.design = pipeline->name();
            result.benchmark = in.spec.benchmark;
            std::uint64_t h = kDigestSeed, prefix = kDigestSeed;
            const std::size_t n = std::min(frames, in.frames.size());
            for (std::size_t j = 0; j < n; j++) {
                const scene::FrameWorkload &f = in.frames[j];
                core::FrameStats s;
                // The bracket includes the span, so the traced and
                // untraced runs time the same thing.
                const auto t0 = Clock::now();
                {
                    Scope sc(t, kStepSpan, bi, f.index);
                    s = pipeline->step(f);
                }
                const double dt = secondsBetween(t0, Clock::now());
                pass_us.push_back(dt * 1e6);
                loop.best.record(unit++, dt);
                h = frameDigest(h, s);
                if (j + 1 == std::min(n, kTimedFrames))
                    prefix = h;
                if (s.lostLayers > 0 || s.localFallback)
                    loop.failedFrames++;
                if (rp)
                    rp->frame(f, s, *replay);
                if (pass == 0)
                    result.frames.push_back(s);
            }
            if (rp)
                rp->finish(*replay);
            if (pass == 0) {
                loop.first.push_back(std::move(result));
                loop.digests.push_back(prefix);
            }
            const std::uint64_t want =
                reference ? (*reference)[bi] : loop.digests[bi];
            if (prefix != want)
                loop.mismatches++;
        }
        const double pass_s = secondsBetween(pass_t0, Clock::now());
        loop.passFps.push_back(static_cast<double>(pass_us.size()) /
                               pass_s);
        loop.passP50.push_back(percentile(pass_us, 0.50));
        loop.passP99.push_back(percentile(pass_us, 0.99));
        loop.steps += pass_us.size();
        pass++;
    } while (secondsBetween(start, Clock::now()) < budget);
    return loop;
}

std::vector<core::PipelineResult>
runDesign(core::DesignPoint design, const std::vector<BenchInput> &inputs)
{
    std::vector<core::PipelineResult> out;
    for (const BenchInput &in : inputs)
        out.push_back(core::makePipeline(design, in.cfg)->run(in.frames));
    return out;
}

template <typename F>
double
meanOverBenchmarks(const std::vector<core::PipelineResult> &rs, F &&f)
{
    double sum = 0.0;
    for (const auto &r : rs)
        sum += f(r);
    return sum / static_cast<double>(rs.size());
}

/** Sim metrics of the Q-VR results (deterministic for a seed). */
void
simMetrics(const std::vector<core::PipelineResult> &qvr, Report &rep)
{
    std::vector<double> mtp_ms;
    for (const auto &r : qvr)
        for (std::size_t i = r.warmupFrames; i < r.frames.size(); i++)
            mtp_ms.push_back(r.frames[i].mtpLatency * 1e3);
    const double mean_mtp = meanOverBenchmarks(
        qvr, [](const auto &r) { return r.meanMtp() * 1e3; });
    const double compliance = meanOverBenchmarks(
        qvr, [](const auto &r) { return r.fpsCompliance(); });
    const double kb = meanOverBenchmarks(qvr, [](const auto &r) {
        return r.meanTransmittedBytes() / 1e3;
    });
    rep.endToEnd.set("mtp_mean_ms", mean_mtp, "ms", "sim");
    rep.endToEnd.set("fps_compliance", compliance, "fraction", "sim");
    rep.endToEnd.set("downlink_kb_per_frame", kb, "KB", "sim");

    MetricList &w = rep.workloadMetrics;
    w.set("mtp_p50_ms", percentile(mtp_ms, 0.50), "ms", "sim");
    w.set("mtp_p99_ms", percentile(mtp_ms, 0.99), "ms", "sim");
    w.set("mtp_mean_ms", mean_mtp, "ms", "sim");
    w.set("fps_compliance", compliance, "fraction", "sim");
    w.set("downlink_kb_per_frame", kb, "KB", "sim");
    w.set("energy_mj_per_frame",
          meanOverBenchmarks(
              qvr, [](const auto &r) { return r.meanEnergy() * 1e3; }),
          "mJ", "sim");
    rep.counts["mtp_samples"] = static_cast<double>(mtp_ms.size());
}

}  // namespace

Report
runQvrPipeline(const Options &opt, Tracer *tracer)
{
    Report rep;
    std::vector<BenchInput> inputs;
    const double setup_s = medianSetupSeconds(
        kSetupReps, [&] {
            inputs.clear();
            inputs = makeInputs(opt.seed);
        });

    // One untimed pass over all frames gives the sim metrics and the
    // reference digests; the timed passes then repeat the prefixes.
    // The traced run spends half its budget untraced and the rest on
    // the traced passes.
    const Loop sim = timedLoop(inputs, kFramesPerBenchmark, 0.0, nullptr,
                               nullptr, nullptr);
    const double budget = tracer ? opt.seconds / 2 : opt.seconds;
    const Loop loop = timedLoop(inputs, kTimedFrames, budget, &sim.digests,
                                nullptr, nullptr);
    const double peak_rss = peakRssMb();

    std::uint64_t frames_in = 0, batches = 0;
    for (const BenchInput &in : inputs) {
        frames_in += in.frames.size();
        for (const auto &f : in.frames)
            batches += f.batches.size();
    }

    rep.attempted = sim.steps + loop.steps;
    rep.failed = sim.failedFrames + loop.failedFrames;
    if (loop.mismatches)
        rep.fail("Q-VR sim results differ across repetitions");

    simMetrics(sim.first, rep);
    std::vector<double> best_us;
    for (const double s : loop.best.best())
        best_us.push_back(s * 1e6);
    const double fps =
        static_cast<double>(best_us.size()) / loop.best.total();
    const double p50 = percentile(best_us, 0.50);
    const double p99 = percentile(best_us, 0.99);
    rep.endToEnd.set("frames_per_s", fps, "frames/s", "host");
    rep.endToEnd.set("host_frame_us_p50", p50, "us", "host");
    rep.endToEnd.set("host_frame_us_p99", p99, "us", "host");
    rep.endToEnd.set("setup_s", setup_s, "s", "host");
    rep.endToEnd.set("peak_rss_mb", peak_rss, "MB", "host");
    for (const char *n : {"frames_per_s", "host_frame_us_p50",
                          "host_frame_us_p99", "setup_s", "peak_rss_mb"}) {
        const Metric *m = rep.endToEnd.find(n);
        rep.workloadMetrics.set(m->name, m->value, m->unit, m->kind);
    }
    rep.spreads.push_back(spreadOf("frames_per_s", loop.passFps));
    rep.spreads.push_back(spreadOf("host_frame_us_p50", loop.passP50));
    rep.spreads.push_back(spreadOf("host_frame_us_p99", loop.passP99));
    rep.counts["passes"] = static_cast<double>(loop.passFps.size());
    rep.counts["step_samples"] = static_cast<double>(best_us.size());
    rep.counts["frames_per_pass"] = static_cast<double>(best_us.size());
    rep.counts["sim_frames"] = static_cast<double>(frames_in);

    if (!tracer) {
        // Paper ratio metrics: Local and Static on the same frames,
        // outside the timed region.
        const auto local = runDesign(core::DesignPoint::Local, inputs);
        const auto stat = runDesign(core::DesignPoint::Static, inputs);
        rep.workloadMetrics.set("qvr_speedup_vs_local",
                                core::meanSpeedup(local, sim.first), "x",
                                "sim");
        double gain = 0.0;
        for (std::size_t i = 0; i < stat.size(); i++)
            gain += sim.first[i].meanFps() / stat[i].meanFps();
        rep.workloadMetrics.set("fps_gain_vs_static",
                                gain / static_cast<double>(stat.size()),
                                "x", "sim");
        return rep;
    }

    // ---- traced half -------------------------------------------------
    // Workload generation replayed layer by layer (motion, then scene).
    for (std::size_t i = 0; i < inputs.size(); i++)
        if (generateTraced(inputs[i].spec, tracer, i).size() !=
            inputs[i].frames.size())
            rep.fail("scene replay produced a different frame count");

    const auto account = [&rep](const Loop &l) {
        if (l.mismatches)
            rep.fail("Q-VR sim results differ between traced and "
                     "untraced runs");
        rep.failed += l.failedFrames;
        rep.attempted += l.steps;
    };
    // Untraced and span-only passes alternate for the tracing
    // overhead; then one pass also replays every frame's layers.
    const double overhead =
        overheadRatio(opt.seconds / 4, tracer, [&](Tracer *t) {
            Loop l = timedLoop(inputs, kTimedFrames, 0.0, &sim.digests, t,
                               nullptr);
            account(l);
            return l.best;
        });
    const double spanned_step_us =
        spanTotalUs(tracer->totals(), kStepSpan);
    ReplayCounts counts;
    account(timedLoop(inputs, kTimedFrames, 0.0, &sim.digests, tracer,
                      &counts));

    const auto totals = tracer->totals();
    MetricList &pl = rep.perLayer;
    const double fin = static_cast<double>(frames_in);
    pl.set("scene.frame_us", spanTotalUs(totals, span::kScene) / fin, "us",
           "host");
    pl.set("scene.batches_per_frame", static_cast<double>(batches) / fin,
           "count", "sim");
    pl.set("motion.trace_us_per_frame",
           spanTotalUs(totals, span::kMotion) / fin, "us", "host");
    replayLayerMetrics(totals, counts, pl);
    pl.set("core.step_replay_coverage",
           replayedLayerUs(totals, false) /
               (spanTotalUs(totals, kStepSpan) - spanned_step_us),
           "ratio", "host");
    pl.set("trace.overhead_ratio", overhead, "ratio", "host");
    rep.counts["replayed_frames"] = static_cast<double>(counts.frames);
    rep.counts["replay_sink"] = counts.sink;
    return rep;
}

}  // namespace perfbench
