/**
 * @file
 * Workload `pixel-composite`: serial PixelEngine::ucaUnified on both
 * 1920x2160 eyes.  The layer images are synthetic and made once in
 * set-up; the partitions follow the per-frame e1/e2/gaze of seeded
 * Q-VR runs of the five 1920x2160 Table-3 benchmarks, whose modelled
 * numbers are this workload's sim metrics.  It is the only workload
 * that reaches the pixel engine and its SIMD kernels, and it never
 * touches the timing models in the timed region.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common.hpp"
#include "core/pixel_engine.hpp"
#include "core/qvr_system.hpp"
#include "replay.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

/** The Table-3 benchmarks rendered at 1920x2160 per eye: the
 *  source runs whose partitions are composited. */
const char *const kSources[] = {"Doom3-H", "HL2-H", "GRID", "UT3", "Wolf"};
/** Frames per source run; every kStride-th is composited, both eyes:
 *  20 composites, few enough that one run repeats each 25+ times
 *  (best-of-N needs many repetitions on a shared host). */
constexpr std::size_t kFrames = 300;
constexpr std::size_t kStride = 150;
constexpr int kSetupReps = 3;
/** Subsample factors of the middle and outer layer images. */
constexpr double kMiddleScale = 2.0;
constexpr double kOuterScale = 4.0;
/** Composites checked against the scalar reference (one per source,
 *  left eye), outside the timed region. */
constexpr std::size_t kReferenceStride = 2 * kFrames / kStride;
constexpr int kKernelReps = 5;
constexpr const char *kCompositeSpan = "core.pixel_composite";
constexpr const char *kInteriorSpan = "core.pixel_interior";
constexpr const char *kBlendSpan = "core.pixel_blend";

core::Image
makePattern(std::int32_t w, std::int32_t h, double phase)
{
    core::Image img(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        core::Rgb *row = img.rowSpan(y);
        for (std::int32_t x = 0; x < w; x++) {
            const double fx = x + 0.5 + phase;
            const double fy = y + 0.5;
            row[x] = core::Rgb{
                static_cast<float>(0.5 + 0.5 * std::sin(fx * 0.11)),
                static_cast<float>(0.5 + 0.5 * std::cos(fy * 0.07)),
                static_cast<float>(0.5 + 0.25 * std::sin((fx + fy) *
                                                         0.05))};
        }
    }
    return img;
}

core::Image
downsample(const core::Image &src, double s)
{
    const auto w = std::max(1, static_cast<std::int32_t>(src.width() / s));
    const auto h =
        std::max(1, static_cast<std::int32_t>(src.height() / s));
    core::Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        core::Rgb *row = out.rowSpan(y);
        for (std::int32_t x = 0; x < w; x++)
            row[x] = src.sampleBilinear((x + 0.5) * s, (y + 0.5) * s);
    }
    return out;
}

std::uint64_t
imageDigest(const core::Image &img)
{
    // Multiply-xor over the pixel rows, 8 bytes at a time in four
    // independent lanes: cheap next to a composite, and any changed
    // bit changes it.
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t lane[4] = {kDigestSeed, kDigestSeed + 1, kDigestSeed + 2,
                             kDigestSeed + 3};
    const std::size_t bytes =
        static_cast<std::size_t>(img.width()) * sizeof(core::Rgb);
    for (std::int32_t y = 0; y < img.height(); y++) {
        const auto *p =
            reinterpret_cast<const unsigned char *>(img.rowSpan(y));
        std::size_t i = 0;
        for (; i + 32 <= bytes; i += 32) {
            for (int l = 0; l < 4; l++) {
                std::uint64_t w = 0;
                std::memcpy(&w, p + i + 8 * l, 8);
                lane[l] = (lane[l] ^ w) * kPrime;
            }
        }
        for (; i < bytes; i++)
            lane[0] = (lane[0] ^ p[i]) * kPrime;
    }
    std::uint64_t h = kDigestSeed;
    for (const std::uint64_t l : lane)
        h = (h ^ l) * kPrime;
    return h;
}

bool
identical(const core::Image &a, const core::Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    const std::size_t row =
        static_cast<std::size_t>(a.width()) * sizeof(core::Rgb);
    for (std::int32_t y = 0; y < a.height(); y++)
        if (std::memcmp(a.rowSpan(y), b.rowSpan(y), row) != 0)
            return false;
    return true;
}

struct Source
{
    core::ExperimentSpec spec;
    std::vector<scene::FrameWorkload> workload;
    core::PipelineResult result;
};

struct Inputs
{
    std::vector<Source> sources;
    core::Image fovea, middle, outer;
    /** One composite per (source, frame, eye), source-major. */
    std::vector<core::UcaFrameInputs> composites;
};

void
makeInputs(std::uint64_t seed, Inputs &in)
{
    in.sources.clear();
    in.composites.clear();
    in.fovea = in.middle = in.outer = core::Image{};
    const double phase = static_cast<double>(seed % 1024);
    in.fovea = makePattern(1920, 2160, phase);
    in.middle = downsample(in.fovea, kMiddleScale);
    in.outer = downsample(in.fovea, kOuterScale);

    for (std::size_t si = 0; si < std::size(kSources); si++) {
        Source src;
        src.spec.benchmark = kSources[si];
        src.spec.numFrames = kFrames;
        src.spec.seed = deriveSeed(seed, si);
        const core::PipelineConfig cfg = src.spec.toConfig();
        src.workload = core::generateExperimentWorkload(src.spec);
        src.result = core::makePipeline(core::DesignPoint::Qvr, cfg)
                         ->run(src.workload);

        const auto display = cfg.display();
        const double ppd = display.pixelsPerDegree();
        for (std::size_t i = 0; i < kFrames; i += kStride) {
            const scene::FrameWorkload &f = src.workload[i];
            const core::FrameStats &s = src.result.frames[i];
            for (int eye = 0; eye < 2; eye++) {
                core::UcaFrameInputs u;
                u.fovea = &in.fovea;
                u.middle = &in.middle;
                u.outer = &in.outer;
                u.sMiddle = kMiddleScale;
                u.sOuter = kOuterScale;
                u.partition.centerX =
                    display.width / 2.0 + f.motionSeen.gaze.x * ppd;
                u.partition.centerY =
                    display.height / 2.0 + f.motionSeen.gaze.y * ppd;
                u.partition.foveaRadius = s.e1 * ppd;
                u.partition.middleRadius = s.e2 * ppd;
                // ATW corrects the frame's head rotation; the eyes
                // see it mirrored horizontally.
                const double sign = eye == 0 ? 1.0 : -1.0;
                u.atwShift =
                    Vec2{sign * f.motionDelta.dOrientation.x * ppd,
                         f.motionDelta.dOrientation.y * ppd};
                in.composites.push_back(u);
            }
        }
        in.sources.push_back(std::move(src));
    }
}

struct Loop
{
    std::vector<std::uint64_t> digests;
    /** Fastest host time of each composite. */
    BestTimes best;
    /** Raw per-pass figures, kept to show the host noise. */
    std::vector<double> passRate, passP50, passP99;
    std::uint64_t calls = 0, mismatches = 0;
    std::uint64_t tiles = 0, fastTiles = 0;
};

Loop
timedLoop(core::PixelEngine &engine, const Inputs &in, double budget,
          const std::vector<std::uint64_t> *reference, Tracer *t)
{
    Loop loop;
    const auto start = Clock::now();
    do {
        // A budgeted loop spreads its passes over the CPUs; a single
        // pass runs where its caller put it (see overheadRatio).
        if (budget > 0.0)
            nextCpu();
        const auto pass_t0 = Clock::now();
        std::vector<double> pass_us;
        for (std::size_t c = 0; c < in.composites.size(); c++) {
            core::Image out;
            const auto t0 = Clock::now();
            {
                Scope sc(t, kCompositeSpan, c % 2, c / 2);
                out = engine.ucaUnified(in.composites[c]);
            }
            const double dt = secondsBetween(t0, Clock::now());
            pass_us.push_back(dt * 1e6);
            loop.best.record(c, dt);
            loop.tiles += engine.lastStats().tiles;
            loop.fastTiles += engine.lastStats().fastPathTiles();
            const std::uint64_t h = imageDigest(out);
            if (loop.digests.size() < in.composites.size())
                loop.digests.push_back(h);
            if (h != (reference ? (*reference)[c] : loop.digests[c]))
                loop.mismatches++;
        }
        const double pass_s = secondsBetween(pass_t0, Clock::now());
        loop.passRate.push_back(static_cast<double>(pass_us.size()) /
                                pass_s);
        loop.passP50.push_back(percentile(pass_us, 0.50));
        loop.passP99.push_back(percentile(pass_us, 0.99));
        loop.calls += pass_us.size();
    } while (secondsBetween(start, Clock::now()) < budget);
    return loop;
}

/** Median throughput (Mpix/s) of a single-kernel partition, with the
 *  tile census it must produce. */
double
kernelMpixPerS(core::PixelEngine &engine, const core::UcaFrameInputs &u,
               const char *name, bool interior, Tracer *t, Report &rep)
{
    std::vector<double> s;
    for (int i = 0; i < kKernelReps; i++) {
        Scope sc(t, name, 0, static_cast<std::uint64_t>(i));
        const auto t0 = Clock::now();
        const core::Image out = engine.ucaUnified(u);
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    const core::PixelEngineStats &st = engine.lastStats();
    if ((interior ? st.foveaTiles : st.blendTiles) != st.tiles)
        rep.fail(std::string("tile census of the ") + name +
                 " partition is not uniform");
    const double mpix =
        static_cast<double>(u.fovea->width()) * u.fovea->height() / 1e6;
    return mpix / median(s);
}

}  // namespace

Report
runPixelComposite(const Options &opt, Tracer *tracer)
{
    Report rep;
    Inputs in;
    const double setup_s =
        medianSetupSeconds(kSetupReps, [&] { makeInputs(opt.seed, in); });

    core::PixelEngine engine(1);
    const double budget = tracer ? opt.seconds / 2 : opt.seconds;
    const Loop loop = timedLoop(engine, in, budget, nullptr, nullptr);
    const double peak_rss = peakRssMb();

    rep.attempted = loop.calls;
    rep.failed = loop.mismatches;
    if (loop.mismatches)
        rep.fail("composites differ across repetitions");

    // Bit-exactness against the scalar reference loop, outside the
    // timed region.
    for (std::size_t c = 0; c < in.composites.size();
         c += kReferenceStride) {
        const core::UcaFrameInputs &u = in.composites[c];
        rep.attempted++;
        if (!identical(engine.ucaUnified(u), core::ucaUnified(u))) {
            rep.failed++;
            rep.fail("pixel engine differs from the scalar reference "
                     "on composite " +
                     std::to_string(c));
        }
    }

    // Sim metrics of the source runs, averaged per benchmark as the
    // paper reports them.
    std::vector<double> mtp_ms;
    double mtp = 0, compliance = 0, kb = 0, energy = 0;
    for (const Source &src : in.sources) {
        const core::PipelineResult &r = src.result;
        for (std::size_t i = r.warmupFrames; i < r.frames.size(); i++)
            mtp_ms.push_back(r.frames[i].mtpLatency * 1e3);
        mtp += r.meanMtp() * 1e3;
        compliance += r.fpsCompliance();
        kb += r.meanTransmittedBytes() / 1e3;
        energy += r.meanEnergy() * 1e3;
    }
    const auto n_src = static_cast<double>(in.sources.size());
    std::vector<double> best_us;
    for (const double s : loop.best.best())
        best_us.push_back(s * 1e6);
    rep.endToEnd.set("frames_per_s",
                     static_cast<double>(best_us.size()) / loop.best.total(),
                     "frames/s", "host");
    rep.endToEnd.set("host_frame_us_p50", percentile(best_us, 0.50), "us",
                     "host");
    rep.endToEnd.set("host_frame_us_p99", percentile(best_us, 0.99), "us",
                     "host");
    rep.endToEnd.set("setup_s", setup_s, "s", "host");
    rep.endToEnd.set("peak_rss_mb", peak_rss, "MB", "host");
    rep.endToEnd.set("mtp_mean_ms", mtp / n_src, "ms", "sim");
    rep.endToEnd.set("fps_compliance", compliance / n_src, "fraction",
                     "sim");
    rep.endToEnd.set("downlink_kb_per_frame", kb / n_src, "KB", "sim");
    for (const Metric &m : rep.endToEnd.items())
        rep.workloadMetrics.set(m.name, m.value, m.unit, m.kind);
    rep.workloadMetrics.set("mtp_p50_ms", percentile(mtp_ms, 0.50), "ms",
                            "sim");
    rep.workloadMetrics.set("mtp_p99_ms", percentile(mtp_ms, 0.99), "ms",
                            "sim");
    rep.workloadMetrics.set("energy_mj_per_frame", energy / n_src, "mJ",
                            "sim");
    rep.spreads.push_back(spreadOf("frames_per_s", loop.passRate));
    rep.spreads.push_back(spreadOf("host_frame_us_p50", loop.passP50));
    rep.spreads.push_back(spreadOf("host_frame_us_p99", loop.passP99));
    rep.counts["passes"] = static_cast<double>(loop.passRate.size());
    rep.counts["composite_samples"] = static_cast<double>(loop.calls);
    rep.counts["composites_per_pass"] =
        static_cast<double>(in.composites.size());
    rep.counts["eye_width"] = in.fovea.width();
    rep.counts["eye_height"] = in.fovea.height();
    rep.counts["source_frames"] =
        static_cast<double>(in.sources.size() * kFrames);

    if (!tracer)
        return rep;

    // ---- traced half -------------------------------------------------
    // The source workloads' generation, replayed layer by layer.
    std::uint64_t frames_generated = 0, batches = 0;
    for (std::size_t si = 0; si < in.sources.size(); si++) {
        const auto frames = generateTraced(in.sources[si].spec, tracer, si);
        frames_generated += frames.size();
        for (const auto &f : frames)
            batches += f.batches.size();
    }
    // Untraced and traced passes alternate for the tracing overhead.
    std::uint64_t tiles = 0, fast_tiles = 0;
    const double overhead =
        overheadRatio(opt.seconds / 2, tracer, [&](Tracer *t) {
            Loop l = timedLoop(engine, in, 0.0, &loop.digests, t);
            if (l.mismatches)
                rep.fail("composites differ between traced and "
                         "untraced runs");
            rep.attempted += l.calls;
            rep.failed += l.mismatches;
            if (t) {
                tiles += l.tiles;
                fast_tiles += l.fastTiles;
            }
            return l.best;
        });

    // Single-kernel throughput: every tile on the interior bilinear
    // path, then every tile on the blend-band trilinear path.
    const core::UcaFrameInputs &base = in.composites.front();
    core::UcaFrameInputs interior = base;
    interior.partition.foveaRadius = 4.0 * in.fovea.height();
    interior.partition.middleRadius = 5.0 * in.fovea.height();
    core::UcaFrameInputs blend = base;
    blend.partition.foveaRadius = 0.0;
    blend.partition.middleRadius = 3.0 * in.fovea.height();
    blend.partition.blendBand = 3.0 * in.fovea.height();
    const double interior_mpix =
        kernelMpixPerS(engine, interior, kInteriorSpan, true, tracer, rep);
    const double blend_mpix =
        kernelMpixPerS(engine, blend, kBlendSpan, false, tracer, rep);

    const auto totals = tracer->totals();
    MetricList &pl = rep.perLayer;
    const double frames = static_cast<double>(frames_generated);
    pl.set("scene.frame_us", spanTotalUs(totals, span::kScene) / frames,
           "us", "host");
    pl.set("scene.batches_per_frame",
           static_cast<double>(batches) / frames, "count", "sim");
    pl.set("motion.trace_us_per_frame",
           spanTotalUs(totals, span::kMotion) / frames, "us", "host");
    pl.set("core.pixel_composite_us", spanMeanUs(totals, kCompositeSpan),
           "us", "host");
    pl.set("core.pixel_fast_tile_ratio",
           static_cast<double>(fast_tiles) / static_cast<double>(tiles),
           "ratio", "host");
    pl.set("core.pixel_interior_mpix_s", interior_mpix, "Mpix/s", "host");
    pl.set("core.pixel_blend_mpix_s", blend_mpix, "Mpix/s", "host");
    pl.set("trace.overhead_ratio", overhead, "ratio", "host");
    return rep;
}

}  // namespace perfbench
