#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/liwc.hpp"
#include "core/uca.hpp"
#include "motion/trace.hpp"
#include "scene/benchmarks.hpp"

namespace perfbench
{

using namespace qvr;

struct LayerReplay::Models
{
    explicit Models(const core::PipelineConfig &c)
        : pc(c), geometry(c.display(), c.mar), oracle(geometry),
          gpu(c.gpuConfig, c.gpuCost), server(c.serverConfig),
          codec(c.codecConfig),
          channel(c.channelConfig, Rng(c.seed, 0xc0ffee)),
          stream(channel, codec), uca(c.ucaConfig)
    {
    }

    core::PipelineConfig pc;
    foveation::LayerGeometry geometry;
    foveation::PartitionOracle oracle;
    gpu::MobileGpuModel gpu;
    remote::RemoteServer server;
    net::VideoCodec codec;
    net::Channel channel;
    net::StreamSession stream;
    core::UcaTimingModel uca;
    std::optional<core::Liwc> liwc;
};

LayerReplay::LayerReplay(const core::PipelineConfig &pc, Tracer *tracer,
                         std::uint64_t user,
                         const foveation::PartitionOracle *shared)
    : m_(std::make_unique<Models>(pc)),
      oracle_(shared ? shared : &m_->oracle), tracer_(tracer), user_(user)
{
    // Built exactly as FoveatedPipeline builds its controller.
    Scope sc(tracer_, span::kLiwcInit, user_);
    const auto &b = pc.benchmark;
    const double pixels_per_tri =
        static_cast<double>(b.pixelsPerEye()) /
        static_cast<double>(b.meanTriangles);
    m_->liwc.emplace(
        pc.liwcConfig, m_->geometry,
        m_->gpu.triangleThroughput(b.shadingCost, pixels_per_tri) *
            pc.gpuFrequencyScale,
        pc.channelConfig.nominalDownlink *
            pc.channelConfig.protocolEfficiency,
        pc.codecConfig.baseBitsPerPixel, 5.0, b.centerConcentration);
}

LayerReplay::~LayerReplay() = default;

void
LayerReplay::frame(const scene::FrameWorkload &f,
                   const core::FrameStats &s, ReplayCounts &counts)
{
    Models &m = *m_;
    const auto &b = m.pc.benchmark;
    const std::uint64_t fi = f.index;
    Scope whole(tracer_, span::kReplay, user_, fi);

    const Vec2 gaze{f.motionSeen.gaze.x, f.motionSeen.gaze.y};
    const std::uint64_t stereo_tris = f.totalTriangles() * 2;
    liwcKeys_.emplace(std::lround(m.liwc->currentE1() * 4.0),
                      std::lround(gaze.x), std::lround(gaze.y));
    {
        Scope sc(tracer_, span::kLiwcSelect, user_, fi);
        counts.sink +=
            m.liwc->selectEccentricity(f.motionDelta, stereo_tris, gaze)
                .e1;
    }

    const foveation::PartitionOracle::Resolved *r = nullptr;
    {
        const std::size_t before = oracle_->cacheSize();
        Scope sc(tracer_, span::kResolveHit, user_, fi);
        r = &oracle_->resolve(s.e1, gaze);
        if (oracle_->cacheSize() != before)
            sc.rename(span::kResolveMiss);
    }

    double fovea_work = 0.0;
    {
        Scope sc(tracer_, span::kFoveaArea, user_, fi);
        const double area =
            m.geometry.foveaAreaFraction(r->partition.e1, gaze);
        if (area > 0.0)
            fovea_work = std::pow(area, 1.0 / b.centerConcentration);
    }

    // Sim-time anchors: the frame's vsync slot.
    const Seconds issue = static_cast<double>(fi) / 90.0;
    Seconds t_local = 0.0;
    {
        Scope sc(tracer_, span::kGpu, user_, fi);
        gpu::RenderJob local;
        local.triangles = s.localTriangles;
        local.shadedPixels = r->pixels.foveaPixels * 2.0;
        local.batches = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(b.numBatches * fovea_work *
                                          2.0));
        local.shadingCost = b.shadingCost;
        local.frequencyScale = m.pc.gpuFrequencyScale;
        t_local = m.gpu.renderSeconds(local);
    }

    Seconds t_remote = 0.0;
    {
        Scope sc(tracer_, span::kRemote, user_, fi);
        gpu::RenderJob job;
        job.triangles = static_cast<std::uint64_t>(
            static_cast<double>(stereo_tris) * (1.0 - fovea_work));
        job.shadedPixels = r->pixels.peripheryPixels() * 2.0;
        job.batches = b.numBatches * 2;
        job.shadingCost = b.shadingCost;
        t_remote =
            m.server.renderSeconds(job, issue + m.pc.uplinkLatency);
    }

    std::vector<net::LayerPayload> payloads;
    {
        Scope sc(tracer_, span::kCodec, user_, fi);
        const double complexity = std::clamp(
            static_cast<double>(f.totalTriangles()) /
                static_cast<double>(b.meanTriangles),
            0.7, 1.4);
        const Seconds stream_start = issue + 0.3 * t_remote;
        for (int eye = 0; eye < 2; eye++) {
            for (int layer = 0; layer < 2; layer++) {
                net::LayerPayload pl;
                pl.pixels = layer == 0 ? r->pixels.middlePixels
                                       : r->pixels.outerPixels;
                pl.compressed = m.codec.compressedSize(
                    pl.pixels, complexity,
                    layer == 0 ? r->pixels.middleFactor
                               : r->pixels.outerFactor);
                pl.renderReady =
                    stream_start + 0.3 * m.codec.encodeTime(pl.pixels);
                payloads.push_back(pl);
            }
        }
        counts.sink += m.codec.decodeTime(r->pixels.peripheryPixels());
    }

    net::StreamResult streamed;
    {
        Scope sc(tracer_, span::kTransfer, user_, fi);
        streamed = m.stream.streamFrame(std::move(payloads));
    }

    const auto &display = m.geometry.display();
    const double ppd = display.pixelsPerDegree();
    core::PixelPartition pp;
    pp.centerX = display.width / 2.0 + gaze.x * ppd;
    pp.centerY = display.height / 2.0 + gaze.y * ppd;
    pp.foveaRadius = s.e1 * ppd;
    pp.middleRadius = s.e2 * ppd;
    for (int eye = 0; eye < 2; eye++) {
        Scope sc(tracer_, span::kUca, user_, fi);
        const core::UcaTimingResult u =
            m.uca.processFrame(display.width, display.height, pp,
                               issue + t_local, streamed.allDecoded);
        counts.ucaCalls++;
        counts.ucaTiles += u.borderTiles + u.interiorTiles;
        counts.ucaBorderTiles += u.borderTiles;
        counts.sink += u.done;
    }
    counts.localTriangles += s.localTriangles;
    counts.frames++;
}

std::vector<scene::FrameWorkload>
generateTraced(const core::ExperimentSpec &spec, Tracer *tracer,
               std::uint64_t user)
{
    motion::TraceConfig tc;
    tc.numFrames = spec.numFrames;
    tc.seed = spec.seed;
    motion::MotionTrace trace;
    {
        Scope sc(tracer, span::kMotion, user);
        trace = motion::generateTrace(tc);
    }
    Scope sc(tracer, span::kScene, user);
    return scene::generateWorkloads(scene::findBenchmark(spec.benchmark),
                                    trace, spec.seed + 1000);
}

void
LayerReplay::finish(ReplayCounts &counts) const
{
    counts.oracleEntries += liwcKeys_.size();
    counts.users++;
}

namespace
{

/** Layer calls a frame step makes. */
const char *const kFrameSpans[] = {
    span::kLiwcSelect, span::kResolveHit, span::kResolveMiss,
    span::kFoveaArea,  span::kGpu,        span::kRemote,
    span::kCodec,      span::kTransfer,   span::kUca,
};
/** Per-user work a session adds around its frame steps. */
const char *const kUserSpans[] = {
    span::kLiwcInit,
    span::kMotion,
    span::kScene,
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double
replayedLayerUs(const std::map<std::string, Tracer::Totals> &t,
                bool with_user_setup)
{
    double sum = 0.0;
    for (const char *name : kFrameSpans)
        sum += spanTotalUs(t, name);
    if (with_user_setup)
        for (const char *name : kUserSpans)
            sum += spanTotalUs(t, name);
    return sum;
}

void
replayLayerMetrics(const std::map<std::string, Tracer::Totals> &t,
                   const ReplayCounts &c, MetricList &out)
{
    const auto calls = [&t](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0
                             : static_cast<double>(it->second.calls);
    };
    const double hits = calls(span::kResolveHit);
    const double misses = calls(span::kResolveMiss);
    const double frames = static_cast<double>(c.frames);
    out.set("foveation.resolve_calls", hits + misses, "count", "host");
    out.set("foveation.oracle_miss_ratio", ratio(misses, hits + misses),
            "ratio", "host");
    out.set("foveation.resolve_us",
            ratio(spanTotalUs(t, span::kResolveHit) +
                      spanTotalUs(t, span::kResolveMiss),
                  hits + misses),
            "us", "host");
    out.set("foveation.miss_us", spanMeanUs(t, span::kResolveMiss), "us",
            "host");
    out.set("foveation.oracle_entries_per_user",
            ratio(static_cast<double>(c.oracleEntries),
                  static_cast<double>(c.users)),
            "count", "host");
    out.set("core.liwc_select_us", spanMeanUs(t, span::kLiwcSelect), "us",
            "host");
    out.set("core.uca_frame_us", spanMeanUs(t, span::kUca), "us", "host");
    out.set("core.uca_tiles_per_call",
            ratio(static_cast<double>(c.ucaTiles),
                  static_cast<double>(c.ucaCalls)),
            "count", "host");
    out.set("core.uca_border_ratio",
            ratio(static_cast<double>(c.ucaBorderTiles),
                  static_cast<double>(c.ucaTiles)),
            "ratio", "host");
    out.set("gpu.time_us", spanMeanUs(t, span::kGpu), "us", "host");
    out.set("gpu.local_triangles_per_frame",
            ratio(static_cast<double>(c.localTriangles), frames),
            "count", "sim");
    out.set("remote.render_us", spanMeanUs(t, span::kRemote), "us",
            "host");
    out.set("net.transfer_us", spanMeanUs(t, span::kTransfer), "us",
            "host");
    out.set("net.codec_us", spanMeanUs(t, span::kCodec), "us", "host");
}

}  // namespace perfbench
