/**
 * @file
 * Layer replay for the traced run.
 *
 * Pipeline::step and collab::runSession are coarse public calls: the
 * benchmark cannot put spans inside them.  The traced run therefore
 * replays, frame by frame, the layer calls a Q-VR frame makes —
 * LIWC selection, the partition oracle, the GPU and server render
 * models, the codec, the downlink stream and the UCA timing model —
 * through their public classes, fed with the frame's own inputs
 * (FrameWorkload) and outcome (FrameStats).  Each replayed call gets
 * its own span, so the per-layer self-time table shows where a
 * frame's host time goes, and the ratio of replayed time to the
 * coarse span says how much of it the replay explains.
 */

#ifndef QVR_PERFBENCH_REPLAY_HPP
#define QVR_PERFBENCH_REPLAY_HPP

#include <memory>
#include <set>
#include <tuple>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/qvr_system.hpp"

namespace perfbench
{

/** Span names of the replayed layer calls (also the trace legend). */
namespace span
{
constexpr const char *kLiwcInit = "core.liwc_init";
constexpr const char *kLiwcSelect = "core.liwc_select";
constexpr const char *kResolveHit = "foveation.resolve";
constexpr const char *kResolveMiss = "foveation.resolve_miss";
constexpr const char *kFoveaArea = "foveation.fovea_area";
constexpr const char *kGpu = "gpu.render";
constexpr const char *kRemote = "remote.render";
constexpr const char *kCodec = "net.codec";
constexpr const char *kTransfer = "net.transfer";
constexpr const char *kUca = "core.uca_frame";
constexpr const char *kMotion = "motion.trace";
constexpr const char *kScene = "scene.generate";
constexpr const char *kReplay = "replay.frame";
}  // namespace span

/** Counts gathered while replaying (times come from the spans). */
struct ReplayCounts
{
    std::uint64_t frames = 0;
    std::uint64_t ucaCalls = 0;
    std::uint64_t ucaTiles = 0;
    std::uint64_t ucaBorderTiles = 0;
    std::uint64_t localTriangles = 0;
    /** Per-user partition-memo entries, summed over replayed users. */
    std::uint64_t oracleEntries = 0;
    std::uint64_t users = 0;
    /** Keeps the replayed results observable. */
    double sink = 0.0;
};

/**
 * One user's replay state: the same component models a Q-VR
 * pipeline owns, built from the same PipelineConfig.  The frame's
 * partition resolves on @p shared when given (a session's oracle,
 * shared by its users) and on a private oracle otherwise (a
 * pipeline's own).
 */
class LayerReplay
{
  public:
    LayerReplay(const qvr::core::PipelineConfig &pc, Tracer *tracer,
                std::uint64_t user,
                const qvr::foveation::PartitionOracle *shared = nullptr);
    ~LayerReplay();
    LayerReplay(const LayerReplay &) = delete;
    LayerReplay &operator=(const LayerReplay &) = delete;

    /** Replay frame @p f whose simulated outcome was @p s. */
    void frame(const qvr::scene::FrameWorkload &f,
               const qvr::core::FrameStats &s, ReplayCounts &counts);

    /** Close the user: fold its memo size into @p counts. */
    void finish(ReplayCounts &counts) const;

  private:
    struct Models;
    std::unique_ptr<Models> m_;
    const qvr::foveation::PartitionOracle *oracle_;
    Tracer *tracer_;
    std::uint64_t user_;
    /**
     * Distinct keys of the user's LIWC memo: LIWC resolves its
     * current e1 at the frame's gaze, and PartitionOracle documents
     * its key as e1 quantised to 0.25 deg and gaze to 1 deg.  Counted
     * here because the memo itself is private to Liwc.
     */
    std::set<std::tuple<long, long, long>> liwcKeys_;
};

/**
 * core::generateExperimentWorkload(@p spec) split into its two layers,
 * motion trace then scene, each under its own span.
 */
std::vector<qvr::scene::FrameWorkload>
generateTraced(const qvr::core::ExperimentSpec &spec, Tracer *tracer,
               std::uint64_t user);

/** Total time (µs) of the replayed per-frame layer spans, plus the
 *  per-user set-up spans (LIWC table, motion, scene) when
 *  @p with_user_setup — the numerator of a replay coverage ratio. */
double replayedLayerUs(const std::map<std::string, Tracer::Totals> &t,
                       bool with_user_setup);

/** Per-layer metrics derivable from replay spans and counts. */
void replayLayerMetrics(const std::map<std::string, Tracer::Totals> &t,
                        const ReplayCounts &c, MetricList &out);

}  // namespace perfbench

#endif  // QVR_PERFBENCH_REPLAY_HPP
