/**
 * @file
 * Workload `fleet-openloop`: an open loop of independent users
 * arriving on the MMPP calm/flash-crowd trace of
 * `bench_fleet_capacity --open-loop` — 4 shards, EDF plus admission,
 * a bounded-load consistent-hash balancer, the HL2-H/Doom3-H/Viking
 * mix, roaming, 8-24-frame sessions, the event engine and aggregate
 * telemetry.  Users arrive on a schedule that does not wait for the
 * system, and every short-lived user builds fresh per-user state
 * (its LIWC table and partition memo).  Sim-time queue waits count
 * from each request's arrival, which is its due time.
 *
 * A run is a fixed set of independent episodes (one runSession each,
 * seeded from the workload seed) that run once and give the sim
 * metrics, and a set of shorter timed episodes of the same traffic,
 * cycled until the host budget is spent; every repetition must
 * reproduce its first run bit for bit.
 */

#include <algorithm>
#include <cstring>

#include "collab/session.hpp"
#include "common.hpp"
#include "core/qvr_system.hpp"
#include "replay.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

constexpr std::uint32_t kShards = 4;
/** Distinct episodes of a run, calm and flash alternating: every
 *  one runs once, and the sim metrics come from all of them. */
constexpr std::size_t kEpisodes = 16;
/** Timed episodes, calm and flash alternating, each a sixteenth of
 *  its regime's mean dwell (8-9 users on average): they repeat for
 *  the whole budget, and the host metrics are their best-of-N times.
 *  Short units repeated many times are what best-of-N needs on a
 *  shared host, whose speed changes within a fraction of a second. */
constexpr std::size_t kTimedEpisodes = 8;
/** Episodes the traced run checks against a full-telemetry twin and
 *  replays layer by layer. */
constexpr std::size_t kReplayEpisodes = 4;
constexpr int kSetupReps = 41;
constexpr const char *kSessionSpan = "collab.run_session";
constexpr const char *kTwinSpan = "collab.twin_session";
constexpr const char *kArrivalSpan = "core.arrivals";

/** Per-shard offered load (users/s) and mean dwell (s) of the calm
 *  and flash states of bench_fleet_capacity --open-loop's MMPP. */
constexpr double kCalmUsersPerShard = 30.0;
constexpr double kFlashUsersPerShard = 150.0;
constexpr Seconds kCalmDwell = 1.0;
constexpr Seconds kFlashDwell = 0.25;
/** Horizon of a sim episode and of a timed episode as a share of
 *  its state's mean dwell. */
constexpr double kDwellShare = 0.25;
constexpr double kTimedDwellShare = 1.0 / 16.0;

/**
 * Episode @p seed of the open loop.  The flash-crowd MMPP alternates
 * a calm state (mean dwell 1 s) and a flash state (mean dwell
 * 0.25 s).  Each episode plays one of its two regimes for the same
 * share of that mean dwell, calm and flash alternating, so a run
 * always holds the chain's stationary 80/20 calm/flash time split
 * instead of leaving the number and length of flash crowds to the
 * draw of a few short windows.
 */
collab::SessionConfig
episodeConfig(std::uint64_t seed, bool flash, double dwell_share)
{
    collab::SessionConfig cfg;
    cfg.benchmark = "HL2-H";
    cfg.design = collab::SessionDesign::Served;
    cfg.engine = collab::SessionEngine::Event;
    cfg.aggregateTelemetry = true;
    cfg.users = 1;      // the arrival process sizes the population
    cfg.numFrames = 1;  // and the per-user session lengths
    cfg.totalChiplets = 4 * kShards;
    cfg.chipletsPerRequest = 2;
    cfg.serverEgress = fromMbps(2000.0 * kShards);
    cfg.serving.shards = kShards;
    cfg.serving.balancer.policy =
        serve::BalancerPolicy::BoundedLoadConsistentHash;
    cfg.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    cfg.serving.admission.enabled = true;
    cfg.seed = seed;

    cfg.openLoop.enabled = true;
    cfg.openLoop.horizon = dwell_share * (flash ? kFlashDwell : kCalmDwell);
    core::ArrivalConfig &a = cfg.openLoop.arrivals;
    a.kind = core::ArrivalKind::Poisson;
    a.rate = (flash ? kFlashUsersPerShard : kCalmUsersPerShard) * kShards;
    a.minFrames = 8;
    a.maxFrames = 24;
    a.roamRate = 0.3;
    a.mix = {{"HL2-H", 2.0}, {"Doom3-H", 1.0}, {"Viking", 1.0}};
    a.seed = seed;
    return cfg;
}

struct Episode
{
    collab::SessionConfig cfg;
    /** The episode's arrivals, drawn in set-up (its inputs). */
    std::vector<core::UserArrival> arrivals;
    std::uint64_t userFrames = 0;
};

/** The kEpisodes sim episodes, then the kTimedEpisodes timed ones. */
std::vector<Episode>
makeEpisodes(std::uint64_t seed)
{
    std::vector<Episode> out;
    for (std::size_t k = 0; k < kEpisodes + kTimedEpisodes; k++) {
        Episode e;
        e.cfg = episodeConfig(deriveSeed(seed, k), k % 2 == 1,
                              k < kEpisodes ? kDwellShare
                                            : kTimedDwellShare);
        e.cfg.validate();
        e.arrivals = core::generateArrivals(e.cfg.openLoop.arrivals,
                                            e.cfg.openLoop.horizon);
        for (const core::UserArrival &a : e.arrivals)
            e.userFrames += a.frames;
        out.push_back(std::move(e));
    }
    return out;
}

std::uint64_t
sessionDigest(const collab::SessionResult &r)
{
    const collab::SessionAggregate &a = r.aggregate;
    std::uint64_t h = kDigestSeed;
    for (const double v :
         {a.meanFps, a.worstUserFps, a.meanMtp, a.fpsCompliance,
          a.bytesPerFrame, a.horizon, a.p50QueueWait, a.p99QueueWait,
          a.deadlineMissRate, r.openLoop.meanActiveUsers,
          r.serverUtilisation, r.egressUtilisation})
        h = digestValue(h, v);
    const serve::FleetCounters &c = r.serveCounters;
    for (const std::uint64_t v :
         {c.submitted, c.admitted, c.shed, c.downgraded, c.deadlineMisses,
          c.batches, c.batchedRequests, a.shedFrames, a.downgradedFrames,
          r.openLoop.arrivals, r.openLoop.departures, r.openLoop.roams,
          static_cast<std::uint64_t>(r.openLoop.peakActiveUsers),
          static_cast<std::uint64_t>(a.users)})
        h = digestValue(h, v);
    return h;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * The full-telemetry twin's summary, recomputed from its per-user
 * frames, must equal the aggregate run's summary bit for bit.
 */
bool
twinMatches(const collab::SessionResult &agg,
            const collab::SessionResult &twin)
{
    const collab::SessionAggregate &a = agg.aggregate;
    std::uint64_t shed = 0, downgraded = 0, late = 0, frames = 0;
    std::vector<Seconds> waits;
    for (const core::PipelineResult &u : twin.perUser) {
        for (const core::FrameStats &f : u.frames) {
            frames++;
            if (!f.serveAdmitted) {
                shed++;
                continue;
            }
            waits.push_back(f.serveQueueWait);
            if (f.degradationLevel > 0)
                downgraded++;
            if (!f.serveDeadlineMet)
                late++;
        }
    }
    const double miss_rate =
        frames ? static_cast<double>(late) / static_cast<double>(frames)
               : 0.0;
    const auto &c1 = agg.serveCounters;
    const auto &c2 = twin.serveCounters;
    return twin.perUser.size() == a.users &&
           sameBits(twin.meanFps(), a.meanFps) &&
           sameBits(twin.worstUserFps(), a.worstUserFps) &&
           sameBits(twin.meanMtp(), a.meanMtp) &&
           sameBits(twin.fpsCompliance(), a.fpsCompliance) &&
           sameBits(twin.aggregateBytesPerFrame(), a.bytesPerFrame) &&
           sameBits(percentile(waits, 0.50), a.p50QueueWait) &&
           sameBits(percentile(waits, 0.99), a.p99QueueWait) &&
           sameBits(miss_rate, a.deadlineMissRate) &&
           shed == a.shedFrames && downgraded == a.downgradedFrames &&
           c1.submitted == c2.submitted && c1.admitted == c2.admitted &&
           c1.shed == c2.shed && c1.downgraded == c2.downgraded &&
           c1.deadlineMisses == c2.deadlineMisses &&
           c1.batchedRequests == c2.batchedRequests &&
           agg.openLoop.arrivals == twin.openLoop.arrivals &&
           agg.openLoop.departures == twin.openLoop.departures &&
           agg.openLoop.roams == twin.openLoop.roams &&
           agg.openLoop.peakActiveUsers == twin.openLoop.peakActiveUsers;
}

collab::SessionResult
runTwin(const Episode &e, Tracer *t, std::uint64_t k)
{
    collab::SessionConfig cfg = e.cfg;
    cfg.aggregateTelemetry = false;
    Scope sc(t, kTwinSpan, k);
    return collab::runSession(cfg);
}

struct Loop
{
    /** Results and digests of the first run of every episode. */
    std::vector<collab::SessionResult> first;
    std::vector<std::uint64_t> digests;
    /** Fastest host time of each episode. */
    BestTimes best;
    /** Raw user-frames per host second of each run of the timed
     *  episodes (one value per run of all kTimedEpisodes). */
    std::vector<double> timedFps;
    /** Host seconds of each first-cycle episode. */
    std::vector<double> firstSeconds;
    std::uint64_t submitted = 0, failures = 0;
    std::uint64_t mismatches = 0;
};

/** Every episode once, then the timed episodes for @p budget seconds
 *  counted from the end of that first cycle. */
Loop
timedLoop(const std::vector<Episode> &eps, double budget,
          const std::vector<std::uint64_t> *reference, Tracer *t)
{
    Loop loop;
    std::uint64_t cycle_frames = 0;
    double cycle_s = 0.0;
    const auto run = [&](std::size_t k) {
        const Episode &e = eps[k];
        const auto t0 = Clock::now();
        collab::SessionResult r;
        {
            Scope sc(t, kSessionSpan, k);
            r = collab::runSession(e.cfg);
        }
        const double dt = secondsBetween(t0, Clock::now());
        loop.best.record(k, dt);
        if (k >= kEpisodes) {
            cycle_frames += e.userFrames;
            cycle_s += dt;
            if (k + 1 == eps.size()) {
                loop.timedFps.push_back(
                    static_cast<double>(cycle_frames) / cycle_s);
                cycle_frames = 0;
                cycle_s = 0.0;
            }
        }
        loop.submitted += r.serveCounters.submitted;
        loop.failures += r.serveCounters.deadlineMisses +
                         (r.openLoop.arrivals - r.openLoop.departures);
        const std::uint64_t h = sessionDigest(r);
        if (loop.digests.size() < eps.size()) {
            loop.firstSeconds.push_back(dt);
            loop.digests.push_back(h);
            loop.first.push_back(std::move(r));
        }
        if (h != (reference ? (*reference)[k] : loop.digests[k]))
            loop.mismatches++;
    };
    for (std::size_t k = 0; k < eps.size(); k++)
        run(k);
    const auto start = Clock::now();
    while (secondsBetween(start, Clock::now()) < budget) {
        nextCpu();
        for (std::size_t k = kEpisodes; k < eps.size(); k++)
            run(k);
    }
    return loop;
}

/** Replay one twin episode's users layer by layer (traced run). */
void
replayEpisode(const Episode &e, const collab::SessionResult &twin,
              std::uint64_t k, Tracer *t, ReplayCounts &counts,
              std::uint64_t &batches, Report &rep)
{
    std::vector<core::UserArrival> arrivals;
    {
        Scope sc(t, kArrivalSpan, k);
        arrivals = core::generateArrivals(e.cfg.openLoop.arrivals,
                                          e.cfg.openLoop.horizon);
    }
    if (arrivals.size() != twin.perUser.size()) {
        rep.fail("fleet twin users do not match the arrival trace");
        return;
    }
    // The session's shared partition oracle, built like the
    // session's own from its default benchmark's display.
    core::ExperimentSpec session_spec;
    session_spec.benchmark = e.cfg.benchmark;
    session_spec.channel = e.cfg.lastMile;
    const core::PipelineConfig session_pc = session_spec.toConfig();
    const foveation::LayerGeometry geometry(session_pc.display(),
                                            session_pc.mar);
    const foveation::PartitionOracle shared(geometry);
    const auto &mix = e.cfg.openLoop.arrivals.mix;
    for (std::size_t i = 0; i < arrivals.size(); i++) {
        const core::UserArrival &a = arrivals[i];
        const core::PipelineResult &pu = twin.perUser[i];
        if (pu.frames.size() != a.frames) {
            rep.fail("fleet twin user frames do not match the arrival");
            return;
        }
        core::ExperimentSpec spec;
        spec.benchmark = mix[a.profile].benchmark;
        spec.channel = e.cfg.lastMile;
        spec.numFrames = a.frames;
        spec.seed = a.seed;
        const std::uint64_t user = (k << 32) | i;
        const auto frames = generateTraced(spec, t, user);
        LayerReplay rp(spec.toConfig(), t, user, &shared);
        for (std::size_t j = 0; j < frames.size(); j++) {
            batches += frames[j].batches.size();
            rp.frame(frames[j], pu.frames[j], counts);
        }
        rp.finish(counts);
    }
}

}  // namespace

Report
runFleetOpenLoop(const Options &opt, Tracer *tracer)
{
    Report rep;
    std::vector<Episode> eps;
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        eps.clear();
        eps = makeEpisodes(opt.seed);
    });

    const double budget = tracer ? opt.seconds / 2 : opt.seconds;
    const Loop loop = timedLoop(eps, budget, nullptr, nullptr);
    const double peak_rss = peakRssMb();

    rep.attempted = loop.submitted;
    rep.failed = loop.failures;
    if (loop.mismatches)
        rep.fail("fleet sim results differ across repetitions");

    // Inputs and admission contract: every drawn arrival connects and
    // departs, and no admitted request misses its deadline.
    double users = 0, mtp = 0, compliance = 0, bytes = 0;
    double wait99 = 0, wait50 = 0, admitted = 0, util = 0;
    std::uint64_t shed = 0, submitted = 0, downgraded = 0, batched = 0;
    std::uint64_t arrivals = 0, roams = 0;
    std::size_t peak = 0;
    for (std::size_t k = 0; k < eps.size(); k++) {
        const collab::SessionResult &r = loop.first[k];
        const collab::SessionAggregate &a = r.aggregate;
        if (r.openLoop.arrivals != eps[k].arrivals.size() ||
            r.openLoop.departures != r.openLoop.arrivals)
            rep.fail("fleet episode arrivals != departures or != the "
                     "drawn trace");
        if (r.serveCounters.deadlineMisses != 0)
            rep.fail("fleet admitted requests missed their deadline");
        if (k >= kEpisodes)
            continue;  // the timed episodes give host metrics only
        const auto n = static_cast<double>(a.users);
        const auto adm = static_cast<double>(r.serveCounters.admitted);
        users += n;
        mtp += a.meanMtp * n;
        compliance += a.fpsCompliance * n;
        bytes += a.bytesPerFrame;
        wait99 += a.p99QueueWait * adm;
        wait50 += a.p50QueueWait * adm;
        admitted += adm;
        shed += r.serveCounters.shed;
        submitted += r.serveCounters.submitted;
        downgraded += r.serveCounters.downgraded;
        batched += r.serveCounters.batchedRequests;
        arrivals += r.openLoop.arrivals;
        roams += r.openLoop.roams;
        peak = std::max(peak, r.openLoop.peakActiveUsers);
        double u = 0;
        for (const double s : r.shardUtilisation)
            u += s;
        util += r.shardUtilisation.empty()
                    ? 0.0
                    : u / static_cast<double>(r.shardUtilisation.size());
    }

    // Host time per user-frame of each timed episode's fastest run.
    std::uint64_t timed_frames = 0;
    double timed_s = 0.0;
    std::vector<double> best_us;
    for (std::size_t k = kEpisodes; k < eps.size(); k++) {
        timed_frames += eps[k].userFrames;
        timed_s += loop.best.best()[k];
        best_us.push_back(loop.best.best()[k] * 1e6 /
                          static_cast<double>(eps[k].userFrames));
    }
    rep.endToEnd.set("frames_per_s",
                     static_cast<double>(timed_frames) / timed_s,
                     "frames/s", "host");
    rep.endToEnd.set("host_frame_us_p50", percentile(best_us, 0.5), "us",
                     "host");
    rep.endToEnd.set("host_frame_us_p99", percentile(best_us, 0.99), "us",
                     "host");
    rep.endToEnd.set("setup_s", setup_s, "s", "host");
    rep.endToEnd.set("peak_rss_mb", peak_rss, "MB", "host");
    rep.endToEnd.set("mtp_mean_ms", mtp / users * 1e3, "ms", "sim");
    rep.endToEnd.set("fps_compliance", compliance / users, "fraction",
                     "sim");
    rep.endToEnd.set("downlink_kb_per_frame", bytes / users / 1e3, "KB",
                     "sim");
    for (const Metric &m : rep.endToEnd.items())
        rep.workloadMetrics.set(m.name, m.value, m.unit, m.kind);
    rep.workloadMetrics.set("serve_wait_p99_ms", wait99 / admitted * 1e3,
                            "ms", "sim");
    rep.workloadMetrics.set("shed_rate",
                            static_cast<double>(shed) /
                                static_cast<double>(submitted),
                            "fraction", "sim");
    rep.spreads.push_back(spreadOf("frames_per_s", loop.timedFps));
    rep.counts["episodes"] = static_cast<double>(kEpisodes);
    rep.counts["timed_episodes"] = static_cast<double>(kTimedEpisodes);
    rep.counts["timed_repetitions"] =
        static_cast<double>(loop.timedFps.size());
    rep.counts["user_frames"] = static_cast<double>(submitted);
    rep.counts["users"] = users;

    if (!tracer) {
        // Aggregate-vs-full-telemetry cross-check on the first
        // episode, outside the timed region.
        if (!twinMatches(loop.first[0], runTwin(eps[0], nullptr, 0)))
            rep.fail("fleet full-telemetry twin differs from the "
                     "aggregate summary");
        return rep;
    }

    // ---- traced half -------------------------------------------------
    // One traced cycle of coarse runSession spans; then, for the first
    // kReplayEpisodes episodes, a full-telemetry twin (checked bit for
    // bit against the aggregate summary) and the layer replay of the
    // twin's users.
    const Loop traced = timedLoop(eps, 0.0, &loop.digests, tracer);
    if (traced.mismatches)
        rep.fail("fleet sim results differ between traced and untraced "
                 "runs");
    rep.attempted += traced.submitted;
    rep.failed += traced.failures;
    const auto session_totals = tracer->totals();

    // Untraced and traced runs of the timed episodes alternate for the
    // tracing overhead.
    const double overhead =
        overheadRatio(opt.seconds / 4, tracer, [&](Tracer *t) {
            BestTimes b;
            for (std::size_t k = kEpisodes; k < eps.size(); k++) {
                const auto t0 = Clock::now();
                collab::SessionResult r;
                {
                    Scope sc(t, kSessionSpan, k);
                    r = collab::runSession(eps[k].cfg);
                }
                b.record(k - kEpisodes, secondsBetween(t0, Clock::now()));
                if (sessionDigest(r) != loop.digests[k])
                    rep.fail("fleet sim results differ between traced "
                             "and untraced runs");
            }
            return b;
        });

    ReplayCounts counts;
    std::uint64_t batches = 0;
    double replayed_session_s = 0.0;
    for (std::size_t k = 0; k < kReplayEpisodes; k++) {
        replayed_session_s += traced.firstSeconds[k];
        const collab::SessionResult twin = runTwin(eps[k], tracer, k);
        if (!twinMatches(traced.first[k], twin))
            rep.fail("fleet full-telemetry twin differs from the "
                     "aggregate summary");
        replayEpisode(eps[k], twin, k, tracer, counts, batches, rep);
    }

    const auto totals = tracer->totals();
    MetricList &pl = rep.perLayer;
    const double frames = static_cast<double>(counts.frames);
    pl.set("scene.frame_us", spanTotalUs(totals, span::kScene) / frames,
           "us", "host");
    pl.set("scene.batches_per_frame", static_cast<double>(batches) / frames,
           "count", "sim");
    pl.set("motion.trace_us_per_frame",
           spanTotalUs(totals, span::kMotion) / frames, "us", "host");
    replayLayerMetrics(totals, counts, pl);
    pl.set("core.arrivals", static_cast<double>(arrivals), "count", "sim");
    pl.set("core.roams", static_cast<double>(roams), "count", "sim");
    pl.set("core.peak_active_users", static_cast<double>(peak), "count",
           "sim");
    pl.set("trace.overhead_ratio", overhead, "ratio", "host");
    pl.set("collab.session_s", spanMeanUs(session_totals, kSessionSpan) / 1e6,
           "s", "host");
    pl.set("collab.replay_coverage",
           (replayedLayerUs(totals, true) +
            spanTotalUs(totals, kArrivalSpan)) /
               1e6 / replayed_session_s,
           "ratio", "host");
    pl.set("serve.submitted", static_cast<double>(submitted), "count",
           "sim");
    pl.set("serve.admitted_ratio", admitted / static_cast<double>(submitted),
           "ratio", "sim");
    pl.set("serve.downgraded_ratio",
           static_cast<double>(downgraded) / admitted, "ratio", "sim");
    pl.set("serve.batched_ratio", static_cast<double>(batched) / admitted,
           "ratio", "sim");
    pl.set("serve.pool_utilisation",
           util / static_cast<double>(kEpisodes), "ratio", "sim");
    pl.set("serve.wait_p50_ms", wait50 / admitted * 1e3, "ms", "sim");
    rep.counts["replayed_frames"] = frames;
    rep.counts["replay_sink"] = counts.sink;
    return rep;
}

}  // namespace perfbench
