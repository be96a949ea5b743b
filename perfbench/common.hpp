/**
 * @file
 * Shared pieces of the repository benchmark: options, metric lists,
 * host-time statistics and the in-memory span tracer.
 *
 * Two kinds of numbers leave this program.  *Host* numbers measure
 * the simulator (wall time on the machine running it); *sim* numbers
 * are what the modelled VR system would take, and are deterministic
 * for a fixed seed.  Every metric is tagged with its kind so a reader
 * never mistakes one for the other.
 */

#ifndef QVR_PERFBENCH_COMMON_HPP
#define QVR_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;
class Tracer;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Chrome trace-event output of a traced run ("" = none). */
    std::string traceOut;
    std::string gitSha = "unknown";
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string kind;  ///< "host" or "sim"
};

/** Insertion-ordered metric list; set() overwrites by name. */
class MetricList
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &kind);
    const std::vector<Metric> &items() const { return items_; }
    const Metric *find(const std::string &name) const;

  private:
    std::vector<Metric> items_;
};

/** Spread of a host metric over the repetitions of one run. */
struct Spread
{
    std::string name;
    std::size_t repetitions = 0;
    double min = 0.0, q1 = 0.0, median = 0.0, q3 = 0.0, max = 0.0;
};

/** Everything one workload run reports. */
struct Report
{
    /** Correctness-check failures (empty = correct). */
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The universal end-to-end metrics (BENCHMARK.json). */
    MetricList endToEnd;
    /** Every end-to-end metric that applies to this workload,
     *  including the workload-specific ones. */
    MetricList workloadMetrics;
    /** Per-layer metrics (traced run only). */
    MetricList perLayer;
    /** Host-metric spreads over repetitions (provenance). */
    std::vector<Spread> spreads;
    /** Free-form provenance entries (sample counts, sizes). */
    std::map<std::string, double> counts;

    void fail(const std::string &why) { failures.push_back(why); }
};

// ---- statistics ---------------------------------------------------

/** Nearest-rank percentile of @p xs (copied and sorted); q in (0,1]. */
double percentile(std::vector<double> xs, double q);
double median(std::vector<double> xs);
/** min / quartiles / max of @p xs, as Python's
 *  statistics.quantiles(n=4) (exclusive method) computes them. */
Spread spreadOf(const std::string &name, std::vector<double> xs);
/**
 * Move the calling thread to the next CPU of the set it started with,
 * round robin; call once per pass of repeated work.  On a shared host
 * each CPU is slowed by its own neighbours, for seconds to minutes at
 * a time, so a thread left on one CPU can spend a whole run slowed;
 * rotating gives every unit's best-of-N a try on every CPU.  Still one
 * thread: it only runs on a different CPU from pass to pass.
 */
void nextCpu();
/** Median of repeated set-up timings, run @p reps times, each on the
 *  next CPU (see nextCpu), so the median does not rest on one CPU's
 *  neighbours. */
template <typename Fn>
double
medianSetupSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; i++) {
        nextCpu();
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(t);
}
/**
 * Best-of-N host timing of repeated, deterministic units of work
 * (a frame step, a composite, an episode): each unit keeps its
 * fastest time over the run's repetitions.  Host speed on a shared
 * machine drifts by tens of percent over tens of seconds, so a
 * median over one run still moves with the phase the run landed in;
 * the fastest repetition of identical work is the least-disturbed
 * measurement of it.
 */
class BestTimes
{
  public:
    void record(std::size_t unit, double seconds);
    void merge(const BestTimes &other);
    /** Fastest time of each unit recorded so far, seconds. */
    const std::vector<double> &best() const { return best_; }
    double total() const;

  private:
    std::vector<double> best_;
};
/**
 * Tracing overhead: alternate untraced and traced repetitions of
 * @p pass for @p budget seconds (at least one pair), each pair on the
 * next CPU, so host-speed phases and CPUs hit both sides alike, and
 * compare their best-of-N totals.  @p pass(tracer) runs one
 * repetition, on the CPU it is called on, and returns its BestTimes.
 */
template <typename Pass>
double
overheadRatio(double budget, Tracer *tracer, Pass &&pass)
{
    BestTimes plain, traced;
    const auto start = Clock::now();
    do {
        nextCpu();
        plain.merge(pass(nullptr));
        traced.merge(pass(tracer));
    } while (secondsBetween(start, Clock::now()) < budget);
    return traced.total() / plain.total() - 1.0;
}
/** Peak resident set size of this process, MB. */
double peakRssMb();
/** Mix @p v into FNV-1a digest @p h (bitwise, for doubles too). */
std::uint64_t digestMix(std::uint64_t h, const void *data,
                        std::size_t bytes);
template <typename T>
std::uint64_t
digestValue(std::uint64_t h, const T &v)
{
    return digestMix(h, &v, sizeof(v));
}
constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;
/** Deterministic per-index seed derived from the workload seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t index);

// ---- tracing ------------------------------------------------------

/**
 * In-memory span recorder.  A span has a name, start and end, the
 * span that was open when it began (its parent), and the user/frame
 * ids it belongs to.  Spans are kept in memory and written once at
 * exit as Chrome trace-event JSON.  Single-threaded by design: the
 * benchmark runs on one thread.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1;
        std::uint64_t user = 0;
        std::uint64_t frame = 0;
    };

    Tracer();

    std::int32_t begin(const char *name, std::uint64_t user,
                       std::uint64_t frame);
    void end(std::int32_t id);
    /** Rename an open span once its outcome is known. */
    void rename(std::int32_t id, const char *name)
    {
        spans_[static_cast<std::size_t>(id)].name = name;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name call count, total and self time (µs).  Self time is
     *  a span's duration minus the time its children cover. */
    struct Totals
    {
        std::uint64_t calls = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write Chrome trace-event JSON ("X" events, µs timestamps). */
    bool writeChrome(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span; a null tracer records nothing (the untraced run). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, std::uint64_t user = 0,
          std::uint64_t frame = 0)
        : t_(t), id_(t ? t->begin(name, user, frame) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void rename(const char *name)
    {
        if (t_)
            t_->rename(id_, name);
    }

  private:
    Tracer *t_;
    std::int32_t id_;
};

/** Sum of total time (µs) of spans named @p name. */
double spanTotalUs(const std::map<std::string, Tracer::Totals> &t,
                   const std::string &name);
/** Mean duration (µs) of spans named @p name (0 if none). */
double spanMeanUs(const std::map<std::string, Tracer::Totals> &t,
                  const std::string &name);

// ---- workloads ----------------------------------------------------

Report runQvrPipeline(const Options &opt, Tracer *tracer);
Report runFleetOpenLoop(const Options &opt, Tracer *tracer);
Report runPixelComposite(const Options &opt, Tracer *tracer);

/** Names of every per-layer metric, with units, in output order;
 *  a workload that does not reach a layer reports 0 for it. */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue();

}  // namespace perfbench

#endif  // QVR_PERFBENCH_COMMON_HPP
