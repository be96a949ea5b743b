#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sched.h>
#include <sys/resource.h>

#include "common.hpp"

namespace perfbench
{

void
MetricList::set(const std::string &name, double value,
                const std::string &unit, const std::string &kind)
{
    for (Metric &m : items_) {
        if (m.name == name) {
            m = Metric{name, value, unit, kind};
            return;
        }
    }
    items_.push_back(Metric{name, value, unit, kind});
}

const Metric *
MetricList::find(const std::string &name) const
{
    for (const Metric &m : items_)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    auto i = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    i = std::clamp<std::size_t>(i, 1, xs.size());
    return xs[i - 1];
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Spread
spreadOf(const std::string &name, std::vector<double> xs)
{
    Spread s;
    s.name = name;
    s.repetitions = xs.size();
    if (xs.empty())
        return s;
    std::sort(xs.begin(), xs.end());
    s.min = xs.front();
    s.max = xs.back();
    s.median = median(xs);
    if (xs.size() < 2) {
        s.q1 = s.q3 = xs.front();
        return s;
    }
    const auto quartile = [&xs](int i) {
        const auto m = static_cast<long>(xs.size()) + 1;
        const long j = i * m / 4;
        const long delta = i * m - j * 4;
        const auto at = [&xs](long k) {
            return xs[static_cast<std::size_t>(
                std::clamp<long>(k, 0, static_cast<long>(xs.size()) - 1))];
        };
        return (at(j - 1) * static_cast<double>(4 - delta) +
                at(j) * static_cast<double>(delta)) /
               4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

void
BestTimes::record(std::size_t unit, double seconds)
{
    if (unit >= best_.size())
        best_.resize(unit + 1, std::numeric_limits<double>::infinity());
    best_[unit] = std::min(best_[unit], seconds);
}

void
BestTimes::merge(const BestTimes &other)
{
    for (std::size_t i = 0; i < other.best_.size(); i++)
        record(i, other.best_[i]);
}

double
BestTimes::total() const
{
    double sum = 0.0;
    for (const double s : best_)
        sum += s;
    return sum;
}

void
nextCpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; c++)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    static std::size_t next = 0;
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t
digestMix(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 of (seed, index): well-separated per-index seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) & 0xffffffffull;
}

}  // namespace perfbench
