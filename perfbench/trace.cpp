#include <cstdio>
#include <memory>

#include "common.hpp"

namespace perfbench
{

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::int32_t
Tracer::begin(const char *name, std::uint64_t user, std::uint64_t frame)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.user = user;
    s.frame = frame;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    spans_.back().startNs = nowNs();
    return id;
}

void
Tracer::end(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    // Scopes nest, so the span ending is the innermost open one.
    open_.pop_back();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        Totals &t = out[s.name];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        t.calls++;
        t.totalUs += dur / 1e3;
        t.selfUs += (dur - static_cast<double>(child[i])) / 1e3;
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::unique_ptr<FILE, int (*)(FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n",
               f.get());
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f.get(),
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"user\":%llu,"
                     "\"frame\":%llu}}\n",
                     i ? "," : "", s.name,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     s.parent, static_cast<unsigned long long>(s.user),
                     static_cast<unsigned long long>(s.frame));
    }
    std::fputs("]}\n", f.get());
    return std::ferror(f.get()) == 0;
}

double
spanTotalUs(const std::map<std::string, Tracer::Totals> &t,
            const std::string &name)
{
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.totalUs;
}

double
spanMeanUs(const std::map<std::string, Tracer::Totals> &t,
           const std::string &name)
{
    const auto it = t.find(name);
    if (it == t.end() || it->second.calls == 0)
        return 0.0;
    return it->second.totalUs / static_cast<double>(it->second.calls);
}

}  // namespace perfbench
