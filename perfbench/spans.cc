#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

namespace
{

// Innermost open scope on this thread, and the row/tenant id it carries.
thread_local std::int64_t t_current = -1;
thread_local std::int64_t t_currentId = -1;

} // namespace

std::int64_t
Tracer::begin(const std::string &name, std::int64_t id, std::int64_t parent)
{
    if (!enabled_)
        return -1;
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, now, now});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::end(std::int64_t index)
{
    if (index < 0)
        return;
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

void
Tracer::count(const std::string &key, double v)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    counts_[key] += v;
}

double
Tracer::countOf(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(key);
    return it == counts_.end() ? 0.0 : it->second;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});

    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.name != name)
            continue;
        // Union of the children's intervals, clipped to the span: children
        // on other threads may overlap each other.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        total += (s.end - s.start) - covered;
    }
    return total;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (double d : durations(name))
        total += d;
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"span\": %zu, \"name\": \"%s\", \"id\": %lld, "
                     "\"parent\": %lld, \"start\": %.9f, \"end\": %.9f}\n",
                     i, s.name.c_str(), static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), s.start, s.end);
    }
    return std::fclose(f) == 0;
}

Scope::Scope(Tracer &t, const std::string &name, std::int64_t id)
    : Scope(t, name, id, t_current)
{}

Scope::Scope(Tracer &t, const std::string &name, std::int64_t id,
             std::int64_t parent)
    : tracer_(t), index_(-1), saved_(t_current), savedId_(t_currentId)
{
    if (id < 0)
        id = t_currentId;
    index_ = t.begin(name, id, parent);
    if (index_ >= 0) {
        t_current = index_;
        t_currentId = id;
    }
}

Scope::~Scope()
{
    tracer_.end(index_);
    t_current = saved_;
    t_currentId = savedId_;
}

} // namespace perfbench
