/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a layer, recorded from the benchmark's side of
 * the boundary: name, start, end, the span that caused it, and the id of
 * the roster row or tenant it belongs to. Spans stay in memory for the
 * whole run and are written out as JSON lines when it ends. A disabled
 * recorder records nothing, so untraced runs pay one branch per scope.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    std::string name;
    std::int64_t id = -1;     ///< roster row / tenant; -1 = none
    std::int64_t parent = -1; ///< index of the causing span; -1 = root
    double start = 0.0;       ///< seconds since the recorder's origin
    double end = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; @return its index, or -1 when disabled. */
    std::int64_t begin(const std::string &name, std::int64_t id,
                       std::int64_t parent);

    void end(std::int64_t index);

    /** Add @p v to the named count (recorded at a span boundary). */
    void count(const std::string &key, double v);

    /** The named count, 0 when never recorded. */
    double countOf(const std::string &key) const;

    /** Summed self time of every span named @p name: each span's
     *  duration minus the part of it its child spans cover. */
    double selfSeconds(const std::string &name) const;

    /** Summed duration of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Durations of every span named @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    std::size_t size() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_; ///< guards spans_ and counts_
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
};

/**
 * RAII span. The parent defaults to the innermost open scope on this
 * thread; work handed to another thread passes its parent explicitly.
 * An id < 0 inherits the id of the innermost open scope on this thread.
 */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::int64_t id = -1);
    Scope(Tracer &t, const std::string &name, std::int64_t id,
          std::int64_t parent);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t index() const { return index_; }

  private:
    Tracer &tracer_;
    std::int64_t index_;
    std::int64_t saved_;
    std::int64_t savedId_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
