/**
 * @file
 * Shared pieces of the repository benchmark: run arguments, the result
 * a workload fills in (metrics, attempts, failures, correctness
 * mismatches), and small helpers. See README.md in this directory.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/config.hh"
#include "spans.hh"
#include "workload/workload.hh"

namespace perfbench
{

/** Row-pool / fleet worker threads (the benchmark box has 4 CPUs). */
inline constexpr unsigned kWorkers = 4;

/** Fleet size: the 20-row roster twice. */
inline constexpr std::size_t kTenants = 40;

/** Set-up repetitions; setup_s is their median. */
inline constexpr int kSetupReps = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir; ///< scratch space inside the checkout
    std::string spansPath; ///< where a traced run writes its spans
};

/** Everything one run reports. */
class Result
{
  public:
    /** End-to-end (untraced) or per-layer (traced) metric. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Human-readable line printed before the JSON result. */
    void note(const std::string &line) { notes_.push_back(line); }

    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** A failed operation (dropped phase, failed build, rejected image,
     *  degraded tenant). */
    void failOp(std::uint64_t n = 1) { failed_ += n; }

    /** A correctness-check mismatch: counts as a failed operation and
     *  makes the run incorrect. */
    void mismatch(const std::string &what);

    bool correct() const { return mismatches_.empty(); }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print the notes, the mismatches and the final JSON line. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> mismatches_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The fleet's per-tenant runtime config (what `vpack fleet` uses); the
 *  single-tenant references must run the same one. */
inline vp::runtime::RuntimeConfig
fleetRuntimeConfig()
{
    return {};
}

/** Median of @p v (mean of the middle two for an even count). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 1]. */
double percentile(std::vector<double> v, double p);

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

/**
 * Host-speed reference. The box is a VM whose speed drifts by up to 2x
 * over minutes (hypervisor steal, host contention, idle vCPUs being
 * descheduled), so every timed pass and set-up is preceded by this fixed
 * integer kernel: hash-table updates with data-dependent branches over a
 * 4 MiB table (a working set like one roster row's), on kWorkers threads. @return its summed thread CPU seconds.
 */
double referenceSeconds();

/** referenceSeconds() on the idle benchmark box (4-vCPU Xeon VM). */
inline constexpr double kReferenceS = 0.30;

/**
 * How much more a pass's CPU time moves than the kernel's when the host
 * slows down: the slope of log(pass CPU) on log(kernel CPU), 1.3-1.4 for
 * all three workloads over ~900 passes in quiet and busy periods. The
 * single-threaded roster build follows the kernel 1:1.
 */
inline constexpr double kPassElasticity = 1.35;

/** @p seconds measured beside a reference kernel that took @p ref,
 *  scaled to the speed the box has when the kernel takes kReferenceS. */
inline double
calibrated(double seconds, double ref, double elasticity = 1.0)
{
    return seconds * std::pow(kReferenceS / ref, elasticity);
}

/** Peak resident set of this process, in MiB (VmHWM): since the last
 *  resetPeakRss(), or since start when the kernel cannot reset it. */
double peakRssMb();

/** Return freed heap to the kernel and restart peak-RSS tracking at the
 *  current resident set. */
void resetPeakRss();

/** Filesystem type name of the file system holding @p path. */
std::string filesystemOf(const std::string &path);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Median calibrated seconds of kSetupReps calls of makeAllWorkloads();
 *  the last roster built is kept in @p roster. */
double buildRoster(std::vector<vp::workload::Workload> &roster);

// Workloads (offline.cc, fleet.cc).
void runOfflinePack(const Args &args, Result &result);
void runFleet(const Args &args, bool warm, Result &result);

// Per-layer probes shared by every traced run (probes.cc).

/**
 * Per-row layer probes over the pristine roster, run serially so each
 * layer's time is its own: bare engine, engine + HSD, engine + EPIC
 * (when @p with_sim), region identification, package construction
 * without and with the optimizer, ir::verifyProgram, and a single-tenant
 * RuntimeController::run. Records spans and counts into @p tracer,
 * failures into @p result, and returns each row's runtime report text
 * (the fleet check's reference).
 */
std::vector<std::string>
probeLayers(Tracer &tracer, Result &result,
            const std::vector<vp::workload::Workload> &roster, bool with_sim);

/** Store, serializer and verifier probes over the images in @p store_dir;
 *  @p scratch_dir receives a fresh copy through BundleStore::put. */
void probeStore(Tracer &tracer, Result &result,
                const std::vector<vp::workload::Workload> &roster,
                const std::string &store_dir, const std::string &scratch_dir);

/** Emit every per-layer metric from @p tracer (0 for layers the workload
 *  did not run). */
void emitLayerMetrics(const Tracer &tracer, Result &result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
