/**
 * @file
 * The online repackaging controller (the tentpole of the runtime).
 *
 * One RuntimeController::run() co-drives the ExecutionEngine and the
 * HotSpotDetector over a *live* clone of the workload's program, in
 * fixed instruction-count quanta. Detector snapshots fire synchronously
 * during a quantum and are queued; at each quantum boundary the
 * controller, on its own thread:
 *
 *   1. refreshes package-cache recency from the packaged-instruction
 *      usage observed during the quantum,
 *   2. drains queued detections — each is a cache hit (phase already
 *      installed), an in-flight hit (synthesis already queued), or new
 *      synthesis handed to the background ThreadPool,
 *   3. installs finished bundles in (readyQuantum, submit-order) via
 *      LivePatcher,
 *   4. evicts least-recently-used bundles while over the weight
 *      capacity (deopting them back to original code), deferring any
 *      bundle the suspended engine still references.
 *
 * Tiered installation (cfg.tiering): a fresh phase submits *two* jobs —
 * a tier-0 bundle (packaging + linking only) under the small
 * tier0CompileQuanta budget, spliced as soon as it is ready so the phase
 * sees optimized-ish code almost immediately, and the fully optimized
 * tier-1 bundle under the normal latency model. When the tier-1 bundle
 * passes the install gate it *promotes*: the tier-0 copy is retired
 * through the same lazy-deopt/tombstone path a displacement uses. A
 * rejected or failed tier-1 leaves the healthy tier-0 resident, and a
 * later detection hitting that tier-0 re-submits the full build (a
 * tier-0 hit is a promotion trigger, never a steady state). Any tier-0
 * still resident at end of run is retired before stats are collected.
 *
 * Retirement: retire() is the one place a cache entry leaves residency
 * or the cache — displacement, capacity eviction, same-tier replacement,
 * promotion, merged-fragment absorption, watchdog deopt, gate reject,
 * install rollback and the end-of-run tier-0 sweep. Each Retire reason
 * is one row of a table that says whether the entry stays dormant,
 * whether its unpatched functions become a lazy-deopt zombie, whether
 * the retirement is an offense (quarantine + shared-cache taint), and
 * which counters and BundleStats fields it updates, so a lifecycle hook
 * (an event log, fleet-level pool accounting) attaches in one place.
 * Only unpatchResidents() — the end-of-run / crash-unwind drain of the
 * undo log — unpatches outside it, and it leaves cache and stats as is.
 *
 * Determinism: a job submitted at quantum q installs at quantum
 * q + latency(record, tier), where the per-tier latency model is a pure
 * function of the record (RuntimeConfig). If the worker has not finished
 * by then the controller blocks — worker count changes wall-clock only,
 * never results. Jobs complete in (readyQuantum, submission) order, also
 * a pure function of the detection sequence. Every mutation of the live
 * program happens on the controller thread between quanta, under the
 * engine's safe re-entry contract.
 */

#ifndef VP_RUNTIME_CONTROLLER_HH
#define VP_RUNTIME_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hsd/detector.hh"
#include "runtime/bundle.hh"
#include "runtime/config.hh"
#include "runtime/package_cache.hh"
#include "runtime/patcher.hh"
#include "runtime/stats.hh"
#include "runtime/synth_cache.hh"
#include "runtime/verifier.hh"
#include "support/fault.hh"
#include "support/thread_pool.hh"
#include "trace/engine.hh"
#include "workload/workload.hh"

namespace vp::runtime
{

/** The controller. Single-shot: construct, run() once, read stats. */
class RuntimeController
{
  public:
    /** @p w must outlive the controller (the pristine program is the
     *  synthesis input and the deopt baseline). */
    RuntimeController(const workload::Workload &w, const RuntimeConfig &cfg);

    /**
     * Crash-unwind safety: if an exception escapes run() mid-quantum
     * (an injected TenantCrash, or a genuine defect) bundles may still
     * be resident, and ~LivePatcher asserts a drained undo log. Deopt
     * every resident entry here so a supervised teardown never turns
     * into a process abort. On the normal path run() already unpatched
     * everything and unpatch() is idempotent, so this is a no-op then.
     */
    ~RuntimeController();

    /** Execute the workload online; @return the run's counters. */
    RuntimeStats run();

    /** The live (patched) program — inspectable after run(). */
    const ir::Program &liveProgram() const { return live_; }

    /** Attach a retired-instruction observer to the underlying engine.
     *  Must be called before run(); tests use this to compare the
     *  logical instruction stream against an unpatched reference run. */
    void addSink(trace::InstSink *sink) { engine_.addSink(sink); }

    /**
     * Attach a fleet-level synthesis memo; must be set before run() and
     * outlive it. Serving a job from the cache never changes results —
     * the bundle is bit-identical to a fresh build (synthesis is pure)
     * and installs at the same deterministic readyQuantum — it only
     * skips the worker execution. Unset: the standalone runtime.
     */
    void setSynthesisCache(SynthesisCache *c) { synthCache_ = c; }

    /** Carry quarantine state from a crashed incarnation into this one;
     *  must be called before run(). See PackageCache::seedQuarantine()
     *  for the clock semantics. */
    void seedQuarantine(std::vector<QuarantineEntry> seed)
    {
        cache_.seedQuarantine(std::move(seed));
    }

    /** The quarantine list as it stands — readable after run() returns
     *  *or* throws (the supervisor snapshots it from a crashed tenant
     *  before destroying the controller). */
    const std::vector<QuarantineEntry> &quarantineSnapshot() const
    {
        return cache_.quarantineEntries();
    }

    const RuntimeStats &stats() const { return stats_; }

    /**
     * Deterministic quantum clock: the number of completed quanta. The
     * boundary at which any structural event (install, deopt, epoch
     * publication, limbo reclaim) lands is a pure function of the
     * detection sequence, so tests pin epoch-drain edge cases to exact
     * quantum counts instead of sleeping and hoping.
     */
    std::uint64_t quantumClock() const { return quantum_; }

    /**
     * Test seam: invoked at the top of every quantum boundary — after
     * the engine suspends (unpinned, quiescent) and after the limbo
     * reclaim for this boundary, before any structural work — with the
     * current quantum count. Observations made inside the probe see the
     * live program and epoch domain at a deterministic instant. Must be
     * set before run(); the probe must not mutate the program.
     */
    void setBoundaryProbe(std::function<void(std::uint64_t)> probe)
    {
        boundaryProbe_ = std::move(probe);
    }

  private:
    /** Per-func packaged-instruction counter (cache recency signal). */
    struct UsageSink : trace::InstSink
    {
        std::unordered_map<ir::FuncId, std::uint64_t> counts;

        void
        onRetire(const trace::RetiredInst &ri) override
        {
            if (ri.inPackage)
                ++counts[ri.block.func];
        }

        /** A batch is a run of consecutively retired instructions — a
         *  whole trace under superblock dispatch — so walk it in
         *  same-function runs: one map probe per function crossed. */
        void
        onRetireBatch(std::span<const trace::RetiredInst> batch) override
        {
            std::size_t i = 0;
            while (i < batch.size()) {
                const trace::RetiredInst &head = batch[i];
                std::size_t j = i + 1;
                while (j < batch.size() &&
                       batch[j].block.func == head.block.func)
                    ++j;
                if (head.inPackage)
                    counts[head.block.func] += j - i;
                i = j;
            }
        }
    };

    /** What a synthesis worker hands back: a bundle, or the error that
     *  prevented one. Workers catch *every* failure into status so the
     *  pool's rethrow path never fires for runtime jobs — one bad phase
     *  must cost coverage, not the run. */
    struct JobResult
    {
        PackageBundle bundle;
        Status status; ///< ok = bundle valid
    };

    /** One background synthesis job. */
    struct Job
    {
        hsd::HotSpotRecord record;
        unsigned tier = 1;       ///< 0 = fast install, 1 = full build
        std::uint64_t seq = 0;   ///< submission order (completion tiebreak)
        std::uint64_t submitQuantum = 0;
        std::uint64_t readyQuantum = 0; ///< deterministic install point

        /** Non-empty when the record is a coalesced union of overlapping
         *  cache entries: their ids (retired once the bundle installs). */
        std::vector<std::uint64_t> mergedFrom;

        /** Result was served by the shared SynthesisCache (propagated
         *  into the cache entry so later misbehavior taints the shared
         *  copy instead of only this tenant's profile). */
        bool fromSharedCache = false;

        std::shared_ptr<JobResult> result;
        std::shared_ptr<std::atomic<bool>> done;
    };

    /** Why a cache entry is retired; indexes the retirement table in
     *  controller.cc (see DESIGN.md for the table itself). */
    enum class Retire
    {
        Displaced,     ///< a newer bundle took its launch arcs
        Evicted,       ///< LRU victim over the weight capacity
        Superseded,    ///< a fresh same-phase build replaced it
        Promoted,      ///< its tier-1 twin passed the install gate
        Absorbed,      ///< a merged bundle covers this fragment
        WatchdogDeopt, ///< resident but cold for too long
        GateReject,    ///< the install gate refused the bundle
        RolledBack,    ///< the live program failed verify after splice
        EndOfRun,      ///< unpromoted tier-0 still resident at exit
    };

    void boundary();
    void sweepZombies();
    void refreshRecency();
    void recordCurvePoint();
    void watchdog();
    void corruptRecord(hsd::HotSpotRecord &rec);
    void drainDetections();
    void submitJob(const hsd::HotSpotRecord &rec, unsigned tier,
                   const std::vector<std::uint64_t> &merged_from);
    /** A queued job builds @p rec's phase (at @p tier, if given). */
    bool inFlight(const hsd::HotSpotRecord &rec,
                  std::optional<unsigned> tier = std::nullopt) const;
    void completeReadyJobs();
    void completeJob(const Job &job);
    void processActivations();
    void activate(std::uint64_t entry_id);
    void evictOverCapacity();
    bool engineReferences(const std::vector<ir::FuncId> &funcs) const;

    /**
     * Retire cache entry @p idx for reason @p why: unpatch it if
     * resident, then apply the reason's row of the retirement table.
     * Entries that leave the cache shift later indices down by one. An
     * @p heir (promotion, merged-fragment absorption) inherits the
     * entry's usage funcs, so the engine finishing the phase inside the
     * unpatched clone reads as the heir's activity.
     */
    void retire(std::size_t idx, Retire why,
                std::optional<std::uint64_t> heir = std::nullopt);

    /** Unpatch every resident entry without touching the cache or the
     *  stats (end of run and crash unwind: the undo log must drain). */
    void unpatchResidents();

    /** Index of the first entry at or after @p from holding a tier-0
     *  (@p tier 0) or tier-1 build of @p rec's phase (loose match), or
     *  PackageCache::npos. */
    std::size_t twinOf(const hsd::HotSpotRecord &rec, unsigned tier,
                       std::size_t from = 0) const;

    /** Index of the resident entry that owns launch arc @p p in the live
     *  program, or PackageCache::npos (arcs have at most one owner). */
    std::size_t arcOwner(const Patch &p) const;

    /** True while @p e is resident and retired a meaningful share of the
     *  last quantum inside its packages. */
    bool activeNow(const CacheEntry &e) const;

    const workload::Workload &workload_;
    RuntimeConfig cfg_;
    hsd::FilterConfig cacheMatch_; ///< vp.filter + cache slack
    hsd::FilterConfig subsume_;    ///< vp.filter + containment tightness

    const ir::Program &pristine_; ///< workload_.program
    ir::Program live_;            ///< mutated clone the engine executes

    trace::ExecutionEngine engine_;
    hsd::HotSpotDetector detector_;
    UsageSink usage_;
    LivePatcher patcher_;
    PackageCache cache_;
    PackageVerifier verifier_;

    /** Fault decisions are all made here, on the controller thread, in
     *  deterministic event order — a fixed seed injects the identical
     *  sequence for every worker count. */
    fault::FaultInjector inject_;

    SynthesisCache *synthCache_ = nullptr;

    ThreadPool pool_;

    std::vector<hsd::HotSpotRecord> pending_; ///< snapshots this quantum
    std::deque<Job> jobs_;                    ///< in submit order
    std::uint64_t nextJobSeq_ = 0;

    /** Cache-entry ids awaiting (re)install, in request order. */
    std::deque<std::uint64_t> pendingActivations_;

    /** Unpatched (lazy-deopt) function groups awaiting tombstoning once
     *  the engine has drained out of them. */
    std::vector<std::vector<ir::FuncId>> zombies_;

    std::uint64_t quantum_ = 0;
    bool ran_ = false;
    RuntimeStats stats_;

    /** Boundary test probe (quantum clock seam); empty = no-op. */
    std::function<void(std::uint64_t)> boundaryProbe_;
};

} // namespace vp::runtime

#endif // VP_RUNTIME_CONTROLLER_HH
