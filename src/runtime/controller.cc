#include "runtime/controller.hh"

#include <algorithm>
#include <string>
#include <tuple>

#include "ir/verify.hh"
#include "support/logging.hh"

namespace vp::runtime
{

namespace
{

hsd::FilterConfig
cacheMatchConfig(const RuntimeConfig &cfg)
{
    hsd::FilterConfig m = cfg.vp.filter;
    m.missingFraction = cfg.cacheMissingFraction;
    m.maxBiasFlips = cfg.cacheMaxBiasFlips;
    return m;
}

hsd::FilterConfig
subsumeConfig(const RuntimeConfig &cfg)
{
    // Strict bias-flip rule from the filter, but containment tightened
    // to mergeContainFraction: subsumption is a destructive signal
    // (entries are served past, retired, quarantine-extended on it).
    hsd::FilterConfig m = cfg.vp.filter;
    m.missingFraction = cfg.mergeContainFraction;
    return m;
}

/** Steps of retiring a cache entry; a resident one is always unpatched
 *  first, and the row's counter bumps once per retirement. */
enum RetireStep : unsigned
{
    kDormant = 1u << 0,      ///< clearResident (bundle kept), else remove
    kZombie = 1u << 1,       ///< lazy-deopt count + tombstone queue
    kOffense = 1u << 2,      ///< quarantine + taint a shared-cache copy
    kInherit = 1u << 3,      ///< the heir takes allFuncs / usageBias
    kResidentOnly = 1u << 4, ///< a dormant entry does not bump the counter
    kEvicted = 1u << 5,      ///< stamp BundleStats::evictedQuantum
    kPromoted = 1u << 6,     ///< stamp BundleStats::promotedQuantum
    kRejected = 1u << 7,     ///< set BundleStats::rejected
    kDeopted = 1u << 8,      ///< ++BundleStats::watchdogDeopts
};

struct RetireRule
{
    unsigned steps;
    std::size_t RuntimeStats::*counter;
};

/** The retirement table, one row per RuntimeController::Retire value. */
constexpr RetireRule kRetireRules[] = {
    /* Displaced */
    {kDormant | kZombie, &RuntimeStats::displacements},
    /* Evicted */
    {kZombie | kEvicted, &RuntimeStats::evictions},
    /* Superseded */
    {kZombie | kEvicted | kResidentOnly, &RuntimeStats::displacements},
    /* Promoted */
    {kZombie | kInherit | kEvicted | kPromoted, &RuntimeStats::promotions},
    /* Absorbed */
    {kZombie | kInherit | kEvicted, &RuntimeStats::fragmentsRetired},
    /* WatchdogDeopt */
    {kDormant | kZombie | kOffense | kDeopted, &RuntimeStats::watchdogDeopts},
    /* GateReject */
    {kOffense | kEvicted | kRejected, &RuntimeStats::verifierRejects},
    /* RolledBack */
    {kZombie | kOffense | kEvicted | kRejected,
     &RuntimeStats::installRollbacks},
    /* EndOfRun */
    {kDormant | kEvicted, &RuntimeStats::tier0EndOfRunRetires},
};

} // namespace

RuntimeController::RuntimeController(const workload::Workload &w,
                                     const RuntimeConfig &cfg)
    : workload_(w), cfg_(cfg), cacheMatch_(cacheMatchConfig(cfg)),
      subsume_(subsumeConfig(cfg)),
      pristine_(w.program), live_(w.program), engine_(live_, w),
      detector_(cfg_.vp.hsd, &engine_.oracle()),
      patcher_(live_, pristine_),
      cache_(cfg_.cacheCapacityInsts, cacheMatch_, cfg.mergeOverlapping,
             subsume_),
      verifier_(pristine_),
      inject_(cfg_.fault), pool_(cfg_.workers)
{
    engine_.addSink(&detector_);
    engine_.addSink(&usage_);
    engine_.setEpochPlans(cfg_.epochReclaim);
    detector_.setSnapshotCallback(
        [this](const hsd::HotSpotRecord &rec) { pending_.push_back(rec); });
}

RuntimeController::~RuntimeController()
{
    // Drain the undo log even when run() was abandoned by an exception:
    // ~LivePatcher asserts it empty, and a supervised tenant teardown
    // must never escalate to a process abort. unpatch() is idempotent,
    // so after a normal run() (which already unpatched everything) this
    // only bumps redundantRestores on an already-dead object.
    unpatchResidents();
}

RuntimeStats
RuntimeController::run()
{
    vp_assert(!ran_, "RuntimeController is single-shot");
    ran_ = true;

    const std::uint64_t budget =
        cfg_.budget ? cfg_.budget : workload_.maxDynInsts;
    const std::uint64_t quantum =
        cfg_.quantumInsts ? cfg_.quantumInsts : budget;

    engine_.reset();
    while (!engine_.finished() && engine_.stats().dynInsts < budget) {
        const std::uint64_t before = engine_.stats().dynInsts;
        engine_.resume(std::min<std::uint64_t>(quantum, budget - before));
        vp_assert(engine_.finished() || engine_.stats().dynInsts > before,
                  "engine made no progress within a quantum");
        ++quantum_;
        boundary();
    }

    // The program is over; synthesis still in flight is abandoned (its
    // jobs stay counted in builds but never install).
    pool_.wait();

    // Tier-0 bundles are transitional by contract: any still resident
    // (their tier-1 was abandoned in flight, failed, or was blocked by
    // quarantine) are retired now, so no run ends serving unpromoted
    // fast-install code.
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        if (cache_.entry(i).resident && cache_.entry(i).bundle.tier == 0)
            retire(i, Retire::EndOfRun);
    }

    // Shutdown drain: the engine is quiescent, so every limbo item is
    // past its grace period — the run must end with an empty retire
    // list, not lean on the domain destructor's unconditional sweep.
    {
        epoch::EpochDomain &dom = live_.epochDomain();
        dom.reclaim();
        vp_assert(dom.drained(), "epoch limbo not drained at end of run");
        const epoch::EpochDomain::Stats es = dom.stats();
        stats_.plansReclaimed = es.reclaimed;
        stats_.peakLimbo = es.peakLimbo;
    }
    stats_.planRebuilds = engine_.blockPlanBuilds();

    stats_.run = engine_.stats();
    stats_.hsd = detector_.stats();
    stats_.quanta = quantum_;
    stats_.residentWeight = cache_.weight();
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        const CacheEntry &e = cache_.entry(i);
        stats_.bundles[e.bundleIndex].residentAtEnd = e.resident;
    }
    stats_.faults = inject_.stats();
    stats_.quarantinedAtEnd = cache_.quarantineCount();
    const ThreadPool::ErrorStats perr = pool_.errorStats();
    stats_.poolTaskErrors = perr.taskErrors;
    stats_.poolDroppedErrors = perr.droppedErrors;

    // Retire every live edit so the patcher destructs with a drained
    // undo log. The spliced functions stay — the run is over, no engine
    // will enter them — and the stats above were collected first, so
    // nothing observable changes.
    unpatchResidents();
    stats_.redundantRestores = patcher_.redundantRestores();
    return stats_;
}

void
RuntimeController::boundary()
{
    // The engine is suspended between quanta (unpinned, quiescent), so
    // everything tagged at or before the current epoch is reclaimable
    // right now — limbo never outlives the boundary after its last
    // reader could have touched it.
    epoch::EpochDomain &dom = live_.epochDomain();
    dom.reclaim();
    if (boundaryProbe_)
        boundaryProbe_(quantum_);

    const std::uint64_t me0 = live_.mutationEpoch();
    const std::uint64_t ce0 = live_.codeEpoch();
    {
        // One boundary = at most one published transition per counter:
        // every install/unpatch/deopt/tombstone this boundary performs
        // coalesces into a single epoch advance, so the engine re-keys
        // its plan working set once, not once per structural edit.
        // Serialized mode publishes each mutation individually — that
        // is the stop-the-world reference the A/B measures against.
        const epoch::EpochDomain::BatchGuard batch(
            cfg_.epochReclaim ? &dom : nullptr);
        sweepZombies();
        refreshRecency();
        recordCurvePoint();
        watchdog();
        drainDetections();
        completeReadyJobs();
        processActivations();
        evictOverCapacity();
    }
    // Install-stall accounting: a boundary "stalls" the engine when the
    // next quantum must rebuild its block-plan working set. In epoch
    // mode only code motion (husk compaction) re-keys block plans; in
    // serialized mode any published mutation does. Never rendered by
    // toText(), so the A/B stays byte-identical.
    if (cfg_.epochReclaim ? live_.codeEpoch() != ce0
                          : live_.mutationEpoch() != me0) {
        ++stats_.installStallQuanta;
    }
    stats_.peakResidentWeight =
        std::max(stats_.peakResidentWeight, cache_.weight());

    // Injected tenant crash: thrown after the boundary's structural work
    // so bundles are typically resident and jobs in flight — the worst
    // realistic state for the fleet supervisor to tear down. The
    // destructor unpatches residents; the pool joins in ~ThreadPool.
    if (cfg_.crashAtQuantum && quantum_ == cfg_.crashAtQuantum) {
        throw fault::TenantCrashError("injected tenant crash at quantum " +
                                      std::to_string(quantum_));
    }
}

void
RuntimeController::sweepZombies()
{
    bool swept = false;
    for (auto it = zombies_.begin(); it != zombies_.end();) {
        if (engineReferences(*it)) {
            ++it;
            continue;
        }
        // The husks' block plans can never be entered again (tombstoned
        // code has no successors and the engine provably drained out);
        // push them onto the grace-period limbo instead of letting them
        // sit in the plan table until engine teardown. The suspended
        // trace head is exempt inside retireFunctionPlans.
        if (cfg_.epochReclaim)
            stats_.plansRetired += engine_.retireFunctionPlans(*it);
        patcher_.tombstone(*it);
        it = zombies_.erase(it);
        swept = true;
    }
    if (swept && cfg_.verifyAfterPatch) {
        if (Status st = ir::verifyProgram(live_, "runtime tombstone"); !st) {
            vp_warn(st.message());
            ++stats_.liveVerifyFailures;
        }
    }
}

void
RuntimeController::watchdog()
{
    if (!cfg_.watchdog)
        return;
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        CacheEntry &e = cache_.entry(i);
        if (!e.resident)
            continue;
        if (quantum_ - e.lastInstalledQuantum <= cfg_.watchdogGraceQuanta)
            continue;
        if (activeNow(e)) {
            // Predicted coverage materialized: the phase is healthy;
            // forgive its quarantine history.
            e.coldQuanta = 0;
            if (!e.provedHealthy) {
                e.provedHealthy = true;
                stats_.absolutions += cache_.absolve(e.bundle.record);
            }
            continue;
        }
        if (++e.coldQuanta < cfg_.watchdogColdQuanta)
            continue;
        // The bundle never (or no longer) covers what is actually
        // running — possibly synthesized from a corrupted profile. Deopt
        // it through the undo log and quarantine the phase; the cached
        // bundle stays dormant for a backed-off retry.
        e.coldQuanta = 0;
        retire(i, Retire::WatchdogDeopt);
    }
}

void
RuntimeController::corruptRecord(hsd::HotSpotRecord &rec)
{
    using fault::Kind;
    std::vector<hsd::HotBranch> &br = rec.branches;
    // fire() is drawn for every record regardless of whether the record
    // is big enough to mutate, so the decision stream depends only on
    // the (deterministic) detection sequence.
    if (inject_.fire(Kind::DropBranch) && br.size() > 1) {
        br.erase(br.begin() + static_cast<std::ptrdiff_t>(
                                  inject_.draw(Kind::DropBranch, br.size())));
    }
    if (inject_.fire(Kind::Saturate) && !br.empty()) {
        // Both counters pegged at the 9-bit hardware cap: the branch
        // looks maximally hot and always taken.
        hsd::HotBranch &b = br[inject_.draw(Kind::Saturate, br.size())];
        b.exec = 0x1FF;
        b.taken = 0x1FF;
    }
    if (inject_.fire(Kind::Alias) && br.size() > 1) {
        // Counter tag collision: one branch's counts land under its
        // neighbor's static identity.
        const std::size_t i = inject_.draw(Kind::Alias, br.size() - 1);
        br[i].behavior = br[i + 1].behavior;
    }
}

void
RuntimeController::refreshRecency()
{
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        CacheEntry &e = cache_.entry(i);
        std::uint64_t sum = 0;
        for (ir::FuncId f : e.allFuncs) {
            auto it = usage_.counts.find(f);
            if (it != usage_.counts.end())
                sum += it->second;
        }
        sum -= std::min(sum, e.usageBias);
        BundleStats &bs = stats_.bundles[e.bundleIndex];
        e.prevDeltaRetires = e.lastDeltaRetires;
        e.lastDeltaRetires = sum - bs.instsRetired;
        if (e.resident)
            e.bestDeltaRetires =
                std::max(e.bestDeltaRetires, e.lastDeltaRetires);
        if (sum > bs.instsRetired) {
            bs.instsRetired = sum;
            cache_.touch(i, quantum_);
        }
    }
}

void
RuntimeController::recordCurvePoint()
{
    // Per-tier coverage sample, attributed through the same per-entry
    // usage totals that drive cache recency. BundleStats survive entry
    // removal, so a promoted tier-0's retires stay on tier 0.
    RuntimeStats::CurvePoint p;
    p.quantum = quantum_;
    p.dynInsts = engine_.stats().dynInsts;
    for (const BundleStats &b : stats_.bundles)
        p.tierInsts[b.tier == 0 ? 0 : 1] += b.instsRetired;
    stats_.curve.push_back(p);
}

void
RuntimeController::drainDetections()
{
    std::vector<hsd::HotSpotRecord> batch;
    batch.swap(pending_);
    for (hsd::HotSpotRecord &raw : batch) {
        ++stats_.detections;
        if (inject_.enabled())
            corruptRecord(raw);
        const hsd::HotSpotRecord rec = canonicalizeRecord(raw);

        // Quarantine first, before the loose cache match may answer:
        // a quarantined phase must not be served a loose-matched sibling
        // bundle or trigger a rebuild while its backoff runs.
        if (cache_.quarantined(rec, quantum_)) {
            ++stats_.quarantineSkips;
            continue;
        }

        // Oldest match wins, except that an actively retiring match
        // outranks cold ones: the loose predicate lets one record match
        // several entries, and when a phase variant aliases onto an old
        // dormant bundle while a sibling is busy serving it, reviving
        // the old bundle would displace live coverage for a splice the
        // engine may never enter.
        std::size_t hit = cache_.find(rec);
        if (hit != PackageCache::npos && !activeNow(cache_.entry(hit))) {
            for (std::size_t i = hit + 1; i < cache_.size(); ++i) {
                if (activeNow(cache_.entry(i)) &&
                    hsd::sameHotSpot(cache_.entry(i).bundle.record, rec,
                                     cacheMatch_)) {
                    hit = i;
                    ++stats_.aliasedHits;
                    break;
                }
            }
        }

        // Subsumption rescue: a fragment-sized re-detection of a merged
        // phase can never pass the symmetric sameHotSpot rule against the
        // union record (half the union is "missing" from the fragment),
        // so without this check it would rebuild — and the fresh fragment
        // bundle would displace the merged bundle's launch arcs, undoing
        // the coalescing. Serve it from the superset entry instead. The
        // same rule keeps loose-match slack from reviving a dormant
        // fragment whose record is a strict subset of a resident entry's:
        // the resident superset is preferred over any dormant match.
        //
        // Unmerged supersets answer only while they are *actively
        // serving*: sameHotSpot's symmetric missing-fraction rule rejects
        // a small subset of a big record from either side, so without
        // this a fragment-sized detection of a phase a live bundle is
        // demonstrably covering would rebuild and displace it. A merged
        // superset of an unmatched detection is served even when cold —
        // its union record was the synthesis input, so the bundle
        // packages the fragment by construction. Against a dormant match
        // the bar is the aliased-hit redirect's: only an actively serving
        // superset absorbs the detection. A resident-but-fading superset
        // means the phase is handing over — the dormant entry's revival
        // is the right response, not a redirect that would strand it.
        if (cfg_.mergeOverlapping) {
            if (hit == PackageCache::npos || !cache_.entry(hit).resident) {
                const std::size_t sup = cache_.findSuperset(rec, true);
                if (sup != PackageCache::npos && sup != hit &&
                    (activeNow(cache_.entry(sup)) ||
                     (hit == PackageCache::npos &&
                      !cache_.entry(sup).mergedFrom.empty()))) {
                    hit = sup;
                    ++stats_.subsumptionHits;
                }
            }
            // Saturated-server absorption: a still-unmatched detection
            // that merely *overlaps* a resident entry retiring at least
            // mergeDivertRetireFraction of the quantum is served by it.
            // The entry is demonstrably covering the program's hot
            // paths right now; what the detector reported is a
            // fragment-sized slice of the working set the server
            // already owns (flips included — a variant the bundle
            // covers this well is not frozen coverage, it is the mixed
            // profile working). Building a rival would trample the
            // server's launch arcs with a narrower bundle, and a union
            // rebuild would displace it for a near-identical record;
            // both lose live coverage. The same quality bar gates the
            // hit-divert below, so a fading server (the parser freeze)
            // still reaches the coalescing paths.
            if (hit == PackageCache::npos) {
                for (std::size_t i = 0; i < cache_.size(); ++i) {
                    const CacheEntry &e = cache_.entry(i);
                    if (!e.resident || e.bundle.empty())
                        continue;
                    const double served =
                        static_cast<double>(e.lastDeltaRetires) /
                        static_cast<double>(cfg_.quantumInsts);
                    if (served >= cfg_.mergeDivertRetireFraction &&
                        hsd::hotSpotOverlap(e.bundle.record, rec,
                                            cfg_.vp.filter) >=
                            cfg_.mergeOverlapFraction) {
                        hit = i;
                        ++stats_.absorbedDetections;
                        break;
                    }
                }
            }
        }
        // A loose hit whose record *flips biases* against the entry is
        // not a re-detection to absorb: the entry packaged the other
        // direction of those branches, so serving this variant from it
        // freezes coverage at the first variant's paths forever — the
        // shared skeleton keeps the wrong bundle just active enough that
        // the cold-bundle safety net below never fires. Divert it into
        // the coalescing path instead: unionRecords() sums both
        // variants' counts, the flipped branches land unbiased, and the
        // merged bundle packages both directions. A hit that merely
        // wobbles the working set *without* flipping (a branch
        // appearing or dropping at the record's edge) is served as-is —
        // rebuilding on wobble is exactly the churn the loose match
        // exists to absorb.
        bool merge_hit = false;
        if (cfg_.mergeOverlapping && hit != PackageCache::npos) {
            const CacheEntry &e = cache_.entry(hit);
            const double served =
                static_cast<double>(e.lastDeltaRetires) /
                static_cast<double>(cfg_.quantumInsts);
            // Only intercept hits the serve block below would absorb
            // (dormant revival or an active entry). A resident-but-cold
            // hit is already falling through to the stale rebuild, whose
            // record widening handles a phase handover better than a
            // union would — the fading entry's paths are history, not a
            // variant to keep packaged.
            merge_hit =
                !e.bundle.empty() &&
                (!e.resident || activeNow(e)) &&
                served < cfg_.mergeDivertRetireFraction &&
                hsd::biasFlips(e.bundle.record, rec, cfg_.vp.filter) > 0 &&
                hsd::hotSpotOverlap(e.bundle.record, rec, cfg_.vp.filter) >=
                    cfg_.mergeOverlapFraction;
        }
        if (hit != PackageCache::npos && !merge_hit) {
            CacheEntry &e = cache_.entry(hit);
            if (!e.resident || e.bundle.empty() || activeNow(e)) {
                ++stats_.cacheHits;
                cache_.touch(hit, quantum_);
                ++stats_.bundles[e.bundleIndex].cacheHits;
                // A dormant phase just turned hot again: re-splice it
                // (the cached bundle makes the rebuild unnecessary).
                if (!e.resident && !e.bundle.empty() &&
                    std::find(pendingActivations_.begin(),
                              pendingActivations_.end(),
                              e.id) == pendingActivations_.end()) {
                    pendingActivations_.push_back(e.id);
                }
                // A hit on a tier-0 bundle is a promotion trigger, not a
                // steady state: the phase still owes a full build. If
                // none is in flight (it failed, was dropped, or its
                // quarantine just expired) and none is already cached
                // awaiting a deferred promotion, resubmit the tier-1 job.
                if (cfg_.tiering && e.bundle.tier == 0 &&
                    !inFlight(rec, 1) &&
                    twinOf(rec, 1) == PackageCache::npos) {
                    ++stats_.promotionRebuilds;
                    submitJob(rec, 1, {});
                }
                continue;
            }
            // Resident but cold: its packages are not covering the hot
            // set that just fired. Fall through and rebuild — the fresh
            // bundle replaces it at completion.
            ++stats_.staleHits;
        }

        if (inFlight(rec)) {
            ++stats_.inFlightHits;
            continue;
        }

        // A stale-hit rebuild widens its record with the cold entry's
        // branches: the phase aliased back onto that entry, so branches
        // that served the previous window are still in its working set
        // even though this BBB snapshot missed them, and the union build
        // covers both windows where either narrow build leaves recurring
        // holes. Capped below twice the fresh size so the union still
        // matches future narrow snapshots of the phase under the
        // symmetric missing-fraction rule.
        hsd::HotSpotRecord build = rec;
        std::vector<std::uint64_t> merged_from;
        if (hit != PackageCache::npos && !merge_hit) {
            if (cfg_.mergeOverlapping) {
                // Sum-widening: the cold entry's counts fold into the
                // rebuild instead of being dropped for the fresh
                // snapshot's. A phase that oscillates between variants
                // faster than the detector samples defeats append-only
                // widening — every rebuild re-specializes to the last
                // snapshot's one-sided counts and covers next to nothing
                // — while the profile union walks the record toward the
                // phase's true mixed distribution, at which point the
                // bundle packages every variant's paths and the rebuild
                // cycle stops. At a genuine phase handover the overlap
                // is small, so the dying entry's counts barely perturb
                // the fresh record.
                merged_from.push_back(cache_.entry(hit).id);
                build = unionRecords(build, cache_.entry(hit).bundle.record);
                ++stats_.merges;
            } else {
                build = mergeRecords(std::move(build),
                                     cache_.entry(hit).bundle.record,
                                     2 * rec.branches.size() - 1);
            }
        } else if (cfg_.mergeOverlapping) {
            // This record either matched nothing, or loosely hit an
            // entry whose packaging contradicts it (merge_hit). Either
            // way the detector has been handing us *fragments* of one
            // logical phase: partial working-set slices split across
            // conflict-lossy BBB snapshots, or bias-flip variants of a
            // shared working set. Installing the fragment as its own
            // bundle would displace its siblings' launch arcs and
            // ping-pong forever; coalesce instead: synthesize one
            // bundle from the profile union of every entry sharing at
            // least mergeOverlapFraction of the smaller working set,
            // and retire the fragments once it passes the gate.
            for (std::size_t i = 0; i < cache_.size(); ++i) {
                const CacheEntry &e = cache_.entry(i);
                if (hsd::hotSpotOverlap(e.bundle.record, rec,
                                        cfg_.vp.filter) <
                    cfg_.mergeOverlapFraction) {
                    continue;
                }
                // An entry that already contains this record — same
                // branches, agreeing biases — is not a fragment to
                // coalesce: the union would add nothing the entry
                // lacks, and replacing it with an identical rebuild
                // only churns. The detection is a *subphase* of that
                // entry's working set and earns its own dedicated
                // bundle through the ordinary build below (a merged
                // containing entry never reaches here — findSuperset
                // served the detection above).
                if (hsd::subsumesHotSpot(e.bundle.record, rec, subsume_))
                    continue;
                merged_from.push_back(e.id);
                build = unionRecords(build, e.bundle.record);
            }
            if (!merged_from.empty()) {
                // The union may itself match a job already in flight
                // (a previous detection of another fragment coalesced to
                // the same union); don't submit a rival.
                if (inFlight(build)) {
                    ++stats_.inFlightHits;
                    continue;
                }
                ++stats_.merges;
            }
        }
        // Tiered: the fast bundle goes first so its (smaller) ready
        // quantum wins the completion order against its own tier-1 twin.
        // Both tiers carry the merge provenance — whichever installs
        // first may retire the fragments (the survivor of the twin race
        // inherits the job).
        if (cfg_.tiering)
            submitJob(build, 0, merged_from);
        submitJob(build, 1, merged_from);
    }
}

bool
RuntimeController::inFlight(const hsd::HotSpotRecord &rec,
                            std::optional<unsigned> tier) const
{
    return std::any_of(jobs_.begin(), jobs_.end(), [&](const Job &j) {
        return (!tier || j.tier == *tier) &&
               hsd::sameHotSpot(j.record, rec, cacheMatch_);
    });
}

void
RuntimeController::submitJob(const hsd::HotSpotRecord &rec, unsigned tier,
                             const std::vector<std::uint64_t> &merged_from)
{
    if (tier == 0)
        ++stats_.tier0Builds;
    else
        ++stats_.builds;

    Job job;
    job.record = rec;
    job.tier = tier;
    job.mergedFrom = merged_from;
    job.seq = nextJobSeq_++;
    job.submitQuantum = quantum_;
    // Per-tier deterministic latency model, a pure function of the
    // record: tier 0 costs its fixed budget alone (packaging + linking
    // has no optimization tail); tier 1 pays the base plus a term in the
    // record's size.
    std::uint64_t latency = tier == 0 ? cfg_.tier0CompileQuanta
                                      : cfg_.baseCompileQuanta;
    if (tier != 0 && cfg_.hotBranchesPerQuantum)
        latency += rec.branches.size() / cfg_.hotBranchesPerQuantum;
    if (inject_.fire(fault::Kind::SynthDelay))
        latency += 1 + inject_.draw(fault::Kind::SynthDelay, 4);
    job.readyQuantum = quantum_ + latency;
    job.result = std::make_shared<JobResult>();
    job.done = std::make_shared<std::atomic<bool>>(false);

    // The failure decision is drawn here, on the controller thread, so a
    // fixed seed fails the same jobs for every worker count.
    const bool inject_fail = inject_.fire(fault::Kind::SynthFail);

    // Fleet shared-synthesis memo: a job whose record was already built
    // anywhere in the fleet is served without running a worker. The
    // bundle is bit-identical to what the worker would have produced
    // (synthesis is pure in the record), and it still installs at the
    // same readyQuantum computed above, so results cannot change. An
    // injected failure skips the lookup — the fault must fire exactly as
    // it would standalone, not be masked by another tenant's success.
    std::shared_ptr<const PackageBundle> cached;
    if (synthCache_ && !inject_fail)
        cached = synthCache_->lookup(rec, tier);
    if (cached) {
        job.result->bundle = *cached;
        // Re-anchor the detection-specific fields (detectedAtBranch,
        // truePhase) to *this* detection; trySynthesizeBundle stores the
        // input record verbatim, so the rest is already identical.
        job.result->bundle.record = rec;
        job.fromSharedCache = true;
        job.done->store(true, std::memory_order_release);
        ++stats_.sharedCacheHits;
    } else {
        ++stats_.synthJobsExecuted;
        pool_.submit([result = job.result, done = job.done, record = rec,
                      pristine = &pristine_, vcfg = cfg_.vp, inject_fail,
                      tier]() {
            if (inject_fail) {
                result->status = Status::error("injected synthesis fault");
            } else {
                try {
                    Expected<PackageBundle> b =
                        trySynthesizeBundle(*pristine, record, vcfg, tier);
                    if (b)
                        result->bundle = std::move(b.value());
                    else
                        result->status = b.status();
                } catch (const std::exception &e) {
                    result->status = Status::error(
                        std::string("synthesis threw: ") + e.what());
                } catch (...) {
                    result->status =
                        Status::error("synthesis threw a non-std exception");
                }
            }
            done->store(true, std::memory_order_release);
        });
    }

    jobs_.push_back(std::move(job));
}

void
RuntimeController::completeReadyJobs()
{
    // Completion order is (readyQuantum, submission sequence) — still a
    // pure function of the detection sequence, but a tier-0 fast job is
    // never held back behind an earlier-submitted, slower tier-1 build.
    while (!jobs_.empty()) {
        const auto best = std::min_element(
            jobs_.begin(), jobs_.end(), [](const Job &a, const Job &b) {
                return std::tie(a.readyQuantum, a.seq) <
                       std::tie(b.readyQuantum, b.seq);
            });
        if (best->readyQuantum > quantum_)
            break;
        Job job = std::move(*best);
        jobs_.erase(best);
        if (!job.done->load(std::memory_order_acquire))
            pool_.wait(); // wall-clock catch-up; results already fixed
        completeJob(job);
    }
}

void
RuntimeController::completeJob(const Job &job)
{
    if (!job.result->status.isOk()) {
        // Synthesis failed (malformed artifact, worker exception, or an
        // injected fault): skip the phase and quarantine it. Original
        // code keeps running — degradation costs coverage, never uptime.
        vp_warn("synthesis failed, phase quarantined: ",
                job.result->status.message());
        ++stats_.failedBuilds;
        cache_.quarantine(job.record, quantum_, cfg_.quarantineBaseQuanta,
                          cfg_.quarantineMaxQuanta);
        ++stats_.quarantines;
        return;
    }

    // Publish every successful build to the fleet memo before any
    // tenant-local admission decision: the install gate runs per tenant
    // at activation, so a bundle this tenant ends up rejecting or
    // quarantining is still a valid synthesis product for the next
    // consumer (which re-judges it). Empty bundles are published too —
    // a warm tenant then skips even the no-op build.
    if (synthCache_) {
        synthCache_->publish(job.record, job.tier, job.result->bundle,
                             !job.mergedFrom.empty());
        ++stats_.sharedCachePublishes;
    }

    // Quarantine first: a phase that offended while this job compiled
    // (watchdog deopt, gate reject) must not re-enter through the build
    // pipeline. The bundle is dropped — not cached dormant — so the
    // phase's eventual return goes through a fresh, post-backoff build.
    if (cache_.quarantined(job.record, quantum_)) {
        ++stats_.quarantineBlockedInstalls;
        return;
    }

    const PackageBundle &bundle = job.result->bundle;
    if (bundle.empty())
        ++stats_.emptyBuilds; // cached anyway: re-detections hit, not rebuild
    const std::size_t twin = cache_.find(bundle.record);
    if (twin == PackageCache::npos && cfg_.mergeOverlapping &&
        cache_.findSuperset(bundle.record) != PackageCache::npos) {
        // A straggler fragment build: while this job compiled, a merged
        // bundle subsuming its record entered the cache (and has already
        // retired — or will retire — this job's phase fragments).
        // Installing the fragment now would carve its launch arcs back
        // out of the merged bundle; drop it. Re-detections of the
        // fragment are served by the superset entry via subsumption.
        ++stats_.duplicateBuilds;
        return;
    }
    if (twin != PackageCache::npos) {
        const CacheEntry &t = cache_.entry(twin);
        // A merged union loosely matches the very fragment it was built
        // to replace (same behavior ids; the union's balanced branches
        // count zero flips against anything), so the duplicate-drop
        // rules below would discard every coalesced bundle on arrival.
        // The phase key tells a true duplicate from a replacement: it
        // quantizes per-branch bias, so a union whose flipped branches
        // landed unbiased keys differently from the one-sided fragment
        // still serving, while a rival build of the same union keys
        // identically and is dropped as before.
        const bool same_phase =
            job.mergedFrom.empty() ||
            phaseKey(t.bundle.record, cfg_.vp.filter.biasHigh) ==
                phaseKey(bundle.record, cfg_.vp.filter.biasHigh);
        if (bundle.tier == 0 && t.bundle.tier >= 1 && activeNow(t) &&
            same_phase) {
            // Tier inversion (an injected delay let the full build land
            // first, or this rebuild raced a live twin): never displace
            // optimized code that is covering the quantum with its own
            // fast-install copy. A *stale* tier-1 twin gets no such
            // deference — it is the reason the rebuild was submitted,
            // and the fresh tier-0 takes over immediately below.
            ++stats_.duplicateBuilds;
            return;
        }
        if (bundle.tier >= 1 && t.bundle.tier == 0) {
            // Promotion pending. The tier-0 twin keeps serving until the
            // tier-1 passes the install gate (activate() retires it only
            // after verification), so a bad full build never costs the
            // healthy fast bundle. An empty pair (the packager found
            // nothing for either tier) collapses to the tier-1 record.
            if (bundle.empty())
                retire(twin, Retire::Superseded);
        } else if (activeNow(t) && same_phase) {
            // The job was submitted through a stale hit (or the matching
            // entry appeared while it compiled). The twin turned active
            // again, so its coverage is adequate — drop the rebuild.
            ++stats_.duplicateBuilds;
            return;
        } else {
            // Same-tier replacement: the fresh bundle displaces the
            // stale twin outright. When the twin is a source fragment of
            // this merged build, its removal is the coalescing's
            // fragment retirement, not a sibling displacement — the
            // merged bundle replaces it by construction.
            const bool fragment =
                std::find(job.mergedFrom.begin(), job.mergedFrom.end(),
                          t.id) != job.mergedFrom.end();
            retire(twin, fragment ? Retire::Absorbed : Retire::Superseded);
        }
    }

    BundleStats bs;
    bs.key = bundle.key;
    bs.tier = bundle.tier;
    bs.merged = !job.mergedFrom.empty();
    bs.packages = bundle.packaged.packages.size();
    bs.weight = bundle.weight();
    bs.submittedQuantum = job.submitQuantum;
    stats_.bundles.push_back(bs);

    CacheEntry e;
    e.bundle = job.result->bundle;
    e.mergedFrom = job.mergedFrom;
    e.fromSharedCache = job.fromSharedCache;
    e.lastUsedQuantum = quantum_;
    e.bundleIndex = stats_.bundles.size() - 1;
    const std::size_t idx = cache_.add(std::move(e));
    if (!bundle.empty())
        pendingActivations_.push_back(cache_.entry(idx).id);
}

void
RuntimeController::processActivations()
{
    // Snapshot first: activate() re-queues deferred reinstalls onto
    // pendingActivations_, and those must wait for the next boundary
    // rather than spin inside this one.
    std::deque<std::uint64_t> batch;
    batch.swap(pendingActivations_);
    for (std::uint64_t id : batch)
        activate(id);
}

void
RuntimeController::activate(std::uint64_t entry_id)
{
    std::size_t idx = cache_.findById(entry_id);
    if (idx == PackageCache::npos)
        return; // evicted while queued
    if (cache_.entry(idx).resident)
        return;
    const hsd::HotSpotRecord rec = cache_.entry(idx).bundle.record;

    // Quarantine first, before anything is spliced: the phase may have
    // offended after this activation was queued (a same-boundary
    // watchdog deopt or gate reject). The entry stays dormant; a
    // detection after the backoff expires re-queues it.
    if (cache_.quarantined(rec, quantum_)) {
        ++stats_.quarantineBlockedInstalls;
        return;
    }

    // A dormant fragment whose working set a resident merged bundle now
    // covers has nothing left to serve: activating it would carve its
    // launch arcs back out of the bundle that replaced it, and deferring
    // it (the reinstall-yield below) would leave a phantom revival
    // looping in the queue. Retire it instead — this is the merge
    // absorbing its fragment, not a displacement. Entries that match the
    // loose cache predicate are exempt: a tier-1 activating beside its
    // resident tier-0 twin (identical records, mutually subsuming) must
    // reach the promotion path below, not die here.
    if (cfg_.mergeOverlapping) {
        for (std::size_t j = 0; j < cache_.size(); ++j) {
            const CacheEntry &o = cache_.entry(j);
            if (j == idx || !o.resident || o.mergedFrom.empty() ||
                o.bundle.record.branches.size() < rec.branches.size() ||
                !hsd::subsumesHotSpot(o.bundle.record, rec, subsume_) ||
                hsd::sameHotSpot(o.bundle.record, rec, cacheMatch_)) {
                continue;
            }
            retire(idx, Retire::Absorbed);
            return;
        }
    }

    // A *reinstall* yields to a saturated owner of its launch arcs:
    // dormant entries are revived by loose record matches, and when the
    // bundle owning the contended arcs covered essentially the whole
    // previous quantum, the detection was an alias of the phase that
    // owner is already serving at the coverage ceiling — displacing it
    // can only lose unless the challenger has proven it can serve a
    // full quantum itself (bestDeltaRetires at the bar): phase-boundary
    // ping-pong between two proven bundles is legitimate, but a bundle
    // that never covered anything while resident is an aliasing artifact
    // and must not unseat a saturated server. An unproven challenger is
    // re-queued and only proceeds once the owner has been below the bar
    // for two consecutive quanta — a one-quantum hiccup of a proven
    // server does not trip the pending revival, while a genuine fade
    // releases it within two boundaries. A partial owner never blocks:
    // the incoming bundle is the better evidence then.
    const std::uint64_t saturated = cfg_.quantumInsts * 19 / 20;
    if (stats_.bundles[cache_.entry(idx).bundleIndex].installedQuantum !=
            BundleStats::kNever &&
        cache_.entry(idx).bestDeltaRetires < saturated) {
        const std::vector<Patch> wants =
            patcher_.launchPointsOf(cache_.entry(idx).bundle);
        const bool blocked =
            std::any_of(wants.begin(), wants.end(), [&](const Patch &p) {
                const std::size_t o = arcOwner(p);
                return o != PackageCache::npos &&
                       std::max(cache_.entry(o).lastDeltaRetires,
                                cache_.entry(o).prevDeltaRetires) >=
                           saturated;
            });
        if (blocked) {
            ++stats_.deferredReinstalls;
            pendingActivations_.push_back(entry_id);
            return;
        }
    }

    // Promotion waits for the engine to leave the fast bundle: vacuum
    // packing keeps whole phase loops inside a package, so unpatching a
    // tier-0 clone the engine currently occupies would strand execution
    // in an unaccounted zombie for the rest of the occurrence — the
    // fresh tier-1 would sit resident-but-cold and read as stale. While
    // the engine is inside, the tier-0 stays resident (serving, active);
    // the tier-1 re-queues each boundary, before the install gate so a
    // long wait draws no extra verifier verdicts, and promotes at the
    // first boundary that finds the engine outside.
    const bool promoting = cfg_.tiering && cache_.entry(idx).bundle.tier >= 1;
    bool twin_resident = false;
    for (std::size_t j = promoting ? twinOf(rec, 0) : PackageCache::npos;
         j != PackageCache::npos; j = twinOf(rec, 0, j + 1)) {
        const CacheEntry &o = cache_.entry(j);
        if (o.resident && engineReferences(o.installed.funcs)) {
            ++stats_.promotionDeferrals;
            pendingActivations_.push_back(entry_id);
            return;
        }
        twin_resident = twin_resident || o.resident;
    }

    // Install gate: no bundle reaches the LivePatcher without passing
    // structural admission. Injected verdict flips are fail-safe — they
    // only ever turn an accept into a (spurious) reject, so a genuinely
    // malformed bundle can never be waved through.
    if (cfg_.verifyBeforeInstall) {
        Status gate = verifier_.verify(cache_.entry(idx).bundle);
        bool injected = false;
        if (gate.isOk() && inject_.fire(fault::Kind::VerifyFlip)) {
            gate = Status::error("injected verifier flip");
            injected = true;
        }
        if (!gate) {
            if (!injected)
                vp_warn("install gate: ", gate.message());
            // A rejected tier-1 never touches its tier-0 twin — the
            // healthy fast bundle keeps serving the phase through the
            // quarantine that follows.
            if (twin_resident)
                ++stats_.promotionGateRejects;
            // A shared-cache bundle the gate rejected is poisoned for
            // every consumer (the gate is deterministic in the bundle);
            // an injected flip taints too — conservative, the copy is
            // merely re-synthesized elsewhere.
            retire(idx, Retire::GateReject);
            return;
        }
    }

    // The gate passed: a tier-1 install is now committed, so retire any
    // tier-0 twin through the lazy-deopt path before computing launch-arc
    // owners (the twin holds exactly those arcs; this is a promotion, not
    // a displacement). Removal shifts the scan's tail down onto j.
    for (std::size_t j = promoting ? twinOf(rec, 0) : PackageCache::npos;
         j != PackageCache::npos; j = twinOf(rec, 0, j))
        retire(j, Retire::Promoted, entry_id);

    // A merged bundle past the gate retires the fragments it coalesced,
    // before launch-arc owners are computed: the fragments hold exactly
    // the arcs the merged bundle is about to claim, and retiring them
    // here (merge absorption, with usage inheritance) keeps them out of
    // the displacement count below. Ordering with promotion: tier-0
    // twins go first — a merged tier-1 retires its own fast twin as a
    // promotion, then the phase's fragments as a merge. Ids are never
    // reused, so a fragment evicted or displaced since the merge was
    // submitted resolves to npos and is skipped (its record is already
    // inside the merged bundle's; nothing is lost).
    const std::vector<std::uint64_t> frags =
        cache_.entry(cache_.findById(entry_id)).mergedFrom;
    for (std::uint64_t id : frags) {
        const std::size_t i = cache_.findById(id);
        if (i != PackageCache::npos)
            retire(i, Retire::Absorbed, entry_id);
    }
    idx = cache_.findById(entry_id);
    vp_assert(idx != PackageCache::npos,
              "installing entry lost during twin/fragment retirement");

    // The bundle being activated is the freshest evidence of what is hot
    // right now: it displaces whatever resident bundle holds its launch
    // arcs. (Near-variant wobble does not reach this point — the loose
    // cache match absorbs it as a hit on the active bundle.)
    const std::vector<Patch> wants =
        patcher_.launchPointsOf(cache_.entry(idx).bundle);
    std::vector<std::size_t> owners;
    for (const Patch &p : wants) {
        const std::size_t o = arcOwner(p);
        if (o != PackageCache::npos &&
            std::find(owners.begin(), owners.end(), o) == owners.end())
            owners.push_back(o);
    }
    // A displaced victim goes dormant, but its branch history must not
    // go with it when the winner already covers the victim's working
    // set: the victim's record is proven evidence for the arcs the
    // winner is taking over, and dropping its few extra branches means
    // the next window that touches them re-detects the phase as "new"
    // and churns. Widen the winner's record with such a victim's — the
    // same union a stale-hit rebuild applies — under the same below-2x
    // cap so the widened record still matches narrow re-detections.
    // Gated on strict subsumption, not mere overlap: the widened record
    // describes a bundle that was built *without* the victim's view, so
    // inheritance is only safe when the winner's packages already serve
    // nearly all of it. A genuinely different sibling phase displaced
    // off shared dispatcher arcs must NOT leak its branches into the
    // winner's identity, or later detections of the sibling alias onto
    // the winner and its own bundle goes cold. Displaced victims stay in
    // the cache (dormant), so the owner indices hold through the loop.
    hsd::HotSpotRecord &won = cache_.entry(idx).bundle.record;
    const std::size_t cap = 2 * won.branches.size() - 1;
    for (std::size_t j : owners) {
        const hsd::HotSpotRecord &victim = cache_.entry(j).bundle.record;
        if (hsd::subsumesHotSpot(won, victim, cfg_.vp.filter))
            won = mergeRecords(std::move(won), victim, cap);
        retire(j, Retire::Displaced);
    }

    cache_.setResident(idx, patcher_.install(cache_.entry(idx).bundle));
    if (cfg_.verifyAfterPatch) {
        if (Status st = ir::verifyProgram(live_, "runtime install"); !st) {
            // The splice broke the live program: roll it back through
            // the undo log, quarantine the phase, keep running on
            // original code.
            vp_warn("install rolled back: ", st.message());
            retire(idx, Retire::RolledBack);
            return;
        }
    }
    CacheEntry &e = cache_.entry(idx);
    e.coldQuanta = 0;
    e.provedHealthy = false;
    e.lastInstalledQuantum = quantum_;
    e.allFuncs.insert(e.allFuncs.end(), e.installed.funcs.begin(),
                      e.installed.funcs.end());
    cache_.touch(idx, quantum_);

    BundleStats &bs = stats_.bundles[e.bundleIndex];
    bs.weight = e.installed.weight;
    bs.launchPoints = e.installed.launchPoints;
    bs.contendedLaunchPoints = e.installed.contendedLaunchPoints;
    const unsigned tier_idx = e.bundle.tier == 0 ? 0u : 1u;
    if (stats_.firstInstallQuantum[tier_idx] == BundleStats::kNever)
        stats_.firstInstallQuantum[tier_idx] = quantum_;
    if (bs.installedQuantum == BundleStats::kNever) {
        bs.installedQuantum = quantum_;
        ++stats_.installs;
        if (e.bundle.tier == 0) {
            ++stats_.tier0Installs;
        } else {
            // Queue latency is a tier-1 metric: tier-0 exists precisely
            // to make the wait invisible, so averaging it in would hide
            // the cost being measured.
            stats_.compileLatencyQuanta += quantum_ - bs.submittedQuantum;
        }
    } else {
        ++bs.reinstalls;
        ++stats_.reinstalls;
    }
}

void
RuntimeController::evictOverCapacity()
{
    while (cache_.overCapacity()) {
        // Entries (re)installed this very quantum get a one-boundary
        // grace so an install is not undone by the eviction scan that
        // immediately follows it.
        const auto grace = [&](const CacheEntry &e) {
            return e.lastInstalledQuantum == quantum_;
        };
        const std::size_t v = cache_.victim(grace);
        if (v == PackageCache::npos) {
            ++stats_.deferredEvictions;
            break;
        }
        retire(v, Retire::Evicted);
        if (cfg_.verifyAfterPatch) {
            if (Status st = ir::verifyProgram(live_, "runtime evict");
                !st) {
                vp_warn(st.message());
                ++stats_.liveVerifyFailures;
            }
        }
    }
}

void
RuntimeController::retire(std::size_t idx, Retire why,
                          std::optional<std::uint64_t> heir)
{
    const RetireRule &rule = kRetireRules[static_cast<std::size_t>(why)];
    CacheEntry &e = cache_.entry(idx);
    BundleStats &bs = stats_.bundles[e.bundleIndex];
    if (e.resident) {
        patcher_.unpatch(e.installed);
        if (rule.steps & kZombie) {
            // Arcs are restored now; the clones are tombstoned once the
            // engine has drained out of them (lazy deopt).
            if (engineReferences(e.installed.funcs))
                ++stats_.lazyDeopts;
            zombies_.push_back(e.installed.funcs);
        }
    }
    if (e.resident || !(rule.steps & kResidentOnly))
        ++(stats_.*rule.counter);
    if (rule.steps & kEvicted)
        bs.evictedQuantum = quantum_;
    if (rule.steps & kPromoted)
        bs.promotedQuantum = quantum_;
    if (rule.steps & kRejected)
        bs.rejected = true;
    if (rule.steps & kDeopted)
        ++bs.watchdogDeopts;
    if (rule.steps & kOffense) {
        cache_.quarantine(e.bundle.record, quantum_,
                          cfg_.quarantineBaseQuanta,
                          cfg_.quarantineMaxQuanta);
        ++stats_.quarantines;
        // A misbehaving bundle the fleet's shared cache served poisons
        // the shared copy: report it so the fleet evicts and embargoes it.
        if (synthCache_ && e.fromSharedCache) {
            synthCache_->taint(e.bundle.record, e.bundle.tier);
            ++stats_.sharedCacheTaints;
        }
    }
    if (rule.steps & kDormant) {
        cache_.clearResident(idx);
        return;
    }

    const CacheEntry gone = cache_.remove(idx);
    const std::size_t h =
        (rule.steps & kInherit) && heir ? cache_.findById(*heir)
                                   : PackageCache::npos;
    if (h != PackageCache::npos) {
        CacheEntry &self = cache_.entry(h);
        self.allFuncs.insert(self.allFuncs.end(), gone.allFuncs.begin(),
                             gone.allFuncs.end());
        self.usageBias +=
            gone.usageBias + stats_.bundles[gone.bundleIndex].instsRetired;
    }
}

void
RuntimeController::unpatchResidents()
{
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        if (cache_.entry(i).resident)
            patcher_.unpatch(cache_.entry(i).installed);
    }
}

std::size_t
RuntimeController::twinOf(const hsd::HotSpotRecord &rec, unsigned tier,
                          std::size_t from) const
{
    for (std::size_t i = from; i < cache_.size(); ++i) {
        const CacheEntry &c = cache_.entry(i);
        if ((c.bundle.tier == 0) == (tier == 0) &&
            hsd::sameHotSpot(c.bundle.record, rec, cacheMatch_))
            return i;
    }
    return PackageCache::npos;
}

std::size_t
RuntimeController::arcOwner(const Patch &p) const
{
    if (!patcher_.diverted(p))
        return PackageCache::npos;
    for (std::size_t i = 0; i < cache_.size(); ++i) {
        const CacheEntry &o = cache_.entry(i);
        if (o.resident &&
            std::any_of(o.installed.patches.begin(),
                        o.installed.patches.end(), [&](const Patch &op) {
                            return op.at == p.at && op.field == p.field;
                        }))
            return i;
    }
    return PackageCache::npos;
}

bool
RuntimeController::engineReferences(const std::vector<ir::FuncId> &funcs) const
{
    return std::any_of(funcs.begin(), funcs.end(), [&](ir::FuncId f) {
        return engine_.referencesFunction(f);
    });
}

bool
RuntimeController::activeNow(const CacheEntry &e) const
{
    return e.resident &&
           static_cast<double>(e.lastDeltaRetires) >=
               cfg_.activeRetireFraction *
                   static_cast<double>(cfg_.quantumInsts);
}

} // namespace vp::runtime
