/**
 * @file
 * Fault-injection tests for the guarded online runtime: the spec parser,
 * graceful degradation under injected faults (the run completes and the
 * logical instruction stream never diverges from the unpatched program),
 * determinism of the injected fault sequence across worker counts, and
 * the thread pool's log-and-count handling of task errors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hsd/filter.hh"
#include "ir/instruction.hh"
#include "ir/verify.hh"
#include "runtime/bundle.hh"
#include "runtime/controller.hh"
#include "runtime/stats.hh"
#include "runtime/synth_cache.hh"
#include "support/fault.hh"
#include "support/thread_pool.hh"
#include "trace/engine.hh"
#include "vp/pipeline.hh"
#include "workload/benchmarks.hh"

namespace
{

using namespace vp;
using namespace vp::runtime;

TEST(FaultConfig, ParsesBareRate)
{
    const Expected<fault::FaultConfig> fc =
        fault::FaultConfig::parse("0.25", 7);
    ASSERT_TRUE(fc.isOk()) << fc.status().message();
    for (std::size_t k = 0; k < fault::kNumKinds; ++k)
        EXPECT_DOUBLE_EQ(fc.value().rate[k], 0.25);
    EXPECT_EQ(fc.value().seed, 7u);
    EXPECT_TRUE(fc.value().enabled());
}

TEST(FaultConfig, ParsesKindList)
{
    const Expected<fault::FaultConfig> fc =
        fault::FaultConfig::parse("drop=0.1,synth-fail=0.5,verify-flip=1",
                                  0);
    ASSERT_TRUE(fc.isOk()) << fc.status().message();
    const fault::FaultConfig &c = fc.value();
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::DropBranch), 0.1);
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::SynthFail), 0.5);
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::VerifyFlip), 1.0);
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::Saturate), 0.0);
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::Alias), 0.0);
    EXPECT_DOUBLE_EQ(c.rateOf(fault::Kind::SynthDelay), 0.0);
}

TEST(FaultConfig, ParsesAllKeyword)
{
    const Expected<fault::FaultConfig> fc =
        fault::FaultConfig::parse("all=0.3", 1);
    ASSERT_TRUE(fc.isOk()) << fc.status().message();
    for (std::size_t k = 0; k < fault::kNumKinds; ++k)
        EXPECT_DOUBLE_EQ(fc.value().rate[k], 0.3);
}

TEST(FaultConfig, RejectsBadSpecs)
{
    EXPECT_FALSE(fault::FaultConfig::parse("", 0).isOk());
    EXPECT_FALSE(fault::FaultConfig::parse("1.5", 0).isOk());
    EXPECT_FALSE(fault::FaultConfig::parse("drop=-0.1", 0).isOk());
    EXPECT_FALSE(fault::FaultConfig::parse("typo=0.1", 0).isOk());
    EXPECT_FALSE(fault::FaultConfig::parse("drop=", 0).isOk());
    EXPECT_FALSE(fault::FaultConfig::parse("drop=0.1,,", 0).isOk());
}

TEST(FaultConfig, ParsesFleetKinds)
{
    const Expected<fault::FaultConfig> fc = fault::FaultConfig::parse(
        "tenant-crash=0.2,store-poison=0.1,torn-write=0.3", 3);
    ASSERT_TRUE(fc.isOk()) << fc.status().message();
    EXPECT_DOUBLE_EQ(fc.value().rateOf(fault::Kind::TenantCrash), 0.2);
    EXPECT_DOUBLE_EQ(fc.value().rateOf(fault::Kind::StorePoison), 0.1);
    EXPECT_DOUBLE_EQ(fc.value().rateOf(fault::Kind::TornWrite), 0.3);
    EXPECT_DOUBLE_EQ(fc.value().rateOf(fault::Kind::DropBranch), 0.0);
    EXPECT_TRUE(fc.value().enabled());
}

// ---------------------------------------------------------------------
// Quarantine backoff boundaries

/** A small self-matching phase record for quarantine bookkeeping. */
hsd::HotSpotRecord
quarantinePhase()
{
    hsd::HotSpotRecord rec;
    for (std::uint32_t i = 0; i < 4; ++i) {
        hsd::HotBranch hb;
        hb.behavior = 100 + i;
        hb.exec = 400;
        hb.taken = (i % 2) ? 390 : 10;
        rec.branches.push_back(hb);
    }
    return rec;
}

TEST(PackageCacheQuarantine, BackoffExpiresAtExactQuantum)
{
    PackageCache cache(0, hsd::FilterConfig{});
    const hsd::HotSpotRecord rec = quarantinePhase();
    EXPECT_FALSE(cache.quarantined(rec, 0));

    // First offense at quantum 10 charges min(16 << 0, 1024) = 16:
    // blocked through quantum 25, free again at exactly 26.
    EXPECT_EQ(cache.quarantine(rec, 10, 16, 1024), 1u);
    EXPECT_TRUE(cache.quarantined(rec, 10));
    EXPECT_TRUE(cache.quarantined(rec, 25));
    EXPECT_FALSE(cache.quarantined(rec, 26));

    // Expiry keeps the offense history: the second offense doubles the
    // charge (32 quanta from its own clock).
    EXPECT_EQ(cache.quarantine(rec, 30, 16, 1024), 2u);
    EXPECT_TRUE(cache.quarantined(rec, 61));
    EXPECT_FALSE(cache.quarantined(rec, 62));
    EXPECT_EQ(cache.quarantineCount(), 1u);
}

TEST(PackageCacheQuarantine, BackoffSaturatesAtCap)
{
    PackageCache cache(0, hsd::FilterConfig{});
    const hsd::HotSpotRecord rec = quarantinePhase();

    // Drive the doubling past the cap; the deadline pins at q + cap.
    for (int i = 0; i < 12; ++i)
        cache.quarantine(rec, 0, 16, 1024);
    EXPECT_TRUE(cache.quarantined(rec, 1023));
    EXPECT_FALSE(cache.quarantined(rec, 1024));

    // A later relapse still charges exactly the cap, never more.
    cache.quarantine(rec, 5000, 16, 1024);
    EXPECT_TRUE(cache.quarantined(rec, 5000 + 1023));
    EXPECT_FALSE(cache.quarantined(rec, 5000 + 1024));
}

TEST(PackageCacheQuarantine, SeededStateSurvivesRestart)
{
    PackageCache first(0, hsd::FilterConfig{});
    const hsd::HotSpotRecord rec = quarantinePhase();
    first.quarantine(rec, 10, 16, 1024); // until 26
    first.quarantine(rec, 20, 16, 1024); // until 52, offenses 2

    // Supervisor restart: the snapshot seeds a fresh incarnation whose
    // clock restarts at 0 while deadlines stay in the donor's clock —
    // deliberately conservative, the evidence does not reset just
    // because the process did.
    PackageCache second(0, hsd::FilterConfig{});
    second.seedQuarantine(first.quarantineEntries());
    EXPECT_EQ(second.quarantineCount(), 1u);
    EXPECT_TRUE(second.quarantined(rec, 0));
    EXPECT_TRUE(second.quarantined(rec, 51));
    EXPECT_FALSE(second.quarantined(rec, 52));

    // Offense history carried across the restart: the next offense is
    // the third, charging min(16 << 2, 1024) = 64 quanta.
    EXPECT_EQ(second.quarantine(rec, 60, 16, 1024), 3u);
    EXPECT_TRUE(second.quarantined(rec, 123));
    EXPECT_FALSE(second.quarantined(rec, 124));
}

TEST(FaultInjector, CounterStreamsAreSeedStable)
{
    fault::FaultConfig cfg;
    cfg.rate.fill(0.5);
    cfg.seed = 42;
    fault::FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 200; ++i) {
        const auto k = static_cast<fault::Kind>(i % fault::kNumKinds);
        EXPECT_EQ(a.fire(k), b.fire(k));
        EXPECT_EQ(a.draw(k, 17), b.draw(k, 17));
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
}

/** Records the logical branch trace: (behavior id, logical direction)
 *  per retired CondBr. The logical direction XORs out invertSense, so a
 *  relayouted package copy of a branch records the same event as the
 *  original — the trace is an observable program result that packaging
 *  must preserve. */
struct BranchTraceSink : trace::InstSink
{
    std::vector<std::pair<std::uint32_t, bool>> trace;

    void
    onRetire(const trace::RetiredInst &ri) override
    {
        if (ri.inst->op == ir::Opcode::CondBr)
            trace.emplace_back(ri.inst->behavior,
                               ri.branchTaken ^ ri.inst->invertSense);
    }
};

RuntimeConfig
faultedConfig(double rate, std::uint64_t seed)
{
    RuntimeConfig cfg;
    cfg.vp = VpConfig::variant(true, true);
    cfg.budget = 400'000;
    const Expected<fault::FaultConfig> fc =
        fault::FaultConfig::parse(std::to_string(rate), seed);
    EXPECT_TRUE(fc.isOk());
    cfg.fault = fc.value();
    cfg.watchdog = true;
    return cfg;
}

/** Degradation invariant at @p rate: the run completes without aborting
 *  and its logical branch trace is a prefix-match of the unpatched
 *  program's — faults cost coverage, never correctness. Runs tiered by
 *  default; @p tiering false seeds the same faults through the
 *  single-tier pipeline. */
void
checkGracefulDegradation(double rate, bool tiering = true)
{
    workload::Workload w = workload::makeMcf("A");

    // Reference: the pristine program, no packaging at all.
    BranchTraceSink ref;
    {
        trace::ExecutionEngine eng(w.program, w);
        eng.addSink(&ref);
        eng.run(2'000'000); // past any packaged run's logical reach
    }
    ASSERT_GT(ref.trace.size(), 0u);

    BranchTraceSink got;
    RuntimeConfig cfg = faultedConfig(rate, 7);
    cfg.tiering = tiering;
    RuntimeController controller(w, cfg);
    controller.addSink(&got);
    const RuntimeStats s = controller.run();

    EXPECT_GT(s.quanta, 0u);
    EXPECT_GT(got.trace.size(), 0u);
    ASSERT_LE(got.trace.size(), ref.trace.size());
    // Find the first divergence (if any) for a readable failure.
    for (std::size_t i = 0; i < got.trace.size(); ++i) {
        ASSERT_EQ(got.trace[i], ref.trace[i])
            << "logical branch " << i << " diverged at fault rate "
            << rate;
    }

    // A gate rejection removes the bundle from the cache (a reinstall
    // attempt can be rejected after an earlier successful install, so
    // the quarantined bundle must merely end up not resident).
    for (const BundleStats &b : s.bundles) {
        if (b.rejected) {
            EXPECT_TRUE(b.evicted());
            EXPECT_FALSE(b.residentAtEnd);
        }
    }
}

TEST(FaultRuntime, GracefulDegradationAtTenPercent)
{
    checkGracefulDegradation(0.1);
}

TEST(FaultRuntime, GracefulDegradationAtFiftyPercent)
{
    checkGracefulDegradation(0.5);
}

TEST(FaultRuntime, GracefulDegradationUntiered)
{
    checkGracefulDegradation(0.5, /*tiering=*/false);
}

TEST(FaultRuntime, PromotionGateRejectKeepsTierZeroServing)
{
    // Corrupt only the install gate's verdict. When a flipped verdict
    // hits a tier-1 promotion whose tier-0 twin is healthy and
    // resident, the controller must reject the tier-1 bundle *without*
    // deopting the twin (counted as promotionGateRejects) — the phase
    // keeps being served by fast-install code rather than falling back
    // to nothing.
    std::size_t gate_rejects = 0;
    for (std::uint64_t seed = 1; seed <= 8 && !gate_rejects; ++seed) {
        // go A has a dozen promotions per run, so a flipped verdict is
        // all but certain to land on a tier-1 with a live twin.
        workload::Workload w = workload::makeGo("A");
        RuntimeConfig cfg;
        cfg.vp = VpConfig::variant(true, true);
        const Expected<fault::FaultConfig> fc =
            fault::FaultConfig::parse("verify-flip=0.5", seed);
        ASSERT_TRUE(fc.isOk());
        cfg.fault = fc.value();
        RuntimeController controller(w, cfg);
        const RuntimeStats s = controller.run();
        gate_rejects += s.promotionGateRejects;
        if (s.promotionGateRejects) {
            EXPECT_GT(s.tier0Installs, 0u);
            // The kept twin really served: packaged code still retired.
            EXPECT_GT(s.packageCoverage(), 0.0);
            EXPECT_GT(s.verifierRejects, 0u);
        }
    }
    EXPECT_GT(gate_rejects, 0u);
}

TEST(FaultRuntime, QuarantineBlocksInstallsAndDetections)
{
    // Under a broad fault mix the quarantine list must intercept both
    // ends of the pipeline: fresh detections of an offending phase
    // (quarantineSkips) and bundles that finished building or queued an
    // activation before their phase was quarantined
    // (quarantineBlockedInstalls — the quarantine-before-loose-match
    // rule: backoff state is consulted again at install time, so a
    // stale loose match cannot smuggle a blocked phase back in).
    std::size_t blocked = 0, skips = 0;
    for (std::uint64_t seed = 1; seed <= 10 && !(blocked && skips);
         ++seed) {
        workload::Workload w = workload::makeMcf("A");
        RuntimeConfig cfg = faultedConfig(0.5, seed);
        RuntimeController controller(w, cfg);
        const RuntimeStats s = controller.run();
        blocked += s.quarantineBlockedInstalls;
        skips += s.quarantineSkips;
        EXPECT_GT(s.quanta, 0u);
    }
    EXPECT_GT(blocked, 0u);
    EXPECT_GT(skips, 0u);
}

TEST(FaultRuntime, CoverageDegradesButRunSurvives)
{
    workload::Workload w = workload::makeMcf("A");

    RuntimeConfig clean;
    clean.vp = VpConfig::variant(true, true);
    clean.budget = 400'000;
    RuntimeController base(w, clean);
    const RuntimeStats cs = base.run();

    RuntimeController faulted(w, faultedConfig(0.5, 7));
    const RuntimeStats fs = faulted.run();

    EXPECT_GT(fs.faults.total(), 0u);
    EXPECT_LE(fs.packageCoverage(), cs.packageCoverage());
    // The guarded paths actually engaged: at a 50% rate across every
    // kind, at least one detection or job must have been deflected.
    EXPECT_GT(fs.failedBuilds + fs.verifierRejects + fs.quarantines +
                  fs.quarantineSkips + fs.watchdogDeopts,
              0u);
}

TEST(FaultRuntime, FaultSequenceIsIdenticalAcrossWorkerCounts)
{
    workload::Workload w = workload::makeMcf("A");
    std::string texts[3];
    const unsigned counts[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
        RuntimeConfig cfg = faultedConfig(0.5, 11);
        cfg.workers = counts[i];
        RuntimeController controller(w, cfg);
        texts[i] = toText(controller.run(), w.label());
    }
    EXPECT_EQ(texts[0], texts[1]);
    EXPECT_EQ(texts[0], texts[2]);
}

TEST(FaultRuntime, DifferentSeedsDifferentFaults)
{
    workload::Workload w = workload::makeMcf("A");
    RuntimeController a(w, faultedConfig(0.5, 1));
    RuntimeController b(w, faultedConfig(0.5, 2));
    const RuntimeStats sa = a.run();
    const RuntimeStats sb = b.run();
    // Both runs survive; the injected sequences are seed-dependent.
    EXPECT_GT(sa.faults.total() + sb.faults.total(), 0u);
}

// ---------------------------------------------------------------------
// Safety nets behind the install gate, tripped through the
// SynthesisCache seam: no fault kind reaches them, so a mock cache
// serves the controller a prepared bundle in place of its own build.

/** Every offline-detected phase of @p w, synthesized (non-empty only). */
std::vector<PackageBundle>
offlineBundles(const workload::Workload &w, const VpConfig &cfg)
{
    VacuumPacker packer(w, cfg);
    const VpResult r = packer.run();
    std::vector<PackageBundle> out;
    for (const hsd::HotSpotRecord &rec : r.records) {
        PackageBundle b =
            synthesizeBundle(w.program, canonicalizeRecord(rec), cfg);
        if (!b.empty())
            out.push_back(std::move(b));
    }
    return out;
}

/** SynthesisCache mock: answers lookups through @p serve (nullptr
 *  means "not cached", so the controller builds locally) and counts
 *  taint() reports. */
struct ServingCache final : SynthesisCache
{
    std::function<std::shared_ptr<const PackageBundle>(
        const hsd::HotSpotRecord &)>
        serve;
    std::size_t lookups = 0;
    std::size_t taints = 0;

    std::shared_ptr<const PackageBundle>
    lookup(const hsd::HotSpotRecord &record, unsigned) override
    {
        ++lookups;
        return serve(record);
    }

    void
    publish(const hsd::HotSpotRecord &, unsigned, const PackageBundle &,
            bool) override
    {}

    void
    taint(const hsd::HotSpotRecord &, unsigned) override
    {
        ++taints;
    }
};

TEST(SafetyNet, InstallRollbackUndoesAStructurallyBrokenSplice)
{
    workload::Workload w = workload::makeGzip("A");
    RuntimeConfig cfg;
    cfg.verifyBeforeInstall = false; // let the broken bundle reach install

    // The orphaned-launch-arc tamper of verify_test, in its severing
    // form: one launch arc of the bundle is cut instead of redirected.
    // LivePatcher::install applies the diff verbatim, leaving a branch
    // without its taken target that only ir::verifyProgram catches.
    const std::vector<PackageBundle> bundles = offlineBundles(w, cfg.vp);
    ASSERT_FALSE(bundles.empty());
    auto tampered = std::make_shared<PackageBundle>(bundles.front());
    bool cut = false;
    ir::Program &scratch = tampered->packaged.program;
    for (ir::FuncId f = 0; f < w.program.numFunctions() && !cut; ++f) {
        for (ir::BlockId b = 0; b < w.program.func(f).numBlocks(); ++b) {
            ir::BasicBlock &sb = scratch.func(f).block(b);
            if (sb.taken != w.program.func(f).block(b).taken) {
                sb.taken = ir::kNoBlockRef;
                cut = true;
                break;
            }
        }
    }
    ASSERT_TRUE(cut) << "bundle has no taken-arc launch point";

    // Served once: every later job synthesizes locally.
    ServingCache cache;
    cache.serve = [&](const hsd::HotSpotRecord &) {
        return cache.lookups == 1 ? tampered : nullptr;
    };
    RuntimeController controller(w, cfg);
    controller.setSynthesisCache(&cache);
    const RuntimeStats s = controller.run();

    EXPECT_EQ(s.installRollbacks, 1u);
    EXPECT_EQ(s.quarantines, 1u);
    EXPECT_EQ(cache.taints, 1u);
    EXPECT_EQ(s.liveVerifyFailures, 0u);
    const Status st = ir::verifyProgram(controller.liveProgram(), "test");
    EXPECT_TRUE(st.isOk()) << st.message();

    // Drained undo log: run() unpatched every resident bundle, so every
    // original-code arc is back at its pristine value.
    const ir::Program &live = controller.liveProgram();
    for (ir::FuncId f = 0; f < w.program.numFunctions(); ++f) {
        for (ir::BlockId b = 0; b < w.program.func(f).numBlocks(); ++b) {
            const ir::BasicBlock &lb = live.func(f).block(b);
            const ir::BasicBlock &pb = w.program.func(f).block(b);
            EXPECT_EQ(lb.taken, pb.taken) << "f" << f << " b" << b;
            EXPECT_EQ(lb.fall, pb.fall) << "f" << f << " b" << b;
            EXPECT_EQ(lb.callee, pb.callee) << "f" << f << " b" << b;
        }
    }
}

TEST(SafetyNet, WatchdogDeoptsABundleBuiltForAnotherPhase)
{
    workload::Workload w = workload::makeIjpeg("A");
    RuntimeConfig cfg;
    cfg.watchdog = true;

    // Structurally valid bundles (they pass the install gate), but each
    // detection is served the one synthesized for the phase its record
    // overlaps least: the packages do not cover what is running, so
    // the bundle stays cold until the watchdog deopts it.
    const std::vector<PackageBundle> bundles = offlineBundles(w, cfg.vp);
    ASSERT_GT(bundles.size(), 1u);
    ServingCache cache;
    cache.serve = [&](const hsd::HotSpotRecord &rec) {
        const PackageBundle *far = &bundles.front();
        for (const PackageBundle &b : bundles) {
            if (hsd::hotSpotOverlap(b.record, rec, cfg.vp.filter) <
                hsd::hotSpotOverlap(far->record, rec, cfg.vp.filter))
                far = &b;
        }
        return std::make_shared<const PackageBundle>(*far);
    };
    RuntimeController controller(w, cfg);
    controller.setSynthesisCache(&cache);
    const RuntimeStats s = controller.run();

    EXPECT_GE(s.watchdogDeopts, 1u);
    EXPECT_EQ(s.verifierRejects, 0u);
    EXPECT_EQ(s.installRollbacks, 0u);
    EXPECT_EQ(cache.taints, s.watchdogDeopts);
    const Status st = ir::verifyProgram(controller.liveProgram(), "test");
    EXPECT_TRUE(st.isOk()) << st.message();
}

TEST(ThreadPool, CountsAndDropsSubsequentTaskErrors)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i) {
        pool.submit([&ran] {
            ++ran;
            throw std::runtime_error("task failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 5);
    const ThreadPool::ErrorStats es = pool.errorStats();
    EXPECT_EQ(es.taskErrors, 5u);
    EXPECT_EQ(es.droppedErrors, 4u);
}

TEST(ThreadPool, ErrorStatsStayZeroOnCleanBatches)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
    const ThreadPool::ErrorStats es = pool.errorStats();
    EXPECT_EQ(es.taskErrors, 0u);
    EXPECT_EQ(es.droppedErrors, 0u);
}

} // namespace
