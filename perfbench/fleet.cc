/**
 * @file
 * fleet_cold and fleet_warm: FleetController::run with kTenants tenants
 * (the roster twice) on kWorkers threads.
 *
 * fleet_cold gives every pass a fresh store directory: the first roster
 * cycle synthesizes and publishes, the second is served from the sharded
 * cache, and the end-of-run flush writes every synthesized bundle.
 * fleet_warm fills one store during set-up and warm-starts every pass
 * from it: rehydration, the verifier gate and cache reads instead of
 * synthesis and writes. After every warm pass the store must hold the
 * same images and bytes as after the fill.
 *
 * The fleet builds its tenants from the fixed roster internally, so the
 * seed cannot change a fleet's inputs; it is only echoed.
 */

#include <filesystem>

#include "bench.hh"
#include "fleet/controller.hh"
#include "runtime/controller.hh"
#include "support/thread_pool.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using vp::workload::Workload;

struct FleetPass
{
    double wall = 0.0;
    double cpu = 0.0; ///< process CPU seconds
    double ref = 0.0; ///< referenceSeconds() just before the pass
    double rss = 0.0; ///< peak resident MiB during the pass
    vp::fleet::FleetStats stats;
    std::vector<std::string> texts; ///< per-tenant report, tenant order
};

FleetPass
fleetPass(const std::string &dir, bool warm, Tracer *tracer)
{
    vp::fleet::FleetConfig fc;
    fc.rt = fleetRuntimeConfig();
    fc.tenants = kTenants;
    fc.threads = kWorkers;
    fc.storeDir = dir;
    fc.warmStart = warm;
    vp::fleet::FleetController controller(std::move(fc));

    FleetPass out;
    out.ref = referenceSeconds();
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (tracer) {
        Scope s(*tracer, "fleet.run");
        out.stats = controller.run();
    } else {
        out.stats = controller.run();
    }
    out.wall = secondsSince(t0);
    out.cpu = cpuSeconds() - cpu0;
    out.rss = peakRssMb();
    for (const vp::fleet::TenantStats &t : out.stats.tenants)
        out.texts.push_back(t.degraded
                                ? "DEGRADED " + t.label
                                : vp::runtime::toText(t.stats, t.label));
    return out;
}

/** Failed operations of one fleet pass. */
std::uint64_t
failedOps(const vp::fleet::FleetStats &s)
{
    std::uint64_t n = s.degradedTenants + s.storeCorrupt + s.storeRejected +
                      s.storeQuarantined + s.poolTaskErrors;
    for (const vp::fleet::TenantStats &t : s.tenants)
        n += t.stats.failedBuilds + t.stats.verifierRejects +
             t.stats.installRollbacks;
    return n;
}

struct StoreSize
{
    std::uint64_t images = 0;
    std::uint64_t bytes = 0;

    bool operator==(const StoreSize &) const = default;
};

StoreSize
storeSize(const std::string &dir)
{
    StoreSize s;
    if (!fs::exists(dir))
        return s;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".vpb") {
            ++s.images;
            s.bytes += e.file_size();
        }
    }
    return s;
}

void
compareTexts(const std::vector<std::string> &ref,
             const std::vector<std::string> &got, const char *what,
             Result &result)
{
    if (ref.size() != got.size()) {
        result.mismatch(format("tenant count differs %s", what));
        return;
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        if (ref[i] != got[i])
            result.mismatch(format("tenant %zu report differs %s", i, what));
}

void
countFleet(Tracer &t, const vp::fleet::FleetStats &s)
{
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const vp::fleet::ShardStats &sh : s.shards) {
        hits += sh.hits;
        lookups += sh.hits + sh.misses;
    }
    t.count("fleet.tenants", static_cast<double>(s.tenants.size()));
    t.count("fleet.jobs_submitted", s.jobsSubmitted);
    t.count("fleet.jobs_executed", s.jobsExecuted);
    t.count("fleet.jobs_from_cache", s.jobsFromCache);
    t.count("fleet.cache_hits", hits);
    t.count("fleet.cache_lookups", lookups);
    t.count("fleet.store_loaded", s.storeLoaded);
    t.count("fleet.store_saved", s.storeSaved);
    t.count("fleet.degraded", s.degradedTenants);
    t.count("fleet.stall_quanta", s.stallQuanta);
    t.count("fleet.pool_task_errors", s.poolTaskErrors);
}

/** Single-tenant RuntimeController::run of every roster row, on the
 *  worker pool: the per-tenant reference reports. */
std::vector<std::string>
singleTenantTexts(const std::vector<Workload> &roster)
{
    std::vector<std::string> texts(roster.size());
    vp::ThreadPool pool(kWorkers);
    pool.parallelFor(roster.size(), [&](std::size_t i) {
        vp::runtime::RuntimeController c(roster[i], fleetRuntimeConfig());
        texts[i] = vp::runtime::toText(c.run(), roster[i].label());
    });
    return texts;
}

} // namespace

void
runFleet(const Args &args, bool warm, Result &result)
{
    const std::string work = args.workDir;
    const std::string warmStore = work + "/warm-store";
    result.note(format("%s: %zu tenants (roster x2), %u fleet threads, 1 "
                       "synthesis worker per tenant; the seed (%llu) cannot "
                       "change the fleet's inputs",
                       warm ? "fleet_warm" : "fleet_cold", kTenants, kWorkers,
                       static_cast<unsigned long long>(args.seed)));

    // Set-up: the roster (the probes' and the check's inputs) and, for
    // fleet_warm, the store every pass warm-starts from. Each repetition
    // fills a fresh store; all fills must agree.
    std::vector<Workload> roster;
    double setup = 0.0;
    double build = 0.0;
    std::vector<std::string> coldTexts; // a cold pass's tenant reports
    StoreSize filled;
    if (warm) {
        std::vector<double> times;
        std::vector<double> builds;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            fs::remove_all(warmStore);
            const double ref = referenceSeconds();
            const auto t0 = Clock::now();
            roster = vp::workload::makeAllWorkloads();
            const double rosterS = secondsSince(t0);
            FleetPass fill = fleetPass(warmStore, false, nullptr);
            builds.push_back(calibrated(rosterS, ref));
            times.push_back(calibrated(rosterS + fill.wall, ref));
            result.attempt(fill.texts.size());
            result.failOp(failedOps(fill.stats));
            const StoreSize size = storeSize(warmStore);
            if (rep > 0 && (size != filled || fill.texts != coldTexts))
                result.mismatch("store fills disagree");
            if (size.images != fill.stats.storeSaved || size.images == 0)
                result.mismatch("store fill image count differs from saved");
            filled = size;
            coldTexts = std::move(fill.texts);
        }
        setup = median(times);
        build = median(builds);
    } else {
        build = setup = buildRoster(roster);
    }
    result.note(format("store on %s", filesystemOf(work).c_str()));

    Tracer tracer(args.trace);
    std::vector<FleetPass> passes;
    std::string lastDir;
    const auto onePass = [&](bool traced) {
        std::string dir = warmStore;
        if (!warm) {
            if (!lastDir.empty())
                fs::remove_all(lastDir);
            dir = format("%s/cold-%zu", work.c_str(), passes.size());
            fs::remove_all(dir);
            lastDir = dir;
        }
        FleetPass p = fleetPass(dir, warm, traced ? &tracer : nullptr);
        result.attempt(p.texts.size());
        result.failOp(failedOps(p.stats));
        const StoreSize size = storeSize(dir);
        if (warm) {
            // Store hygiene: a warm pass loads every image and saves none,
            // so the next pass starts from the same store.
            if (p.stats.storeSaved != 0 || size != filled ||
                p.stats.storeLoaded != filled.images)
                result.mismatch(format(
                    "warm pass %zu changed or under-loaded the store "
                    "(%llu saved, %llu loaded, %llu images, %llu bytes)",
                    passes.size(),
                    static_cast<unsigned long long>(p.stats.storeSaved),
                    static_cast<unsigned long long>(p.stats.storeLoaded),
                    static_cast<unsigned long long>(size.images),
                    static_cast<unsigned long long>(size.bytes)));
        } else if (size.images != p.stats.storeSaved || size.images == 0) {
            result.mismatch("cold pass store holds a different image count "
                            "than it saved");
        } else if (!passes.empty() && size != filled) {
            result.mismatch("cold passes flushed different stores");
        } else {
            filled = size;
        }
        passes.push_back(std::move(p));
    };

    // Pass 0 is an untimed warm-up.
    std::vector<std::string> singleTexts;
    onePass(false);
    if (args.trace) {
        tracer.count("workload.build_s", build);
        onePass(false);
        onePass(true);
        tracer.count("bench.untraced_pass_s", passes[1].wall);
        tracer.count("bench.traced_pass_s", passes[2].wall);
        countFleet(tracer, passes[2].stats);
        singleTexts = probeLayers(tracer, result, roster, /*with_sim=*/false);
        probeStore(tracer, result, roster, warm ? warmStore : lastDir,
                   work + "/store-copy");
    } else {
        const auto t0 = Clock::now();
        do {
            onePass(false);
        } while (secondsSince(t0) < args.seconds);
    }
    // End-to-end metrics: medians over the timed passes, times calibrated
    // by the reference kernel run just before each pass.
    const vp::fleet::FleetStats &first = passes[0].stats;
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> rsss;
    std::string passList;
    std::vector<double> rawWalls;
    for (std::size_t k = 1; k < passes.size(); ++k) {
        const FleetPass &p = passes[k];
        walls.push_back(calibrated(p.wall, p.ref, kPassElasticity));
        cpus.push_back(calibrated(p.cpu, p.ref, kPassElasticity));
        rawWalls.push_back(p.wall);
        rsss.push_back(p.rss);
        passList += format(" %.3f/%.3f/%.3f/%.0f", p.wall, p.cpu, p.ref,
                           p.rss);
    }
    const double rowsPerS = kTenants / median(walls);
    const double cpuPerRow = median(cpus) / kTenants;
    const double rss = median(rsss);
    double expansion = 0.0;
    std::vector<double> firstInstall;
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
        const vp::runtime::RuntimeStats &s = first.tenants[i].stats;
        expansion += static_cast<double>(s.peakResidentWeight) /
                     roster[i % roster.size()].program.numInsts();
        const std::uint64_t q =
            std::min(s.firstInstallQuantum[0], s.firstInstallQuantum[1]);
        if (q != vp::runtime::BundleStats::kNever)
            firstInstall.push_back(static_cast<double>(q));
    }
    expansion = 100.0 * expansion / first.tenants.size();
    const double coverage = 100.0 * first.meanCoverage;

    // Correctness, outside the timed region: every pass agrees with the
    // first; the other start mode (cold for warm, warm for cold) and a
    // single-tenant RuntimeController::run per row produce the same
    // per-tenant reports.
    for (std::size_t k = 1; k < passes.size(); ++k)
        compareTexts(passes[0].texts, passes[k].texts,
                     format("between pass 0 and pass %zu", k).c_str(),
                     result);
    if (warm) {
        compareTexts(coldTexts, passes[0].texts, "between cold and warm",
                     result);
    } else {
        FleetPass w = fleetPass(lastDir, true, nullptr);
        result.attempt(w.texts.size());
        result.failOp(failedOps(w.stats));
        if (w.stats.storeLoaded != filled.images || w.stats.storeSaved != 0)
            result.mismatch("warm start over a cold store did not load it");
        compareTexts(passes[0].texts, w.texts, "between cold and warm",
                     result);
    }
    if (singleTexts.empty())
        singleTexts = singleTenantTexts(roster);
    result.attempt(singleTexts.size());
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < kTenants; ++i)
        expected.push_back(singleTexts[i % singleTexts.size()]);
    compareTexts(expected, passes[0].texts,
                 "between the fleet and a single-tenant run", result);
    if (!lastDir.empty())
        fs::remove_all(lastDir);

    result.note(format("tenants_per_s       %.4f 1/s  (%zu tenants / median "
                       "calibrated pass wall; raw %.4f)",
                       rowsPerS, kTenants, kTenants / median(rawWalls)));
    result.note(format("cpu_s_per_row       %.4f s  (median calibrated pass "
                       "CPU / %zu tenants)",
                       cpuPerRow, kTenants));
    result.note(format("passes wall/cpu/ref/rss%s", passList.c_str()));
    result.note(format("coverage_pct        %.4f %%  (mean tenant package "
                       "coverage)",
                       coverage));
    result.note(format("expansion_pct       %.4f %%  (mean tenant peak "
                       "resident added insts / static insts)",
                       expansion));
    result.note(format("first_install_q_p50 %.1f quanta  (n=%zu tenants)",
                       median(firstInstall), firstInstall.size()));
    result.note(format("setup_s             %.4f s  (roster build %.4f s)",
                       setup, build));
    result.note(format("peak_rss_mb         %.1f MB  (median pass peak)",
                       rss));
    result.note(format("failed_frac         %.6f  (%llu of %llu)",
                       static_cast<double>(result.failed()) /
                           result.attempted(),
                       static_cast<unsigned long long>(result.failed()),
                       static_cast<unsigned long long>(result.attempted())));
    result.note(format("synthesis           %llu jobs submitted, %llu "
                       "executed, %llu from cache",
                       static_cast<unsigned long long>(first.jobsSubmitted),
                       static_cast<unsigned long long>(first.jobsExecuted),
                       static_cast<unsigned long long>(first.jobsFromCache)));
    result.note(format("store               %llu loaded, %llu saved; %llu "
                       "images, %llu bytes after each pass",
                       static_cast<unsigned long long>(first.storeLoaded),
                       static_cast<unsigned long long>(first.storeSaved),
                       static_cast<unsigned long long>(filled.images),
                       static_cast<unsigned long long>(filled.bytes)));

    if (args.trace) {
        if (!args.spansPath.empty() && !tracer.write(args.spansPath))
            result.note("could not write spans to " + args.spansPath);
        emitLayerMetrics(tracer, result);
        return;
    }
    result.metric("cpu_s_per_row", cpuPerRow, "s");
    result.metric("coverage_pct", coverage, "%");
    result.metric("expansion_pct", expansion, "%");
    result.metric("setup_s", setup, "s");
    result.metric("peak_rss_mb", rss, "MB");
}

} // namespace perfbench
