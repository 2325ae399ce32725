/**
 * @file
 * offline_pack: vp::analyzeWorkload over the 20-row Table 1 roster, rows
 * dispatched to a pool of kWorkers in an order drawn from the seed. Each
 * pass starts with an empty RunCache, so it pays what one `vpack report`
 * invocation per row pays.
 *
 * The traced pass runs the same analysis through the public stages
 * analyzeWorkload is made of (VacuumPacker::profile / identify /
 * construct, measureCoverage, measureSpeedup, categorizeBranches) with a
 * span around each, and must reproduce analyzeWorkload's report exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hh"
#include "ir/verify.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "trace/engine.hh"
#include "vp/report.hh"
#include "vp/run_cache.hh"

namespace perfbench
{

namespace
{

using vp::workload::Workload;

/**
 * Every deterministic field of a report, doubles as exact hex floats.
 * This is the comparison subject instead of vp::toText(): it covers the
 * same fields plus every CoreStats counter, and does not go through the
 * temporary file toText() renders its table into.
 */
std::string
digest(const vp::WorkloadReport &r)
{
    std::string s = format("%s|%zu|%zu|%u|%llu|%llu|%llu|%zu|%zu|%zu",
                           r.label.c_str(), r.staticInsts, r.functions,
                           r.phases,
                           static_cast<unsigned long long>(r.profiledInsts),
                           static_cast<unsigned long long>(r.profiledBranches),
                           static_cast<unsigned long long>(r.hsd.branchesSeen),
                           r.hsd.recorded, r.hsd.suppressed,
                           r.hsd.monitorRestarts);
    for (double f : r.categorization.fraction)
        s += format("|%a", f);
    const auto core = [](const vp::sim::CoreStats &c) {
        return format("|%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                      "%llu,%llu,%llu,%llu",
                      (unsigned long long)c.cycles, (unsigned long long)c.insts,
                      (unsigned long long)c.branches,
                      (unsigned long long)c.branchMispredicts,
                      (unsigned long long)c.rasMispredicts,
                      (unsigned long long)c.btbMisses,
                      (unsigned long long)c.takenTransfers,
                      (unsigned long long)c.dataStallCycles,
                      (unsigned long long)c.fetchStallCycles,
                      (unsigned long long)c.ldStBufStallCycles,
                      (unsigned long long)c.wrongPathFetches,
                      (unsigned long long)c.l1iMisses,
                      (unsigned long long)c.l1dMisses,
                      (unsigned long long)c.l2Misses);
    };
    for (const vp::ConfigReport &c : r.configs) {
        s += format("|%d%d:%zu,%zu,%zu,%zu,%zu,%a,%a,%a,%a,%a", c.inference,
                    c.linking, c.rawRecords, c.uniqueHotSpots, c.packages,
                    c.launchPoints, c.links, c.expansion, c.selectedFraction,
                    c.replication, c.coverage, c.speedup);
        s += core(c.baseline) + core(c.packaged);
    }
    return s;
}

/** analyzeWorkload(w, {}, 1), one public stage per span. */
vp::WorkloadReport
tracedAnalyze(const Workload &w, Tracer &t)
{
    vp::WorkloadReport report;
    report.label = w.label();
    report.staticInsts = w.program.numInsts();
    report.functions = w.program.numFunctions();
    report.phases = w.schedule.numPhases();
    for (std::size_t v = 0; v < report.configs.size(); ++v) {
        const bool inference = v >= 2;
        const bool linking = v % 2 == 1;
        const vp::VpConfig cfg = vp::VpConfig::variant(inference, linking);
        vp::VacuumPacker packer(w, cfg);
        vp::VpResult r;
        {
            Scope s(t, "vp.profile");
            packer.profile(r);
        }
        {
            Scope s(t, "vp.identify");
            packer.identify(r);
        }
        {
            Scope s(t, "vp.construct");
            packer.construct(r);
        }
        t.count("vp.dropped_phases", r.droppedPhases);

        vp::ConfigReport &cr = report.configs[v];
        cr.inference = inference;
        cr.linking = linking;
        cr.rawRecords = r.rawRecords.size();
        cr.uniqueHotSpots = r.records.size();
        cr.packages = r.packaged.packages.size();
        cr.launchPoints = r.packaged.numLaunchPoints;
        cr.links = r.packaged.numLinks;
        cr.expansion = r.packaged.expansion();
        cr.selectedFraction = r.packaged.selectedFraction();
        cr.replication = r.packaged.replicationFactor();
        {
            Scope s(t, "vp.coverage");
            cr.coverage =
                vp::measureCoverage(w, r.packaged.program).packageCoverage();
        }
        {
            Scope s(t, "vp.timing");
            const vp::SpeedupResult sp =
                vp::measureSpeedup(w, r.packaged.program, cfg.machine);
            cr.baseline = sp.baseline;
            cr.packaged = sp.packaged;
            cr.speedup = sp.speedup();
        }
        if (v == report.configs.size() - 1) {
            Scope s(t, "vp.categorize");
            report.categorization = vp::categorizeBranches(w, r.records);
            report.profiledInsts = r.profileRun.dynInsts;
            report.profiledBranches = r.profileRun.dynBranches;
            report.hsd = r.hsdStats;
        }
    }
    return report;
}

struct RowOut
{
    double seconds = 0.0; ///< analyzeWorkload wall time
    double wait = 0.0;    ///< pass start to a worker picking the row up
    std::string digest;
    double coverage = 0.0;  ///< inf+link Figure 8 coverage
    double speedup = 0.0;   ///< inf+link Figure 10 speedup
    double expansion = 0.0; ///< inf+link Table 3 expansion
};

struct PassOut
{
    std::vector<RowOut> rows; ///< indexed by roster row
    double wall = 0.0;
    double cpu = 0.0; ///< process CPU seconds
    double ref = 0.0; ///< referenceSeconds() just before the pass
    double rss = 0.0; ///< peak resident MiB during the pass
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/** Roster dispatch order drawn from @p seed (Fisher-Yates, splitmix). */
std::vector<std::size_t>
drawOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t x = seed;
    for (std::size_t i = n; i > 1; --i) {
        x = vp::splitmix64(x);
        std::swap(order[i - 1], order[x % i]);
    }
    return order;
}

/** One roster pass on @p workers; traced when @p tracer is given. */
PassOut
runPass(const std::vector<Workload> &roster,
        const std::vector<std::size_t> &order, unsigned workers,
        Tracer *tracer)
{
    PassOut out;
    out.rows.resize(roster.size());
    vp::RunCache &rc = vp::RunCache::instance();
    rc.clear();
    const std::uint64_t hits0 = rc.hits();
    const std::uint64_t misses0 = rc.misses();

    out.ref = referenceSeconds();
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    const std::int64_t pass =
        tracer ? tracer->begin("offline.pass", -1, -1) : -1;
    {
        vp::ThreadPool pool(workers);
        for (std::size_t row : order) {
            pool.submit([&, row] {
                RowOut &o = out.rows[row];
                o.wait = secondsSince(t0);
                const auto r0 = Clock::now();
                vp::WorkloadReport rep;
                if (tracer) {
                    Scope s(*tracer, "offline.row",
                            static_cast<std::int64_t>(row), pass);
                    rep = tracedAnalyze(roster[row], *tracer);
                } else {
                    rep = vp::analyzeWorkload(roster[row], {}, 1);
                }
                o.seconds = secondsSince(r0);
                o.digest = digest(rep);
                o.coverage = rep.full().coverage;
                o.speedup = rep.full().speedup;
                o.expansion = rep.full().expansion;
            });
        }
        pool.wait();
    }
    out.wall = secondsSince(t0);
    out.cpu = cpuSeconds() - cpu0;
    out.rss = peakRssMb();
    out.cacheHits = rc.hits() - hits0;
    out.cacheMisses = rc.misses() - misses0;
    if (tracer) {
        tracer->end(pass);
        for (const RowOut &o : out.rows)
            tracer->count("vp.queue_wait_s", o.wait);
        tracer->count("vp.run_cache_hits", out.cacheHits);
        tracer->count("vp.run_cache_misses", out.cacheMisses);
    }
    return out;
}

/** Order-sensitive hash of the logical branch stream: (BehaviorId,
 *  taken ^ invertSense) per retired CondBr. */
struct BranchStreamHash : vp::trace::InstSink
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t branches = 0;

    void
    onRetire(const vp::trace::RetiredInst &ri) override
    {
        if (ri.inst->op != vp::ir::Opcode::CondBr)
            return;
        const std::uint64_t ev =
            (static_cast<std::uint64_t>(ri.inst->behavior) << 1) |
            static_cast<std::uint64_t>(ri.branchTaken ^ ri.inst->invertSense);
        hash = vp::splitmix64(hash ^ ev);
        ++branches;
    }

    unsigned eventMask() const override { return vp::trace::kEventBranches; }
};

/**
 * The inf+link packaged program of @p w passes ir::verifyProgram, and its
 * logical branch stream equals the pristine program's over the same
 * number of branches. @return an empty string, or what failed.
 */
std::string
checkPackagedRow(const Workload &w, std::size_t &dropped)
{
    vp::VacuumPacker packer(w, vp::VpConfig::variant(true, true));
    const vp::VpResult r = packer.run();
    dropped = r.droppedPhases;
    if (vp::Status st = vp::ir::verifyProgram(r.packaged.program,
                                              "perfbench packaged program");
        !st)
        return w.label() + ": " + st.message();

    BranchStreamHash got;
    {
        vp::trace::ExecutionEngine eng(r.packaged.program, w);
        eng.addSink(&got);
        eng.run(w.maxDynInsts);
    }
    BranchStreamHash ref;
    {
        vp::trace::ExecutionEngine eng(w.program, w);
        eng.addSink(&ref);
        eng.run(std::numeric_limits<std::uint64_t>::max(), got.branches);
    }
    if (got.branches == 0 || ref.branches != got.branches ||
        ref.hash != got.hash)
        return format("%s: packaged logical branch stream differs from the "
                      "pristine one over %llu branches",
                      w.label().c_str(),
                      static_cast<unsigned long long>(got.branches));
    return {};
}

void
compareDigests(const PassOut &ref, const PassOut &got,
               const std::vector<Workload> &roster, const char *what,
               Result &result)
{
    for (std::size_t i = 0; i < roster.size(); ++i)
        if (got.rows[i].digest != ref.rows[i].digest)
            result.mismatch(roster[i].label() + ": report differs " + what);
}

} // namespace

void
runOfflinePack(const Args &args, Result &result)
{
    std::vector<Workload> roster;
    const double setup = buildRoster(roster);
    const std::size_t n = roster.size();
    result.note(format("offline_pack: %zu roster rows, %u workers, 4 "
                       "variants each; RunCache cleared before every pass",
                       n, kWorkers));

    // Pass k dispatches rows in the order drawn from (seed, k); pass 0 is
    // an untimed warm-up. The traced run's untraced and traced passes use
    // the same order, so their difference is the tracing overhead alone.
    const auto orderOf = [&](std::uint64_t k) {
        return drawOrder(n, vp::seedCombine(args.seed, k));
    };
    const PassOut warmup = runPass(roster, orderOf(0), kWorkers, nullptr);
    std::vector<PassOut> passes;
    Tracer tracer(args.trace);
    if (args.trace) {
        tracer.count("workload.build_s", setup);
        passes.push_back(runPass(roster, orderOf(1), kWorkers, nullptr));
        passes.push_back(runPass(roster, orderOf(1), kWorkers, &tracer));
        tracer.count("bench.untraced_pass_s", passes[0].wall);
        tracer.count("bench.traced_pass_s", passes[1].wall);
        probeLayers(tracer, result, roster, /*with_sim=*/true);
    } else {
        const auto t0 = Clock::now();
        do {
            passes.push_back(
                runPass(roster, orderOf(1 + passes.size()), kWorkers, nullptr));
        } while (secondsSince(t0) < args.seconds);
    }
    result.attempt((1 + passes.size()) * n);

    // End-to-end metrics: medians over the timed passes, times calibrated
    // by the reference kernel run just before each pass.
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> rawWalls;
    std::vector<double> rsss;
    std::vector<double> rowTimes;
    std::string passList;
    for (const PassOut &p : passes) {
        walls.push_back(calibrated(p.wall, p.ref, kPassElasticity));
        cpus.push_back(calibrated(p.cpu, p.ref, kPassElasticity));
        rawWalls.push_back(p.wall);
        rsss.push_back(p.rss);
        for (const RowOut &o : p.rows)
            rowTimes.push_back(o.seconds);
        passList += format(" %.3f/%.3f/%.3f/%.0f", p.wall, p.cpu, p.ref,
                           p.rss);
    }
    double coverage = 0.0;
    double expansion = 0.0;
    double logSpeedup = 0.0;
    for (const RowOut &o : warmup.rows) {
        coverage += o.coverage;
        expansion += o.expansion;
        logSpeedup += std::log(o.speedup);
    }
    coverage = 100.0 * coverage / n;
    expansion = 100.0 * expansion / n;
    const double speedup = std::exp(logSpeedup / n);
    const double rowsPerS = n / median(walls);
    const double cpuPerRow = median(cpus) / n;
    const double rss = median(rsss);

    // Correctness, outside the timed region: every pass agrees with the
    // warm-up, a single-worker pass under a second seed's order agrees
    // too, and every row's packaged program verifies and keeps the
    // pristine logical branch stream.
    for (std::size_t k = 0; k < passes.size(); ++k)
        compareDigests(warmup, passes[k], roster,
                       format("between passes 0 and %zu", k + 1).c_str(),
                       result);
    const std::uint64_t secondSeed = args.seed + 1;
    const PassOut serial = runPass(
        roster, drawOrder(n, vp::seedCombine(secondSeed, 0)), 1, nullptr);
    result.attempt(n);
    compareDigests(warmup, serial, roster,
                   "between 4 workers and 1 worker (second seed)", result);

    std::vector<std::string> errors(n);
    std::vector<std::size_t> dropped(n, 0);
    {
        vp::ThreadPool pool(kWorkers);
        pool.parallelFor(n, [&](std::size_t i) {
            errors[i] = checkPackagedRow(roster[i], dropped[i]);
        });
    }
    result.attempt(n);
    std::size_t droppedTotal = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!errors[i].empty())
            result.mismatch(errors[i]);
        droppedTotal += dropped[i];
    }
    result.failOp(droppedTotal);

    std::string order;
    for (std::size_t row : orderOf(1))
        order += format(" %zu", row);
    result.note("first timed pass dispatch order:" + order);
    result.note(format("rows_per_s          %.4f 1/s  (%zu rows / median "
                       "calibrated pass wall; raw %.4f)",
                       rowsPerS, n, n / median(rawWalls)));
    result.note(format("cpu_s_per_row       %.4f s  (median calibrated pass "
                       "CPU / %zu rows)",
                       cpuPerRow, n));
    result.note(format("passes wall/cpu/ref/rss%s", passList.c_str()));
    // The highest percentile with at least ten samples above it.
    const double tail =
        std::max(0.5, 1.0 - 10.0 / static_cast<double>(rowTimes.size()));
    result.note(format("row_p50_s           %.4f s  (p%.0f %.4f s, n=%zu)",
                       median(rowTimes), 100.0 * tail,
                       percentile(rowTimes, tail), rowTimes.size()));
    result.note(format("coverage_pct        %.4f %%  (mean inf+link, Fig. 8)",
                       coverage));
    result.note(format("speedup_geomean     %.6f x  (inf+link, Fig. 10)",
                       speedup));
    result.note(format("expansion_pct       %.4f %%  (mean inf+link, "
                       "Table 3)",
                       expansion));
    result.note(format("setup_s             %.4f s", setup));
    result.note(format("peak_rss_mb         %.1f MB  (median pass peak)",
                       rss));
    result.note(format("failed_frac         %.6f  (%llu of %llu; %zu "
                       "dropped phases)",
                       static_cast<double>(result.failed()) /
                           result.attempted(),
                       static_cast<unsigned long long>(result.failed()),
                       static_cast<unsigned long long>(result.attempted()),
                       droppedTotal));
    result.note(format("run cache per pass  %llu hits / %llu misses",
                       static_cast<unsigned long long>(warmup.cacheHits),
                       static_cast<unsigned long long>(warmup.cacheMisses)));

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
