/**
 * @file
 * Per-layer probes of the traced run. Each probe calls one layer through
 * its public entry point inside a span, serially, so a layer's time is
 * its own and not a share of a contended pool. Layers that have no entry
 * point of their own are measured as a difference of two spans: HSD as
 * engine + detector minus the bare engine, EPIC as engine + core minus
 * the bare engine, the optimizer as a full construction minus a tier-0
 * (packaging + linking only) construction of the same regions.
 */

#include <algorithm>
#include <filesystem>

#include "bench.hh"
#include "fleet/controller.hh"
#include "fleet/serialize.hh"
#include "fleet/store.hh"
#include "hsd/detector.hh"
#include "ir/verify.hh"
#include "runtime/controller.hh"
#include "runtime/stats.hh"
#include "runtime/verifier.hh"
#include "sim/core.hh"
#include "trace/engine.hh"
#include "vp/pipeline.hh"
#include "vp/stages.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using vp::workload::Workload;

namespace
{

void
timedVerify(Tracer &t, Result &result, const vp::ir::Program &prog)
{
    vp::Status st = [&] {
        Scope s(t, "ir.verify");
        return vp::ir::verifyProgram(prog, "perfbench probe");
    }();
    t.count("ir.verify_calls", 1);
    result.attempt();
    if (!st) {
        t.count("ir.verify_failures", 1);
        result.mismatch(st.message());
    }
}

void
countOpt(Tracer &t, const vp::opt::OptStats &o)
{
    t.count("opt.loops_unrolled", o.loopsUnrolled);
    t.count("opt.insts_sunk", o.instsSunk);
    t.count("opt.dead_removed", o.deadRemoved);
    t.count("opt.blocks_merged", o.blocksMerged);
    t.count("opt.flipped_branches", o.flippedBranches);
    t.count("opt.jumps_removed", o.jumpsRemoved);
    t.count("opt.blocks_scheduled", o.blocksScheduled);
    t.count("opt.insts_moved", o.instsMoved);
    t.count("opt.functions_optimized", o.functionsOptimized);
}

void
countRuntime(Tracer &t, const vp::runtime::RuntimeStats &s)
{
    t.count("runtime.tenants", 1);
    t.count("runtime.detections", s.detections);
    t.count("runtime.builds", s.builds);
    t.count("runtime.tier0_builds", s.tier0Builds);
    t.count("runtime.installs", s.installs);
    t.count("runtime.cache_hits", s.cacheHits);
    t.count("runtime.compile_latency_q", s.compileLatencyQuanta);
    t.count("runtime.install_stall_q", s.installStallQuanta);
    t.count("runtime.plan_rebuilds", s.planRebuilds);
    t.count("runtime.failed_builds", s.failedBuilds);
    t.count("runtime.rollbacks", s.installRollbacks);
}

/** Every stored image under @p dir, namespace by namespace. */
std::vector<std::pair<std::uint64_t, fs::path>>
storedImages(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, fs::path>> out;
    for (const auto &nsDir : fs::directory_iterator(dir)) {
        if (!nsDir.is_directory() || nsDir.path().filename() == "quarantine")
            continue;
        const std::uint64_t ns =
            std::stoull(nsDir.path().filename().string(), nullptr, 16);
        for (const auto &f : fs::directory_iterator(nsDir.path()))
            if (f.path().extension() == ".vpb")
                out.push_back({ns, f.path()});
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::vector<std::string>
probeLayers(Tracer &t, Result &result, const std::vector<Workload> &roster,
            bool with_sim)
{
    const vp::VpConfig cfg; // the paper's inf+link configuration
    const vp::runtime::RuntimeConfig rt = fleetRuntimeConfig();
    std::vector<std::string> texts;
    for (std::size_t row = 0; row < roster.size(); ++row) {
        const Workload &w = roster[row];
        Scope rowSpan(t, "probe.row", static_cast<std::int64_t>(row));

        {
            vp::trace::ExecutionEngine eng(w.program, w);
            Scope s(t, "trace.bare");
            t.count("trace.insts", eng.run(w.maxDynInsts).dynInsts);
        }
        {
            vp::trace::ExecutionEngine eng(w.program, w);
            vp::hsd::HotSpotDetector det(cfg.hsd, &eng.oracle());
            eng.addSink(&det);
            Scope s(t, "hsd.engine");
            eng.run(w.maxDynInsts);
            t.count("hsd.detections", det.stats().detections());
            t.count("hsd.restarts", det.stats().monitorRestarts);
        }
        if (with_sim) {
            vp::trace::ExecutionEngine eng(w.program, w);
            vp::sim::EpicCore core(w.program, cfg.machine);
            eng.addSink(&core);
            Scope s(t, "sim.engine");
            t.count("sim.insts", eng.run(w.maxDynInsts).dynInsts);
            t.count("sim.cycles", core.stats().cycles);
        }

        // Synthesis from this row's own filtered hot spots.
        vp::VacuumPacker packer(w, cfg);
        vp::VpResult profiled;
        packer.profile(profiled);
        std::vector<vp::region::Region> regions;
        {
            Scope s(t, "region.identify");
            regions = vp::identifyRegions(w.program, profiled.records,
                                          cfg.region);
        }
        t.count("region.regions", regions.size());
        vp::VpConfig tier0 = cfg;
        tier0.opt = vp::opt::budgetedOptConfig(cfg.opt, 0);
        {
            auto built = [&] {
                Scope s(t, "package.construct");
                return vp::tryConstructPackages(w.program, regions, tier0);
            }();
            if (built) {
                const auto &p = built.value().packaged;
                t.count("package.packages", p.packages.size());
                t.count("package.links", p.numLinks);
                t.count("package.added_insts", p.addedInsts);
            } else {
                t.count("package.failures", 1);
                result.failOp();
            }
        }
        {
            auto built = [&] {
                Scope s(t, "opt.construct");
                return vp::tryConstructPackages(w.program, regions, cfg);
            }();
            if (built) {
                countOpt(t, built.value().optStats);
                timedVerify(t, result, built.value().packaged.program);
            } else {
                t.count("package.failures", 1);
                result.failOp();
            }
        }

        // One tenant on its own: the runtime layer without the fleet.
        vp::runtime::RuntimeController controller(w, rt);
        vp::runtime::RuntimeStats stats = [&] {
            Scope s(t, "runtime.tenant");
            return controller.run();
        }();
        countRuntime(t, stats);
        timedVerify(t, result, controller.liveProgram());
        texts.push_back(vp::runtime::toText(stats, w.label()));
    }
    return texts;
}

void
probeStore(Tracer &t, Result &result, const std::vector<Workload> &roster,
           const std::string &store_dir, const std::string &scratch_dir)
{
    const vp::runtime::RuntimeConfig rt = fleetRuntimeConfig();
    vp::fleet::BundleStore store(store_dir);

    // Read path, as warm start runs it: recovery scan + load.
    std::vector<std::uint64_t> namespaces;
    for (const auto &[ns, path] : storedImages(store_dir))
        if (namespaces.empty() || namespaces.back() != ns)
            namespaces.push_back(ns);
    std::vector<std::pair<std::uint64_t, vp::fleet::StoredBundle>> bundles;
    {
        Scope s(t, "store.load");
        for (std::uint64_t ns : namespaces) {
            store.recoverNamespace(ns);
            vp::fleet::NamespaceLoad load = store.loadNamespace(ns);
            if (load.corrupt)
                result.mismatch(format("store %016llx: %zu corrupt images",
                                       static_cast<unsigned long long>(ns),
                                       load.corrupt));
            for (auto &b : load.bundles)
                bundles.push_back({ns, std::move(b)});
        }
    }

    // Install gate over every stored bundle, against its tenant's
    // pristine program.
    for (const auto &[ns, sb] : bundles) {
        const Workload *owner = nullptr;
        for (const Workload &w : roster)
            if (vp::fleet::FleetController::namespaceOf(w, rt) == ns)
                owner = &w;
        if (!owner) {
            result.mismatch("stored namespace matches no roster row");
            continue;
        }
        vp::runtime::PackageVerifier gate(owner->program);
        vp::Status st = [&] {
            Scope s(t, "verifier.verify");
            return gate.verify(sb.bundle);
        }();
        t.count("verifier.calls", 1);
        result.attempt();
        if (!st) {
            t.count("verifier.rejects", 1);
            result.failOp();
        }
    }

    // Serializer round trip: encode every bundle, decode the image, and
    // require the canonical re-encoding to be byte-identical.
    for (const auto &[ns, sb] : bundles) {
        std::vector<std::uint8_t> image = [&] {
            Scope s(t, "serialize.encode");
            return vp::fleet::serializeBundle(sb.bundle);
        }();
        t.count("serialize.bytes", static_cast<double>(image.size()));
        auto decoded = [&] {
            Scope s(t, "serialize.decode");
            return vp::fleet::deserializeBundle(image.data(), image.size());
        }();
        result.attempt();
        if (!decoded || vp::fleet::serializeBundle(decoded.value()) != image)
            result.mismatch("serializer round trip is not canonical");
    }

    // Write path, as the end-of-run flush runs it, into a fresh store.
    fs::remove_all(scratch_dir);
    vp::fleet::BundleStore fresh(scratch_dir);
    for (const auto &[ns, sb] : bundles) {
        auto wrote = [&] {
            Scope s(t, "store.put");
            return fresh.put(ns, sb.key, sb.bundle);
        }();
        if (!wrote || !wrote.value())
            result.mismatch("BundleStore::put did not write a new image");
    }
    std::uint64_t images = 0;
    std::uint64_t bytes = 0;
    for (const auto &[ns, path] : storedImages(scratch_dir)) {
        ++images;
        bytes += fs::file_size(path);
    }
    t.count("store.images", static_cast<double>(images));
    t.count("store.bytes", static_cast<double>(bytes));
    fs::remove_all(scratch_dir);
}

void
emitLayerMetrics(const Tracer &t, Result &r)
{
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto c = [&](const char *name) { return t.countOf(name); };
    const auto count = [&](const char *name, const char *unit = "count") {
        r.metric(name, c(name), unit);
    };

    count("workload.build_s", "s");

    const double bare = t.totalSeconds("trace.bare");
    count("trace.insts");
    r.metric("trace.busy_s", bare, "s");
    r.metric("trace.minst_per_s", ratio(c("trace.insts"), bare) / 1e6,
             "Minst/s");

    const double hsd = t.totalSeconds("hsd.engine");
    r.metric("hsd.self_s", hsd > 0.0 ? hsd - bare : 0.0, "s");
    count("hsd.detections");
    count("hsd.restarts");

    const double sim = t.totalSeconds("sim.engine");
    r.metric("sim.busy_s", sim, "s");
    r.metric("sim.self_s", sim > 0.0 ? sim - bare : 0.0, "s");
    count("sim.cycles");
    r.metric("sim.minst_per_s", ratio(c("sim.insts"), sim) / 1e6,
             "Minst/s");

    for (const char *stage : {"profile", "identify", "construct", "coverage",
                              "timing", "categorize"}) {
        r.metric(format("vp.%s_s", stage),
                 t.selfSeconds(format("vp.%s", stage)), "s");
    }
    count("vp.queue_wait_s", "s");
    r.metric("vp.row_self_s", t.selfSeconds("offline.row"), "s");
    count("vp.run_cache_hits");
    count("vp.run_cache_misses");
    count("vp.dropped_phases");

    r.metric("region.busy_s", t.totalSeconds("region.identify"), "s");
    count("region.regions");

    const double pkg = t.totalSeconds("package.construct");
    r.metric("package.busy_s", pkg, "s");
    count("package.packages");
    count("package.links");
    count("package.added_insts");
    count("package.failures");

    const double opt = t.totalSeconds("opt.construct");
    r.metric("opt.busy_s", opt > 0.0 ? opt - pkg : 0.0, "s");
    for (const char *k :
         {"opt.loops_unrolled", "opt.insts_sunk", "opt.dead_removed",
          "opt.blocks_merged", "opt.flipped_branches", "opt.jumps_removed",
          "opt.blocks_scheduled", "opt.insts_moved",
          "opt.functions_optimized"})
        count(k);

    const double verify = t.totalSeconds("ir.verify");
    count("ir.verify_calls");
    r.metric("ir.verify_s", verify, "s");
    r.metric("ir.verify_s_per_call", ratio(verify, c("ir.verify_calls")),
             "s");
    count("ir.verify_failures");

    count("verifier.calls");
    r.metric("verifier.busy_s", t.totalSeconds("verifier.verify"), "s");
    count("verifier.rejects");

    const std::vector<double> tenants = t.durations("runtime.tenant");
    count("runtime.tenants");
    r.metric("runtime.tenant_p50_s", median(tenants), "s");
    r.metric("runtime.tenant_max_s", percentile(tenants, 1.0), "s");
    for (const char *k :
         {"runtime.detections", "runtime.builds", "runtime.tier0_builds",
          "runtime.installs", "runtime.cache_hits", "runtime.failed_builds",
          "runtime.rollbacks", "runtime.plan_rebuilds"})
        count(k);
    count("runtime.compile_latency_q", "quanta");
    count("runtime.install_stall_q", "quanta");

    r.metric("fleet.run_s", t.totalSeconds("fleet.run"), "s");
    for (const char *k :
         {"fleet.tenants", "fleet.jobs_submitted", "fleet.jobs_executed",
          "fleet.jobs_from_cache", "fleet.cache_lookups",
          "fleet.store_loaded", "fleet.store_saved", "fleet.degraded",
          "fleet.pool_task_errors"})
        count(k);
    r.metric("fleet.cache_hit_ratio",
             ratio(c("fleet.cache_hits"), c("fleet.cache_lookups")), "ratio");
    count("fleet.stall_quanta", "quanta");

    r.metric("store.read_s", t.totalSeconds("store.load"), "s");
    r.metric("store.write_s", t.totalSeconds("store.put"), "s");
    count("store.images");
    count("store.bytes", "B");

    const double enc = t.totalSeconds("serialize.encode");
    const double dec = t.totalSeconds("serialize.decode");
    count("serialize.bytes", "B");
    r.metric("serialize.encode_s", enc, "s");
    r.metric("serialize.decode_s", dec, "s");
    // Round trip: every byte is encoded once and decoded once.
    r.metric("serialize.mb_per_s",
             ratio(2.0 * c("serialize.bytes"), enc + dec) / 1e6, "MB/s");

    const double untraced = c("bench.untraced_pass_s");
    count("bench.untraced_pass_s", "s");
    count("bench.traced_pass_s", "s");
    r.metric("bench.trace_overhead_pct",
             100.0 * ratio(c("bench.traced_pass_s") - untraced, untraced),
             "%");
    r.metric("bench.spans", static_cast<double>(t.size()), "count");
}

} // namespace perfbench
