/**
 * @file
 * Golden reports of the online runtime: an FNV-64 digest of
 * toText(RuntimeController::run()) for every roster row under five
 * configurations, and of one supervised 20-tenant fleet chaos run.
 *
 * The configurations are picked so that every way a bundle leaves the
 * live program fires somewhere in the table: displacement, promotion
 * and merged-fragment retirement (default), the single-tier and
 * no-merge paths, capacity eviction (a 256-instruction cache), and the
 * gate reject / watchdog deopt / quarantine paths (fault rate 0.5 with
 * the watchdog on). The fleet run adds tenant crashes with supervised
 * restart, poisoned and torn store images. Any behavioral change to
 * the controller shows up as a digest mismatch; the failure message
 * prints the full recomputed table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/controller.hh"
#include "runtime/config.hh"
#include "runtime/controller.hh"
#include "runtime/stats.hh"
#include "support/fault.hh"
#include "workload/benchmarks.hh"

namespace
{

using namespace vp;
using namespace vp::runtime;

/** 64-bit FNV-1a over the bytes of @p s. */
std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct NamedConfig
{
    const char *name;
    RuntimeConfig cfg;
};

std::vector<NamedConfig>
goldenConfigs()
{
    std::vector<NamedConfig> out;
    RuntimeConfig base;
    base.workers = 1;
    out.push_back({"default", base});

    RuntimeConfig no_merge = base;
    no_merge.mergeOverlapping = false;
    out.push_back({"no-merge", no_merge});

    RuntimeConfig no_tier = base;
    no_tier.tiering = false;
    out.push_back({"no-tiering", no_tier});

    RuntimeConfig small = base;
    small.cacheCapacityInsts = 256;
    out.push_back({"capacity-256", small});

    // Same spec and watchdog as `vpack runtime --fault-inject=0.5
    // --fault-seed=7` (the fleet-only kinds are inert in one tenant).
    RuntimeConfig faulty = base;
    const Expected<fault::FaultConfig> fc =
        fault::FaultConfig::parse("0.5", 7);
    EXPECT_TRUE(fc.isOk()) << fc.status().message();
    faulty.fault = fc.value();
    faulty.watchdog = true;
    out.push_back({"faults-0.5-seed7", faulty});
    return out;
}

/** Expected digests, one row per roster entry, one column per
 *  goldenConfigs() entry. */
struct GoldenRow
{
    const char *label;
    const char *digest[5];
};

const GoldenRow kGolden[] = {
    // clang-format off
    {"099.go A",
     {"fbd6429c9d0d358b", "a4633487818f84ff", "df215d8e696d6ea7", "04b23752ba03abce", "756faec562e50b9c"}},
    {"124.m88ksim A",
     {"f690f8614872e58c", "b4f113d44d6d52c4", "4f773a5a0fb3f7d6", "f690f8614872e58c", "dee1d2d66cbd634f"}},
    {"130.li A",
     {"14ef3722fe594dc7", "6ed2923ba8364651", "caeb4e007fb252df", "14ef3722fe594dc7", "cf0f988fc40cb918"}},
    {"130.li B",
     {"fa866e6a6d045e65", "fa866e6a6d045e65", "e75513185b4a76c4", "fa866e6a6d045e65", "5d56069a727e2919"}},
    {"130.li C",
     {"db742cfcbbe06e87", "7b32898e94c4885f", "265adf5a0f8d0c7a", "db742cfcbbe06e87", "45903eea78174d8c"}},
    {"132.ijpeg A",
     {"5e8c1a2d2b977942", "4619e677435f2d09", "de0ed96bf909d90a", "5e8c1a2d2b977942", "2ab53c711d301eb4"}},
    {"132.ijpeg B",
     {"e8f9479102c87069", "fec387421047b974", "a5ad8657d6e54ea0", "e8f9479102c87069", "e240e12734e09268"}},
    {"132.ijpeg C",
     {"174e3f5bc68d74d5", "32b63145615162c6", "4c1c574857fc0557", "174e3f5bc68d74d5", "e53d36bddb356241"}},
    {"134.perl A",
     {"4e8f116949df8595", "0c26cc751a8f3844", "f34192a4b9e7017a", "4e8f116949df8595", "6ba227b51388673c"}},
    {"134.perl B",
     {"5cceb7582b6b5df7", "005517f7d05d1b54", "d566c30d379c4345", "5cceb7582b6b5df7", "2b5736ccccd7685d"}},
    {"134.perl C",
     {"4aeda2437b574616", "4aeda2437b574616", "80a1e8075deb2232", "4aeda2437b574616", "7f9a736e22c4959b"}},
    {"164.gzip A",
     {"17b8cd7e8b683e8a", "6ed1f46dd0db024c", "548732c7d1e40fd6", "17b8cd7e8b683e8a", "5fde814e9cbe4625"}},
    {"175.vpr A",
     {"ac5b6e7f238929a6", "44008bc2f403bfec", "c978d5e5f7e30894", "ac5b6e7f238929a6", "de80a9b902286de3"}},
    {"181.mcf A",
     {"940c38ad68827d88", "84b8a889f07f1755", "40f2f5ea811c65ac", "940c38ad68827d88", "2e0890a102f534b4"}},
    {"197.parser A",
     {"8857a743c32a0957", "afa82e484a465aeb", "9ae5ededa97d0e31", "8857a743c32a0957", "1c2221019f491603"}},
    {"255.vortex A",
     {"247de1371fc2b4be", "beea7c70a9d33ffd", "75bb781626cec1bd", "bd0a10593449fba5", "8ace09e65248f3dc"}},
    {"255.vortex B",
     {"a6df6bc330d6fd61", "89fbba5f6d5f11bd", "e5db5d4aa3b8c091", "286834fa918a6e28", "2d358e33a572a685"}},
    {"255.vortex C",
     {"15d87ff84d5e1e7e", "33a0fd1e0e823ef4", "57bb7418b42de303", "48331552fc51079e", "34df4228b1379b34"}},
    {"300.twolf A",
     {"d44c7b40c7711093", "ab321d3c02fd3067", "21c6d4927480748d", "d44c7b40c7711093", "bbe4dd2e70f8ab8b"}},
    {"mpeg2dec A",
     {"ba17d6e2250a6a61", "a3ecd10ee4c11fe8", "8c316b878c588cdc", "ba17d6e2250a6a61", "fd3978d9db04fa21"}},
    // clang-format on
};

TEST(RuntimeGolden, RosterReportsMatchPinnedDigests)
{
    const std::vector<NamedConfig> configs = goldenConfigs();
    ASSERT_EQ(configs.size(), std::size(kGolden[0].digest));
    const std::vector<workload::Workload> roster =
        workload::makeAllWorkloads();

    // Digest every (row, config) first so a mismatch can print the whole
    // recomputed table, not just the first differing cell.
    std::vector<std::vector<std::string>> got(roster.size());
    std::ostringstream table;
    for (std::size_t r = 0; r < roster.size(); ++r) {
        const workload::Workload &w = roster[r];
        table << "    {\"" << w.label() << "\",\n     {";
        for (std::size_t c = 0; c < configs.size(); ++c) {
            RuntimeController controller(w, configs[c].cfg);
            got[r].push_back(hex(fnv64(toText(controller.run(), w.label()))));
            table << (c ? ", " : "") << "\"" << got[r][c] << "\"";
        }
        table << "}},\n";
    }

    bool all_match = roster.size() == std::size(kGolden);
    for (std::size_t r = 0; all_match && r < roster.size(); ++r) {
        EXPECT_EQ(roster[r].label(), kGolden[r].label);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (got[r][c] != kGolden[r].digest[c]) {
                all_match = false;
                ADD_FAILURE() << roster[r].label() << " [" << configs[c].name
                              << "]: digest " << got[r][c] << ", pinned "
                              << kGolden[r].digest[c];
            }
        }
    }
    EXPECT_TRUE(all_match) << "recomputed golden table:\n" << table.str();
}

TEST(RuntimeGolden, FleetChaosReportMatchesPinnedDigest)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "golden-chaos";
    fs::remove_all(dir);

    fleet::FleetConfig fc;
    fc.rt.workers = 1;
    fc.rt.budget = 200000;
    fc.tenants = 20;
    fc.shards = 4;
    fc.threads = 1;
    fc.tenantRetries = 2;
    fc.storeDir = dir.string();
    const Expected<fault::FaultConfig> spec =
        fault::FaultConfig::parse("0.2", 7);
    ASSERT_TRUE(spec.isOk()) << spec.status().message();
    fc.fault = spec.value();

    const fleet::FleetStats stats = fleet::FleetController(fc).run();
    fs::remove_all(dir);

    // The run must actually exercise every fleet fault kind.
    EXPECT_GT(stats.tenantCrashes, 0u);
    EXPECT_GT(stats.storePoisonInjected, 0u);
    EXPECT_GT(stats.tornWriteInjected, 0u);
    const std::string text = fleet::toText(stats, true);
    EXPECT_EQ(hex(fnv64(text)), "3cb0df6b8c23555c") << text;
}

} // namespace
