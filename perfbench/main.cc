/**
 * @file
 * Benchmark driver binary. Usage:
 *
 *   vpbench --workload offline_pack|fleet_cold|fleet_warm --seed N
 *           --seconds S --trace 0|1 --work-dir DIR [--spans FILE]
 *
 * Prints the human-readable metric table, then one JSON line with
 * `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
 * correctness check fails, 2 on bad arguments. run.py builds and runs it.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "support/rng.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

void
Result::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Result::mismatch(const std::string &what)
{
    mismatches_.push_back(what);
    ++failed_;
}

void
Result::print() const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    for (const std::string &m : mismatches_)
        std::printf("MISMATCH: %s\n", m.c_str());
    std::string json = format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, vu] = metrics_[i];
        // Every digit as measured; non-finite values are not JSON.
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", name.c_str(), v, vu.second.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
referenceSeconds()
{
    std::vector<double> cpu(kWorkers, 0.0);
    std::vector<std::uint64_t> sink(kWorkers, 0);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kWorkers; ++t) {
            threads.emplace_back([&, t] {
                timespec t0;
                timespec t1;
                clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
                std::vector<std::uint32_t> table(1u << 20);
                std::uint64_t x = vp::splitmix64(t + 1);
                for (std::uint32_t &v : table)
                    v = static_cast<std::uint32_t>(x = vp::splitmix64(x));
                std::uint64_t acc = 0;
                for (int i = 0; i < 8'000'000; ++i) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    std::uint32_t &v = table[x & (table.size() - 1)];
                    if (v & 1)
                        acc += v;
                    else
                        acc ^= v >> 3;
                    v = static_cast<std::uint32_t>(v + acc);
                }
                sink[t] = acc;
                clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
                cpu[t] = static_cast<double>(t1.tv_sec - t0.tv_sec) +
                         static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e9;
            });
        }
    }
    double total = 0.0;
    for (double c : cpu)
        total += c;
    // The result feeds nothing else; keep the loop from being elided.
    volatile std::uint64_t keep = sink[0];
    (void)keep;
    return total;
}

double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
resetPeakRss()
{
    // Hand freed heap back first, so a pass's peak is its own live memory
    // and not the previous passes' fragmentation.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

std::string
filesystemOf(const std::string &path)
{
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext4";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x01021994: return "tmpfs";
      case 0x794C7630: return "overlayfs";
      case 0x6969: return "nfs";
      default:
        return format("0x%lx", static_cast<unsigned long>(st.f_type));
    }
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list again;
    va_copy(again, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(len > 0 ? static_cast<std::size_t>(len) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    va_end(again);
    return out;
}

double
buildRoster(std::vector<vp::workload::Workload> &roster)
{
    std::vector<double> times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double ref = referenceSeconds();
        const auto t0 = Clock::now();
        roster = vp::workload::makeAllWorkloads();
        times.push_back(calibrated(secondsSince(t0), ref));
    }
    return median(times);
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: vpbench --workload offline_pack|fleet_cold|"
                 "fleet_warm --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            args.trace = std::strcmp(val, "0") != 0;
        else if (key == "--work-dir")
            args.workDir = val;
        else if (key == "--spans")
            args.spansPath = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || args.workDir.empty() || !(args.seconds > 0.0))
        return usage();
    std::filesystem::create_directories(args.workDir);

    Result result;
    result.note(format("workload %s, seed %llu, %g s, trace %d",
                       args.workload.c_str(),
                       static_cast<unsigned long long>(args.seed),
                       args.seconds, args.trace ? 1 : 0));
    if (args.workload == "offline_pack")
        runOfflinePack(args, result);
    else if (args.workload == "fleet_cold")
        runFleet(args, /*warm=*/false, result);
    else if (args.workload == "fleet_warm")
        runFleet(args, /*warm=*/true, result);
    else
        return usage();
    result.print();
    return result.correct() ? 0 : 1;
}
