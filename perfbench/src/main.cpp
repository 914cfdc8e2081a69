/**
 * @file
 * dlrm_bench: the repository benchmark. One run trains a workload's model
 * on a 2-rank world and serves its snapshot through a 2-replica fleet
 * under open-loop traffic, alternating timed training windows with
 * serving pieces; it checks every output, and prints a metric table, a
 * host/build fingerprint and, as the last line, one JSON result object.
 * With --trace 1 it also runs traced steps and single-layer replays.
 *
 * Usage: dlrm_bench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--source TEXT]
 */
#include <sys/resource.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/parallel_for.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string source = "unknown";
};

bool
ParseArgs(int argc, char** argv, Args& args)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--source") {
            args.source = value;
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1 && args.seconds > 0.0;
}

std::string
CpuBrand()
{
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf < 0x80000004u) {
        return "unknown";
    }
    for (unsigned int i = 0; i < 3; i++) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
}

/** Host and build fingerprint, one JSON line on stdout. */
void
PrintFingerprint(const Args& args)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    const auto tier = neo::kernels::ActiveTier();
    const double tier_gauge =
        neo::obs::MetricsRegistry::Get().GetGauge("neo.kernels.tier").value();
    const char* threads_env = std::getenv("NEO_NUM_THREADS");
    std::printf(
        "fingerprint {\"cpu\": \"%s\", \"cpu_flags\": \"%s\", \"nproc\": %u, "
        "\"kernel_tier\": \"%s\", \"kernel_tier_gauge\": %g, "
        "\"intra_op_threads\": %zu, \"NEO_NUM_THREADS\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
        "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d}\n",
        CpuBrand().c_str(), neo::CpuFeatures::Host().ToString().c_str(),
        std::thread::hardware_concurrency(), neo::kernels::TierName(tier),
        tier_gauge, neo::DefaultParallelism(),
        threads_env != nullptr ? threads_env : "",
        NEO_BENCH_CXX_ID " " __VERSION__, NEO_BENCH_BUILD_TYPE,
        optimized ? "true" : "false", args.source.c_str(),
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace ? 1 : 0);
    if (!optimized) {
        std::printf("WARNING: this build is not optimised; its timings are "
                    "not comparable\n");
    }
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!ParseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: dlrm_bench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--source TEXT]\n");
        return 2;
    }
    try {
        const Workload w = MakeWorkload(args.workload);
        PrintFingerprint(args);
        Report report;
        Training training(w, args.seed, args.seconds, args.trace);
        Serving serving(w, training.outcome(), args.seed, args.seconds,
                        report);
        for (int k = 0; k < kWindows; k++) {
            training.RunWindow();
            serving.RunPiece();
        }
        const double serve_setup_s = serving.Finish(report);
        training.Finish(report);
        TrainOutcome& train = training.outcome();
        if (args.trace) {
            RunReplays(w, train, report);
        }
        report.Add("setup_s", "s",
                   train.setup_s + train.cut_s + serve_setup_s);
        report.Add("peak_rss_mb", "MB", PeakRssMb());
        report.PrintTables();
        std::printf("%s\n", report.ResultJson().c_str());
        std::fflush(stdout);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dlrm_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
