// perfbench: one workload per invocation.
//
//   perfbench --workload frames_open|routed_closed|compile_ad
//             --seed N --seconds S --trace 0|1
//
// Prints metadata, correctness gates and metrics, then one
// "PERFBENCH_RESULT {json}" line that perfbench/run.py reads. Exit code
// 0 when every gate passed, 1 when one failed, 2 on bad usage.

#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "kernels/kernel_dispatch.hpp"
#include "measure.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

void
reportSetup(Report &report, std::vector<double> setup_s)
{
    Percentile p50 = nearestRank(setup_s, 0.5);
    report.metric("setup_s", p50.value, "s", p50.count);
}

}  // namespace perfbench

namespace {

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload frames_open|routed_closed|"
                 "compile_ad --seed N --seconds S --trace 0|1\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else
                return usage("unknown flag " + flag);
        } catch (const std::exception &) {
            return usage("bad value for " + flag + ": " + value);
        }
    }
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    void (*run)(const perfbench::Args &, perfbench::Report &) = nullptr;
    if (args.workload == "frames_open")
        run = perfbench::runFramesOpen;
    else if (args.workload == "routed_closed")
        run = perfbench::runRoutedClosed;
    else if (args.workload == "compile_ad")
        run = perfbench::runCompileAd;
    else
        return usage("unknown workload '" + args.workload + "'");

    namespace hk = homunculus::kernels;
    perfbench::Report report;
    report.meta("workload", args.workload);
    report.meta("seed", std::to_string(args.seed));
    report.meta("seconds", std::to_string(args.seconds));
    report.meta("trace", args.trace ? "1" : "0");
    report.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.meta("kernel_target",
                std::string(hk::kernelTargetName(
                    hk::KernelDispatch::active())) +
                    " (" + hk::KernelDispatch::provenance() + ")");
    report.meta("build_type", PERFBENCH_BUILD_TYPE);
    report.meta("compiler", __VERSION__);

    try {
        run(args, report);
    } catch (const std::exception &e) {
        report.gate("ran_to_completion", false, e.what());
    }
    report.print(std::cout);
    return report.correct() ? 0 : 1;
}
