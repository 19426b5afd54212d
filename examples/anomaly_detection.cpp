/**
 * @file
 * Anomaly detection end-to-end: the paper's running example (§3) with
 * every compiler stage surfaced.
 *
 * Walks through what Compiler::compile() does internally — candidate
 * selection, design-space creation, the BO search trace, feasibility
 * reports from the Taurus backend, and finally both the winning Spatial
 * program and the per-packet simulation of the deployed model — so
 * users can see each Figure 2 stage rather than just the final binary.
 *
 * Run: ./anomaly_detection
 */
#include <iostream>

#include "backends/mapreduce_sim.hpp"
#include "core/compiler.hpp"
#include "core/design_space.hpp"
#include "data/anomaly_generator.hpp"
#include "ml/metrics.hpp"

int
main()
{
    using namespace homunculus;

    std::cout << "=== Homunculus anomaly-detection walkthrough ===\n\n";

    // ---- Alchemy program -------------------------------------------------
    core::ModelSpec spec;
    spec.name = "anomaly_detection";
    spec.optimizationMetric = core::Metric::kF1;
    spec.dataLoader = [] {
        data::AnomalyConfig config;
        config.numSamples = 3000;
        config.noiseLevel = 1.2;
        config.stealthFraction = 0.1;
        return data::generateAnomalySplit(config);
    };

    auto platform = core::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});

    // ---- Stage 1: candidate selection (paper §3.2.1) -------------------
    ml::DataSplit split = spec.dataLoader();
    auto candidates = core::selectCandidates(
        spec, platform.platform(), split.train.numFeatures(),
        split.train.numClasses);
    std::cout << "candidate algorithm families on "
              << platform.platform().name() << ":";
    for (auto algorithm : candidates)
        std::cout << " " << core::algorithmName(algorithm);
    std::cout << "\n";

    // ---- Stage 2: design-space creation (paper §3.2.2) ------------------
    auto space = core::buildDesignSpace(core::Algorithm::kDnn, spec,
                                        platform.platform());
    std::cout << "DNN design space: " << space.size()
              << " variables, ~" << space.cardinalityEstimate()
              << " discrete configurations\n\n";

    // ---- Stage 3: BO-guided search (paper §3.2.3-4) ---------------------
    spec.algorithms = {core::Algorithm::kDnn};
    core::CompileOptions options;
    options.bo.numInitSamples = 4;
    options.bo.numIterations = 10;
    platform.schedule(spec);
    auto outcome = core::Compiler(options).compile(platform);
    if (!outcome.isOk()) {
        std::cerr << "search failed: " << outcome.status().toString()
                  << "\n";
        return 1;
    }
    const core::GeneratedModel &generated = outcome->models.front();

    std::cout << "search trace (F1 / feasible / CUs):\n";
    for (const auto &record : generated.searchHistory.history) {
        std::cout << "  " << (record.fromWarmup ? "[warm]" : "[bo]  ")
                  << " f1=" << record.result.objective
                  << " feasible=" << (record.result.feasible ? "y" : "n")
                  << " cus=" << record.result.metrics.at("cus") << "\n";
    }

    std::cout << "\nwinner: " << core::algorithmName(generated.algorithm)
              << " with " << generated.model.paramCount() << " params, "
              << generated.report.summary() << "\n\n";

    // ---- Stage 4: deploy on the cycle-approximate simulator -------------
    backends::MapReduceSimulator sim;
    auto stream = sim.runStream(generated.model, split.test.x);
    double f1 = ml::f1ForTask(split.test.y, stream.labels,
                              split.test.numClasses);
    std::cout << "simulated deployment: " << split.test.numSamples()
              << " packets, latency " << stream.latencyNs
              << " ns, throughput " << stream.throughputGpps
              << " GPkt/s, F1 " << f1 << "\n\n";

    // ---- Stage 5: the generated Spatial program --------------------------
    std::cout << "--- generated Spatial (head) ---\n";
    std::size_t printed = 0, pos = 0;
    while (printed < 12 && pos != std::string::npos) {
        std::size_t next = generated.code.find('\n', pos);
        std::cout << generated.code.substr(pos, next - pos) << "\n";
        pos = next == std::string::npos ? next : next + 1;
        ++printed;
    }
    return 0;
}
