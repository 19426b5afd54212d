/**
 * @file
 * Multi-application scheduling: the > and | composition operators and
 * model fusion (paper §3.1, §3.2.5, §5.1.3).
 *
 * Deploys an anomaly detector and a traffic classifier on one Taurus
 * switch in different topologies, prints the composed resource/latency
 * envelope per strategy, and then demonstrates dataset fusion on two
 * tenants with overlapping feature sets.
 *
 * Run: ./multi_app_chaining
 */
#include <iostream>

#include "core/compiler.hpp"
#include "core/fusion.hpp"
#include "data/anomaly_generator.hpp"
#include "data/iot_traffic_generator.hpp"

int
main()
{
    using namespace homunculus;

    std::cout << "=== Homunculus multi-application scheduling ===\n\n";

    core::ModelSpec ad;
    ad.name = "ad";
    ad.optimizationMetric = core::Metric::kF1;
    ad.algorithms = {core::Algorithm::kDnn};
    ad.dataLoader = [] {
        data::AnomalyConfig config;
        config.numSamples = 1500;
        return data::generateAnomalySplit(config);
    };

    core::ModelSpec tc = ad;
    tc.name = "tc";
    tc.dataLoader = [] {
        data::IotTrafficConfig config;
        config.numSamples = 1500;
        return data::generateIotTrafficSplit(config);
    };

    // ---- Schedule both sequentially and in parallel. ---------------------
    auto platform = core::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(ad > tc);          // inline AD before TC.
    platform.schedule(ad | tc);          // independent parallel apps.

    core::CompileOptions options;
    options.bo.numInitSamples = 3;
    options.bo.numIterations = 5;
    options.jobs = 2;
    core::Compiler compiler(options);
    auto compiled = compiler.compile(platform);
    if (!compiled.isOk()) {
        std::cerr << "compile failed: " << compiled.status().toString()
                  << "\n";
        return 1;
    }
    const core::CompileReport &result = compiled.value();

    for (std::size_t i = 0; i < result.scheduleResources.size(); ++i) {
        const auto &resources = result.scheduleResources[i];
        std::cout << "schedule " << platform.schedules()[i].notation()
                  << ":\n"
                  << "  CUs " << resources.computeUnits << ", MUs "
                  << resources.memoryUnits << ", latency "
                  << resources.latencyNs << " ns, throughput "
                  << resources.throughputGpps << " GPkt/s\n";
    }
    std::cout << "\nnote: CU/MU totals are identical across strategies "
                 "(Table 3); only latency composes differently.\n\n";

    // ---- Fusion: two tenants, same feature schema. -----------------------
    auto full = ad.dataLoader();
    auto [tenant_a, tenant_b] = core::halveSplit(full, 11);
    auto overlap =
        core::assessFeatureOverlap(tenant_a.train, tenant_b.train);
    std::cout << "tenant feature overlap: " << overlap.fraction * 100
              << "% -> "
              << (core::shouldFuse(tenant_a.train, tenant_b.train)
                      ? "fusing into a single model"
                      : "keeping separate models")
              << "\n";

    auto fused = core::fuseSplits(tenant_a, tenant_b);
    core::ModelSpec fused_spec = ad;
    fused_spec.name = "ad_fused";
    fused_spec.dataLoader = [fused] { return fused; };
    auto fused_platform = core::Platforms::taurus();
    fused_platform.constrain({1.0, 500.0}, {16, 16});
    fused_platform.schedule(fused_spec);
    auto fused_compiled = compiler.compile(fused_platform).value();
    const core::GeneratedModel &fused_model = fused_compiled.models.front();
    std::cout << "fused model: " << fused_model.model.paramCount()
              << " params, F1 " << fused_model.objective << ", "
              << fused_model.report.summary() << "\n";
    return 0;
}
