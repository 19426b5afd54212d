#include "backends/fpga.hpp"

#include <cmath>

#include "backends/spatial_codegen.hpp"
#include "common/string_util.hpp"

namespace homunculus::backends {

FpgaPlatform::FpgaPlatform(FpgaConfig config) : config_(config)
{
    // The FPGA NIC path tolerates far more latency than a switch ASIC and
    // runs at 100 GbE line rate; relax the default envelope accordingly.
    constraints_.minThroughputGpps = 0.1;
    constraints_.maxLatencyNs = 2000.0;
}

AlgorithmSupport
FpgaPlatform::supports(ir::ModelKind kind) const
{
    (void)kind;  // reconfigurable fabric hosts every family.
    return AlgorithmSupport::kSupported;
}

ResourceReport
FpgaPlatform::loopbackReport() const
{
    ResourceReport report;
    report.lutPercent = config_.shellLutPercent;
    report.ffPercent = config_.shellFfPercent;
    report.bramPercent = config_.shellBramPercent;
    report.powerWatts = config_.shellPowerWatts;
    report.latencyNs = config_.cmacLatencyNs;
    report.throughputGpps = config_.lineRateGpps;
    report.feasible = true;
    return report;
}

ResourceReport
FpgaPlatform::estimate(const ir::ModelIr &model) const
{
    double params = static_cast<double>(model.paramCount());
    double layers = static_cast<double>(
        model.kind == ir::ModelKind::kMlp ? model.layers.size() : 1);

    double lut_delta = config_.lutFixed + config_.lutPerParam * params;
    double ff_delta = config_.ffFixed + config_.ffPerParam * params +
                      config_.ffPerLayer * layers;
    double bram_delta = 0.0;
    if (model.paramCount() > config_.bramWordThreshold) {
        double blocks = std::ceil(
            (params - static_cast<double>(config_.bramWordThreshold)) /
            static_cast<double>(config_.bramWordThreshold));
        bram_delta = blocks * config_.bramPerBlockPercent;
    }

    ResourceReport report;
    report.lutPercent = config_.shellLutPercent + lut_delta;
    report.ffPercent = config_.shellFfPercent + ff_delta;
    report.bramPercent = config_.shellBramPercent + bram_delta;
    report.powerWatts = config_.shellPowerWatts +
                        config_.powerPerLutPercent * lut_delta +
                        config_.powerPerFfPercent * ff_delta;

    // Latency: CMAC ingress/egress plus one pipeline stage per layer
    // (Spatial fully pipelines the dot products).
    double pipeline_cycles = 4.0;
    if (model.kind == ir::ModelKind::kMlp) {
        for (const auto &layer : model.layers)
            pipeline_cycles +=
                std::ceil(std::log2(
                    std::max<double>(2.0,
                                     static_cast<double>(layer.inputDim)))) +
                2.0;
    } else {
        pipeline_cycles += 8.0;
    }
    report.latencyNs = config_.cmacLatencyNs +
                       pipeline_cycles / config_.clockGhz;
    report.throughputGpps = config_.lineRateGpps;

    bool capped = config_.lutBudgetPercent < 100.0 ||
                  config_.ffBudgetPercent < 100.0 ||
                  config_.bramBudgetPercent < 100.0;
    report.feasible = true;
    if (report.lutPercent > config_.lutBudgetPercent ||
        report.ffPercent > config_.ffBudgetPercent ||
        report.bramPercent > config_.bramBudgetPercent) {
        report.feasible = false;
        report.infeasibleReason =
            capped ? common::format(
                         "FPGA utilization above budget (LUT %.2f/%.2f%% "
                         "FF %.2f/%.2f%% BRAM %.2f/%.2f%%)",
                         report.lutPercent, config_.lutBudgetPercent,
                         report.ffPercent, config_.ffBudgetPercent,
                         report.bramPercent, config_.bramBudgetPercent)
                   : "FPGA resource utilization above 100%";
    } else if (config_.powerBudgetWatts > 0.0 &&
               report.powerWatts > config_.powerBudgetWatts) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "board power %.3f W above %.3f W budget", report.powerWatts,
            config_.powerBudgetWatts);
    } else if (report.throughputGpps < constraints_.minThroughputGpps) {
        report.feasible = false;
        report.infeasibleReason = "line rate below required throughput";
    } else if (report.latencyNs > constraints_.maxLatencyNs) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "latency %.1f above %.1f ns", report.latencyNs,
            constraints_.maxLatencyNs);
    }
    return report;
}

std::string
FpgaPlatform::generateCode(const ir::ModelIr &model) const
{
    SpatialCodegen codegen;
    return codegen.generate(model);
}

PlatformPtr
FpgaPlatform::withBudget(const ResourceBudget &budget) const
{
    if (!budget.fpgaLutPercent && !budget.fpgaFfPercent &&
        !budget.fpgaBramPercent && !budget.fpgaPowerWatts)
        return nullptr;
    FpgaConfig config = config_;
    if (budget.fpgaLutPercent)
        config.lutBudgetPercent = *budget.fpgaLutPercent;
    if (budget.fpgaFfPercent)
        config.ffBudgetPercent = *budget.fpgaFfPercent;
    if (budget.fpgaBramPercent)
        config.bramBudgetPercent = *budget.fpgaBramPercent;
    if (budget.fpgaPowerWatts)
        config.powerBudgetWatts = *budget.fpgaPowerWatts;
    auto rebuilt = std::make_shared<FpgaPlatform>(config);
    rebuilt->setConstraints(constraints_);
    return rebuilt;
}

}  // namespace homunculus::backends
