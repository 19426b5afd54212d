#include "backends/taurus.hpp"

#include <cmath>

#include "backends/spatial_codegen.hpp"
#include "common/string_util.hpp"

namespace homunculus::backends {

namespace {

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

double
log2Ceil(std::size_t n)
{
    return n <= 1 ? 1.0 : std::ceil(std::log2(static_cast<double>(n)));
}

/** CU/MU/latency contribution of one dense (in x out) layer. */
TaurusMappingCost
denseLayerCost(const TaurusConfig &config, std::size_t in, std::size_t out)
{
    TaurusMappingCost cost;
    cost.cus = ceilDiv(in, config.cuStages) * ceilDiv(out, config.cuLanes);
    std::size_t params = in * out + out;
    cost.mus = ceilDiv(params, config.muWordCapacity) +
               config.bufferMusPerLayer;
    // Fill: lane-serial MAC streaming plus the adder-reduction tree and
    // one activation stage.
    cost.fillCycles = static_cast<double>(ceilDiv(in, config.cuLanes)) +
                      log2Ceil(in) + 1.0;
    return cost;
}

}  // namespace

TaurusMappingCost
taurusMappingCost(const TaurusConfig &config, const ir::ModelIr &model)
{
    TaurusMappingCost total;
    total.fillCycles = config.parseDeparseCycles;

    switch (model.kind) {
      case ir::ModelKind::kMlp: {
        for (const auto &layer : model.layers) {
            TaurusMappingCost c =
                denseLayerCost(config, layer.inputDim, layer.outputDim);
            total.cus += c.cus;
            total.mus += c.mus;
            total.fillCycles += c.fillCycles;
        }
        break;
      }
      case ir::ModelKind::kKMeans: {
        // Distance computation: map over k centroids, reduce over d dims.
        std::size_t k = model.centroids.size();
        TaurusMappingCost c = denseLayerCost(config, model.inputDim, k);
        total.cus += c.cus;
        total.mus += c.mus;
        total.fillCycles += c.fillCycles + log2Ceil(k);  // argmin tree.
        break;
      }
      case ir::ModelKind::kSvm: {
        std::size_t classes = model.svmWeights.size();
        TaurusMappingCost c = denseLayerCost(config, model.inputDim, classes);
        total.cus += c.cus;
        total.mus += c.mus;
        total.fillCycles += c.fillCycles + log2Ceil(classes);
        break;
      }
      case ir::ModelKind::kDecisionTree: {
        // One comparator stage per level; nodes live in MU words.
        total.cus += std::max<std::size_t>(1, model.treeDepth);
        total.mus += ceilDiv(model.treeNodes.size() * 2,
                             config.muWordCapacity) + 1;
        total.fillCycles += static_cast<double>(model.treeDepth) + 1.0;
        break;
      }
    }

    // Time-multiplex when the CU demand exceeds the grid plane.
    if (total.cus > config.cuBudget()) {
        total.ii = std::ceil(static_cast<double>(total.cus) /
                             static_cast<double>(config.cuBudget()));
        // Multiplexing adds scheduling slack to the fill latency as well.
        total.fillCycles += (total.ii - 1.0) *
                            static_cast<double>(
                                std::max<std::size_t>(1,
                                                      model.layers.size()));
    }
    return total;
}

TaurusPlatform::TaurusPlatform(TaurusConfig config) : config_(config)
{
}

AlgorithmSupport
TaurusPlatform::supports(ir::ModelKind kind) const
{
    // The MapReduce grid executes all linear-algebra families plus
    // comparator trees.
    (void)kind;
    return AlgorithmSupport::kSupported;
}

ResourceReport
TaurusPlatform::estimate(const ir::ModelIr &model) const
{
    TaurusMappingCost cost = taurusMappingCost(config_, model);

    ResourceReport report;
    report.computeUnits = cost.cus;
    report.memoryUnits = cost.mus;
    report.latencyNs = cost.fillCycles / config_.clockGhz;
    report.throughputGpps = config_.clockGhz / cost.ii;

    report.feasible = true;
    if (cost.mus > config_.muBudget()) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "MUs %zu exceed budget %zu", cost.mus, config_.muBudget());
    } else if (cost.cus > config_.cuBudget()) {
        // CU overflow is representable via multiplexing but always breaks
        // the line-rate constraint below; report the root cause.
        report.feasible = false;
        report.infeasibleReason = common::format(
            "CUs %zu exceed budget %zu", cost.cus, config_.cuBudget());
    } else if (report.throughputGpps < constraints_.minThroughputGpps) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "throughput %.2f below %.2f GPkt/s", report.throughputGpps,
            constraints_.minThroughputGpps);
    } else if (report.latencyNs > constraints_.maxLatencyNs) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "latency %.1f above %.1f ns", report.latencyNs,
            constraints_.maxLatencyNs);
    }
    return report;
}

std::string
TaurusPlatform::generateCode(const ir::ModelIr &model) const
{
    SpatialCodegen codegen;
    return codegen.generate(model);
}

PlatformPtr
TaurusPlatform::withBudget(const ResourceBudget &budget) const
{
    if (!budget.gridRows && !budget.gridCols)
        return nullptr;
    TaurusConfig config = config_;
    if (budget.gridRows)
        config.gridRows = *budget.gridRows;
    if (budget.gridCols)
        config.gridCols = *budget.gridCols;
    auto rebuilt = std::make_shared<TaurusPlatform>(config);
    rebuilt->setConstraints(constraints_);
    return rebuilt;
}

}  // namespace homunculus::backends
