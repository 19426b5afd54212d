#include "backends/mat_platform.hpp"

#include <stdexcept>

#include "backends/p4_codegen.hpp"
#include "backends/registry.hpp"
#include "common/string_util.hpp"
#include "runtime/quant_cache.hpp"

namespace homunculus::backends {

MatPlatform::MatPlatform(MatConfig config) : config_(config)
{
}

AlgorithmSupport
MatPlatform::supports(ir::ModelKind kind) const
{
    return kind == ir::ModelKind::kMlp ? AlgorithmSupport::kUnsupported
                                       : AlgorithmSupport::kSupported;
}

MatPipeline
MatPlatform::compile(const ir::ModelIr &model) const
{
    switch (model.kind) {
      case ir::ModelKind::kKMeans:
        return MatPipeline::compileKMeans(model);
      case ir::ModelKind::kSvm:
        return MatPipeline::compileSvm(model, config_.binsPerFeature);
      case ir::ModelKind::kDecisionTree:
        return MatPipeline::compileTree(model);
      case ir::ModelKind::kMlp:
        break;
    }
    throw std::runtime_error("MatPlatform: cannot compile DNN to MATs");
}

ResourceReport
MatPlatform::estimate(const ir::ModelIr &model) const
{
    ResourceReport report;

    if (model.kind == ir::ModelKind::kMlp) {
        // Report the N2Net-style cost so the optimizer sees *why* the DNN
        // family is hopeless on this target rather than a silent error.
        report.matTables = config_.matsPerDnnLayer * model.layers.size();
        report.feasible = false;
        report.infeasibleReason = common::format(
            "DNN needs ~%zu MATs (budget %zu)", report.matTables,
            config_.numTables);
        return report;
    }

    MatPipeline pipeline = compile(model);
    report.matTables = pipeline.numTables();
    report.matEntries = pipeline.totalEntries();
    report.latencyNs =
        config_.parserLatencyNs +
        static_cast<double>(pipeline.numTables()) * config_.perStageLatencyNs;
    report.throughputGpps = config_.lineRateGpps;

    report.feasible = true;
    if (pipeline.numTables() > config_.numTables) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "%zu MATs exceed budget %zu", pipeline.numTables(),
            config_.numTables);
    } else {
        for (const auto &table : pipeline.tables()) {
            if (table.entries.size() > config_.entriesPerTable) {
                report.feasible = false;
                report.infeasibleReason = common::format(
                    "table %s has %zu entries (capacity %zu)",
                    table.name.c_str(), table.entries.size(),
                    config_.entriesPerTable);
                break;
            }
        }
    }
    if (report.feasible &&
        report.throughputGpps < constraints_.minThroughputGpps) {
        report.feasible = false;
        report.infeasibleReason = "line rate below required throughput";
    }
    if (report.feasible && report.latencyNs > constraints_.maxLatencyNs) {
        report.feasible = false;
        report.infeasibleReason = common::format(
            "latency %.1f above %.1f ns", report.latencyNs,
            constraints_.maxLatencyNs);
    }
    return report;
}

std::vector<int>
MatPlatform::evaluate(const ir::ModelIr &model, const math::Matrix &x,
                      const EvalOptions &options) const
{
    // Compile the MAT program once, then walk the whole batch sharded
    // across options.jobs cores; labels match per-row process() exactly.
    // A quantization cache bound to this matrix lets the walk skip
    // re-quantizing the partition when the model's format was seen.
    const ir::QuantizedMatrix *pre = nullptr;
    if (options.quantCache != nullptr && options.quantCache->covers(x))
        pre = &options.quantCache->get(model.format);
    return compile(model).processBatch(x, options.jobs, pre);
}

std::string
MatPlatform::generateCode(const ir::ModelIr &model) const
{
    P4Codegen codegen(config_.binsPerFeature);
    return codegen.generate(model);
}

PlatformPtr
MatPlatform::withBudget(const ResourceBudget &budget) const
{
    if (!budget.matTables && !budget.matEntriesPerTable)
        return nullptr;
    MatConfig config = config_;
    if (budget.matTables)
        config.numTables = *budget.matTables;
    if (budget.matEntriesPerTable)
        config.entriesPerTable = *budget.matEntriesPerTable;
    auto rebuilt = std::make_shared<MatPlatform>(config);
    rebuilt->setConstraints(constraints_);
    return rebuilt;
}

bool
registerMatBackend()
{
    auto factory = [](const BackendParams &params) -> PlatformPtr {
        if (const auto *config =
                std::any_cast<MatConfig>(&params.typedConfig))
            return std::make_shared<MatPlatform>(*config);
        MatConfig config;
        config.numTables = params.sizeOr("tables", config.numTables);
        config.entriesPerTable =
            params.sizeOr("entries", config.entriesPerTable);
        config.binsPerFeature =
            params.sizeOr("bins", config.binsPerFeature);
        return std::make_shared<MatPlatform>(config);
    };
    bool tofino = BackendRegistry::instance().registerFactory("tofino",
                                                              factory);
    // The platform's self-reported name is "tofino-mat"; register both so
    // lookups by either spelling resolve.
    bool alias = BackendRegistry::instance().registerFactory("tofino-mat",
                                                             factory);
    return tofino && alias;
}

}  // namespace homunculus::backends
