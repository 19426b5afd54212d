#include "backends/platform.hpp"

#include "common/string_util.hpp"
#include "ir/exec_plan.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/quant_cache.hpp"

namespace homunculus::backends {

std::vector<int>
runPlanBacked(const ir::ModelIr &model, const math::Matrix &x,
              const EvalOptions &options)
{
    // Compile once, run batched (sharded across options.jobs cores): the
    // plan replays the reference interpreter's fixed-point semantics
    // bit-for-bit at any shard width.
    runtime::EngineOptions engine_options;
    engine_options.jobs = options.jobs;
    runtime::InferenceEngine engine(ir::ExecutablePlan::compile(model),
                                    engine_options);
    if (options.quantCache != nullptr && options.quantCache->covers(x))
        return engine.run(options.quantCache->get(model.format));
    return engine.run(x);
}

std::vector<int>
Platform::evaluate(const ir::ModelIr &model, const math::Matrix &x,
                   const EvalOptions &options) const
{
    return runPlanBacked(model, x, options);
}

std::string
ResourceReport::summary() const
{
    std::string perf = common::format(
        "latency=%.1fns throughput=%.2fGpps", latencyNs, throughputGpps);
    std::string res;
    if (computeUnits > 0 || memoryUnits > 0)
        res = common::format("CUs=%zu MUs=%zu ", computeUnits, memoryUnits);
    if (matTables > 0)
        res += common::format("MATs=%zu entries=%zu ", matTables, matEntries);
    if (lutPercent > 0.0) {
        res += common::format("LUT=%.2f%% FF=%.2f%% BRAM=%.2f%% P=%.3fW ",
                              lutPercent, ffPercent, bramPercent, powerWatts);
    }
    std::string verdict = feasible ? "FEASIBLE"
                                   : "INFEASIBLE(" + infeasibleReason + ")";
    return res + perf + " " + verdict;
}

}  // namespace homunculus::backends
