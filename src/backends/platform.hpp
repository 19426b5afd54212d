/**
 * @file
 * Abstract data-plane platform: the backend interface of the compiler.
 *
 * A Platform answers three questions about a ModelIr (paper §3.3):
 *  - estimate(): what resources does the mapping consume and does it meet
 *    the performance envelope? (feasibility testing)
 *  - evaluate(): what does the deployed artifact predict? (executed via
 *    the platform's own simulator, in fixed point)
 *  - generateCode(): what platform program implements it? (Spatial / P4)
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backends/resource_report.hpp"
#include "ir/model_ir.hpp"

namespace homunculus::runtime {
class QuantCache;
}

namespace homunculus::backends {

/** Families of models a platform can accept at all. */
enum class AlgorithmSupport { kSupported, kUnsupported };

/**
 * Resource limits the operator can cap a platform to (Alchemy's
 * `constrain`). Every field is optional; each backend honors the knobs
 * that describe its fabric and ignores the rest.
 */
struct ResourceBudget
{
    std::optional<std::size_t> gridRows;   ///< Taurus grid rows.
    std::optional<std::size_t> gridCols;   ///< Taurus grid cols.
    std::optional<std::size_t> matTables;  ///< MAT stage budget.
    std::optional<std::size_t> matEntriesPerTable;  ///< MAT entry budget.
    std::optional<double> fpgaLutPercent;   ///< FPGA LUT utilization cap.
    std::optional<double> fpgaFfPercent;    ///< FPGA FF utilization cap.
    std::optional<double> fpgaBramPercent;  ///< FPGA BRAM utilization cap.
    std::optional<double> fpgaPowerWatts;   ///< FPGA board power cap.
};

/**
 * Host-side execution knobs for Platform::evaluate. The model semantics
 * never change — these only control how fast the simulator gets through
 * a batch: @c jobs shards rows across cores (runtime::InferenceEngine),
 * and @c quantCache lets repeated evaluations of one partition skip
 * re-quantizing it when the model's format was already seen (candidate
 * scoring inside the Bayesian search). Both default to off.
 */
struct EvalOptions
{
    /** Row-shard width (0 = one per hardware thread, 1 = inline). */
    std::size_t jobs = 1;
    /** Optional format-keyed quantization cache; used only when it is
     *  bound to the exact matrix being evaluated. */
    const runtime::QuantCache *quantCache = nullptr;
};

/**
 * The plan-backed execution every non-MAT simulator shares: compile the
 * model into an ir::ExecutablePlan once, shard the batch across
 * @p options.jobs cores, and reuse @p options.quantCache when it covers
 * @p x. Platform::evaluate's default and MapReduceSimulator::runStream
 * both dispatch through here so the cache-eligibility and sharding
 * rules cannot drift apart.
 */
std::vector<int> runPlanBacked(const ir::ModelIr &model,
                               const math::Matrix &x,
                               const EvalOptions &options);

/** Abstract backend target. */
class Platform
{
  public:
    virtual ~Platform() = default;

    /** Short identifier, e.g. "taurus", "tofino-mat", "fpga". */
    virtual std::string name() const = 0;

    /** Whether this platform can host the given model family at all. */
    virtual AlgorithmSupport supports(ir::ModelKind kind) const = 0;

    /** Map the model and report resources + performance + feasibility. */
    virtual ResourceReport estimate(const ir::ModelIr &model) const = 0;

    /**
     * Execute the deployed (quantized) model on the platform's simulator.
     * The default compiles the model into an ir::ExecutablePlan and runs
     * the batched reference fixed-point semantics — sharded across
     * @p options.jobs cores and reusing @p options.quantCache when set;
     * backends whose fabric executes differently (e.g. MAT range-match
     * binning) override it and honor the same knobs. Predictions are
     * identical for every EvalOptions value.
     * @return predicted class per row of @p x
     */
    virtual std::vector<int> evaluate(const ir::ModelIr &model,
                                      const math::Matrix &x,
                                      const EvalOptions &options = {}) const;

    /** Emit the platform program implementing the model. */
    virtual std::string generateCode(const ir::ModelIr &model) const = 0;

    /**
     * Rebuild this platform with the budget's relevant caps applied
     * (current constraints carry over). Returns nullptr when no field of
     * @p budget concerns this backend, meaning "keep the instance as-is".
     */
    virtual std::shared_ptr<Platform>
    withBudget(const ResourceBudget &budget) const
    {
        (void)budget;
        return nullptr;
    }

    /** The operator-specified performance envelope. */
    const PerfConstraints &constraints() const { return constraints_; }
    void setConstraints(const PerfConstraints &constraints)
    {
        constraints_ = constraints;
    }

  protected:
    PerfConstraints constraints_;
};

using PlatformPtr = std::shared_ptr<Platform>;

}  // namespace homunculus::backends
