/**
 * @file
 * MAT-based switch platform (Tofino-style PISA pipeline with IIsy mapping).
 *
 * Match-action tables are the constraining resource (paper §3, §4): the
 * platform owns a fixed stage budget and entry capacity, runs at line
 * rate whenever the mapping fits, and has a fixed pipeline latency per
 * stage. Model families map as described in mat_pipeline.hpp; DNNs are
 * unsupported (N2Net-style BNN lowering needs ~12 MATs per layer, beyond
 * any realistic budget here), which drives the optimization core's
 * algorithm pruning for MAT targets.
 */
#pragma once

#include "backends/mat_pipeline.hpp"
#include "backends/platform.hpp"

namespace homunculus::backends {

/** Physical description of the MAT pipeline. */
struct MatConfig
{
    std::size_t numTables = 12;       ///< stage budget (Tofino-like).
    std::size_t entriesPerTable = 1024;
    std::size_t binsPerFeature = 64;  ///< SVM range-binning granularity.
    double perStageLatencyNs = 30.0;
    double parserLatencyNs = 100.0;
    double lineRateGpps = 1.0;        ///< fixed line rate when mapped.
    std::size_t matsPerDnnLayer = 12; ///< N2Net estimate for BNN layers.
};

/** The MAT-switch backend. */
class MatPlatform : public Platform
{
  public:
    explicit MatPlatform(MatConfig config = {});

    std::string name() const override { return "tofino-mat"; }
    AlgorithmSupport supports(ir::ModelKind kind) const override;
    ResourceReport estimate(const ir::ModelIr &model) const override;
    std::vector<int> evaluate(const ir::ModelIr &model,
                              const math::Matrix &x,
                              const EvalOptions &options = {}) const override;
    std::string generateCode(const ir::ModelIr &model) const override;

    /** Compile the IIsy pipeline for a model (shared with evaluate()). */
    MatPipeline compile(const ir::ModelIr &model) const;

    PlatformPtr withBudget(const ResourceBudget &budget) const override;

    const MatConfig &config() const { return config_; }

  private:
    MatConfig config_;
};

}  // namespace homunculus::backends
