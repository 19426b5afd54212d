/**
 * @file
 * Candidate training and evaluation (paper §3.2.4).
 *
 * One black-box evaluation: instantiate the algorithm with the suggested
 * hyperparameters, train on the spec's training partition, lower the
 * trained model to the quantized ModelIr, ask the backend for a resource
 * report, and — when feasible — run the *backend's own simulator* over
 * the test partition to score the objective metric. The score therefore
 * reflects the deployed fixed-point artifact, not the float model.
 *
 * A DNN is estimated before it trains: every backend costs an MLP by its
 * layer sizes alone, so an infeasible shape is reported (objective 0)
 * without training. The optimizer is told exactly what train-first
 * evaluation would tell it.
 */
#pragma once

#include <cstdint>

#include "backends/platform.hpp"
#include "core/alchemy.hpp"
#include "opt/bayes_opt.hpp"

namespace homunculus::core {

/** Everything one candidate evaluation produced. */
struct CandidateEvaluation
{
    ir::ModelIr model;
    backends::ResourceReport report;
    double objective = 0.0;   ///< metric on the test partition.
};

/**
 * Train + lower + estimate + test one configuration. An infeasible DNN
 * shape is neither trained nor scored: it returns its untrained
 * lowering with objective 0.
 *
 * @param algorithm family to instantiate
 * @param config hyperparameters suggested by the optimizer
 * @param spec the model spec (metric, name)
 * @param split train/test data
 * @param platform the backend target
 * @param seed training determinism seed
 * @param eval host-side execution knobs for the scoring pass (row-shard
 *        width, per-format quantization cache); never changes the score
 */
CandidateEvaluation evaluateCandidate(Algorithm algorithm,
                                      const opt::Configuration &config,
                                      const ModelSpec &spec,
                                      const ml::DataSplit &split,
                                      const backends::Platform &platform,
                                      std::uint64_t seed,
                                      const backends::EvalOptions &eval = {});

/** Adapt a CandidateEvaluation into the optimizer's EvalResult. */
opt::EvalResult toEvalResult(const CandidateEvaluation &evaluation);

/** Fixed training epochs used across candidate runs (fair comparison). */
constexpr std::size_t kCandidateTrainEpochs = 25;

}  // namespace homunculus::core
