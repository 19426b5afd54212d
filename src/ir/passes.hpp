/**
 * @file
 * The IR pass pipeline: trained model -> ModelIr lowering as explicit,
 * auditable passes.
 *
 * Lowering used to be a monolith: each lower*() call quantized weights
 * inline and validated at the end, and nothing between training and the
 * backend could be observed or extended. This module restructures that
 * path as a compiler-style pipeline:
 *
 *   trained model --stage--> FloatModel --quantize--> ModelIr
 *                                             |
 *                              [validate, prune-dead, fold-constants, ...]
 *
 * Staging captures the trained model's topology with real-valued weights;
 * the `quantize` pass is the single place float weights become Q-format
 * words; every subsequent pass is a ModelIr -> ModelIr rewrite looked up
 * by name in the built-in pass table (findPass). A PassManager holds an
 * ordered pipeline, records each executed pass into ModelIr::passes
 * (serialized with the artifact), and can invoke a dump hook after every
 * pass — the mechanism behind `homc --dump-ir`.
 *
 * Every built-in pass is semantics-preserving on format-conforming
 * artifacts: predictions of the IR under ir::executeIr /
 * ir::ExecutablePlan are bit-identical before and after the pass
 * (tests/test_exec_plan.cpp enforces this). The built-in `quantize`
 * pass additionally forces out-of-range payload words of hand-built IRs
 * back onto the format — the identity on anything the pipeline lowered.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/model_ir.hpp"

namespace homunculus::ir {

/**
 * Float-domain staging artifact: the trained model's topology with
 * real-valued parameters, before any Q-format commitment. Mirrors the
 * ModelIr payload layout so the quantize pass is a straight map.
 */
struct FloatModel
{
    ModelKind kind = ModelKind::kMlp;
    std::string name = "model";
    std::size_t inputDim = 0;
    int numClasses = 2;

    // --- MLP payload ---------------------------------------------------
    struct Layer
    {
        std::size_t inputDim = 0;
        std::size_t outputDim = 0;
        std::vector<double> weights;  ///< row-major in x out.
        std::vector<double> biases;
    };
    std::vector<Layer> layers;
    ml::Activation activation = ml::Activation::kRelu;

    // --- KMeans payload ------------------------------------------------
    std::vector<std::vector<double>> centroids;

    // --- SVM payload ---------------------------------------------------
    std::vector<std::vector<double>> svmWeights;
    std::vector<double> svmBiases;

    // --- Decision-tree payload ------------------------------------------
    struct TreeNode
    {
        bool isLeaf = true;
        std::size_t feature = 0;
        double threshold = 0.0;
        int classLabel = 0;
        int left = -1;
        int right = -1;
    };
    std::vector<TreeNode> treeNodes;
    std::size_t treeDepth = 0;
};

/** Stage a trained model into the float domain (no quantization yet). */
FloatModel stageMlp(const ml::Mlp &mlp, const std::string &name);
FloatModel stageKMeans(const ml::KMeans &kmeans, const std::string &name,
                       std::size_t input_dim);
FloatModel stageSvm(const ml::LinearSvm &svm, const std::string &name,
                    std::size_t input_dim);
FloatModel stageDecisionTree(const ml::DecisionTreeClassifier &tree,
                             const std::string &name, std::size_t input_dim);

/**
 * The quantize pass: commit a staged float model to a Q-format ModelIr.
 * This is the only place trained weights are quantized; records "quantize"
 * in the result's pass metadata.
 */
ModelIr quantizePass(const FloatModel &staged,
                     const common::FixedPointFormat &format);

/** An IR -> IR rewrite; returns true when the model was changed. */
using PassFn = std::function<bool(ModelIr &)>;

/** Observer invoked after each executed pass (homc --dump-ir). */
using PassDumpHook =
    std::function<void(const std::string &pass_name, const ModelIr &model)>;

/** A named built-in pass. */
struct PassInfo
{
    std::string name;
    std::string description;
    PassFn run;
};

/** A built-in pass (validate, quantize, prune-dead, fold-constants) by
 *  name; nullptr when unknown. */
const PassInfo *findPass(const std::string &name);

/** The built-in pass names, sorted (for diagnostics and --list-passes). */
std::vector<std::string> passNames();

/**
 * An ordered pass pipeline. Executes built-in passes in sequence,
 * appending each executed pass name to ModelIr::passes and firing the
 * dump hook after every pass.
 */
class PassManager
{
  public:
    PassManager() = default;

    /**
     * The default lowering pipeline run by every lower*() entry point:
     * quantize (implicit, via lower()) followed by validate. Behaviorally
     * identical to the historical monolithic lowering.
     */
    static PassManager loweringPipeline();

    /**
     * The optimization pipeline the emit stage runs on winning models:
     * validate, prune-dead, fold-constants, prune-dead, validate. All
     * passes preserve predictions bit-for-bit.
     */
    static PassManager optimizationPipeline();

    /**
     * Append a built-in pass by name.
     * @throws std::runtime_error naming the known passes when unknown.
     */
    PassManager &append(const std::string &pass_name);

    /** Hook fired after each executed pass (and after quantization). */
    void setDumpHook(PassDumpHook hook) { dump_ = std::move(hook); }

    /** Run the pipeline in place; returns true if any pass changed it. */
    bool run(ModelIr &model) const;

    /** Quantize a staged model, then run the pipeline on the result. */
    ModelIr lower(const FloatModel &staged,
                  const common::FixedPointFormat &format) const;

    /** Names of the pipeline's passes, in order. */
    std::vector<std::string> passNames() const;

  private:
    std::vector<PassInfo> pipeline_;
    PassDumpHook dump_;
};

}  // namespace homunculus::ir
