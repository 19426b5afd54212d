/**
 * @file
 * ModelIr: the backend-neutral description of a trained model.
 *
 * This is the compiler contract at the heart of Homunculus's black-box
 * split (paper §3.2.3): the optimization core trains models and lowers
 * them to a ModelIr; backends consume the ModelIr to (a) estimate
 * resources/latency/throughput, (b) execute fixed-point inference in
 * simulation, and (c) emit platform code. Weights are stored quantized in
 * the data plane's Q-format so every downstream consumer sees exactly the
 * artifact that would be deployed.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "ml/decision_tree.hpp"
#include "ml/kmeans.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"

namespace homunculus::ir {

/** Model families the backends understand. */
enum class ModelKind { kMlp, kKMeans, kSvm, kDecisionTree };

std::string modelKindName(ModelKind kind);

/** One dense layer with quantized weights (row-major in x out) + biases. */
struct QuantizedLayer
{
    std::size_t inputDim = 0;
    std::size_t outputDim = 0;
    std::vector<std::int32_t> weights;  ///< inputDim * outputDim words.
    std::vector<std::int32_t> biases;   ///< outputDim words.

    std::int32_t weight(std::size_t in, std::size_t out) const
    {
        return weights[in * outputDim + out];
    }
};

/** Flattened decision-tree node for table-friendly traversal. */
struct IrTreeNode
{
    bool isLeaf = true;
    std::size_t feature = 0;
    std::int32_t threshold = 0;  ///< quantized split threshold.
    int classLabel = 0;
    int left = -1;   ///< child indices into the node array.
    int right = -1;
};

/** The backend-neutral trained model. */
struct ModelIr
{
    ModelKind kind = ModelKind::kMlp;
    std::string name = "model";
    std::size_t inputDim = 0;
    int numClasses = 2;
    common::FixedPointFormat format = common::FixedPointFormat::q88();

    // --- MLP payload ---------------------------------------------------
    std::vector<QuantizedLayer> layers;
    ml::Activation activation = ml::Activation::kRelu;

    // --- KMeans payload ------------------------------------------------
    std::vector<std::vector<std::int32_t>> centroids;  ///< k x d.

    // --- SVM payload ---------------------------------------------------
    std::vector<std::vector<std::int32_t>> svmWeights;  ///< classes x d.
    std::vector<std::int32_t> svmBiases;                ///< classes.

    // --- Decision-tree payload ------------------------------------------
    std::vector<IrTreeNode> treeNodes;  ///< node 0 is the root.
    std::size_t treeDepth = 0;

    /**
     * Audit trail of the lowering passes that produced this artifact, in
     * execution order (see ir/passes.hpp). Serialized with the artifact
     * (format v2) so a deployed model records how it was lowered.
     */
    std::vector<std::string> passes;

    /**
     * Training-time StandardScaler moments. Serialized with the
     * artifact (format v3) so the serving path applies (x - mean) / std
     * with the exact statistics the model was trained against instead
     * of refitting them on live traffic.
     *
     * `scalerRecorded` says the compile pipeline stated the scaler
     * provenance either way: moments present = standardized training,
     * absent = the model was genuinely trained on raw features
     * (serialized as `scaler_none`). Both false/empty = a legacy
     * pre-v3 artifact whose provenance is unknown — only then may
     * serving fall back to refitting on the trace.
     */
    std::vector<double> scalerMeans;
    std::vector<double> scalerStds;
    bool scalerRecorded = false;

    bool hasScaler() const { return !scalerMeans.empty(); }

    /** Total stored parameter count (weights + biases or equivalents). */
    std::size_t paramCount() const;

    /** Hidden-layer count for MLPs (0 otherwise). */
    std::size_t hiddenLayerCount() const;

    /** Largest layer MAC width (max over layers of in*out); 0 if no MLP. */
    std::size_t maxLayerMacs() const;

    /** Sanity checks; throws std::runtime_error on inconsistency. */
    void validate() const;
};

/**
 * Lower a trained MLP to IR, quantizing weights into @p format.
 *
 * All lower*() entry points stage the trained model into the float domain
 * and run ir::PassManager::loweringPipeline() (quantize + validate); see
 * ir/passes.hpp for the pipeline machinery and the optimization passes.
 */
ModelIr lowerMlp(const ml::Mlp &mlp, const common::FixedPointFormat &format,
                 const std::string &name);

/** Lower a fitted KMeans model to IR. */
ModelIr lowerKMeans(const ml::KMeans &kmeans,
                    const common::FixedPointFormat &format,
                    const std::string &name, std::size_t input_dim);

/** Lower a trained linear SVM to IR. */
ModelIr lowerSvm(const ml::LinearSvm &svm,
                 const common::FixedPointFormat &format,
                 const std::string &name, std::size_t input_dim);

/** Lower a trained decision-tree classifier to IR. */
ModelIr lowerDecisionTree(const ml::DecisionTreeClassifier &tree,
                          const common::FixedPointFormat &format,
                          const std::string &name, std::size_t input_dim);

/**
 * Reference fixed-point executor for the IR — the semantics every backend
 * simulator must agree with. Returns the predicted class for one input.
 *
 * This is the scalar reference interpreter. Hot paths should compile an
 * ir::ExecutablePlan instead (bit-identical, batched, allocation-free);
 * tests/test_exec_plan.cpp holds the two together.
 */
int executeIr(const ModelIr &ir, const std::vector<double> &features);

}  // namespace homunculus::ir
