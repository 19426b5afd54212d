#include "ir/model_ir.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ir/passes.hpp"

namespace homunculus::ir {

std::string
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::kMlp: return "dnn";
      case ModelKind::kKMeans: return "kmeans";
      case ModelKind::kSvm: return "svm";
      case ModelKind::kDecisionTree: return "decision_tree";
    }
    return "unknown";
}

std::size_t
ModelIr::paramCount() const
{
    switch (kind) {
      case ModelKind::kMlp: {
        std::size_t total = 0;
        for (const auto &layer : layers)
            total += layer.weights.size() + layer.biases.size();
        return total;
      }
      case ModelKind::kKMeans: {
        std::size_t total = 0;
        for (const auto &c : centroids)
            total += c.size();
        return total;
      }
      case ModelKind::kSvm: {
        std::size_t total = svmBiases.size();
        for (const auto &w : svmWeights)
            total += w.size();
        return total;
      }
      case ModelKind::kDecisionTree:
        // Each internal node stores (feature, threshold); leaves a label.
        return treeNodes.size() * 2;
    }
    return 0;
}

std::size_t
ModelIr::hiddenLayerCount() const
{
    return layers.empty() ? 0 : layers.size() - 1;
}

std::size_t
ModelIr::maxLayerMacs() const
{
    std::size_t max_macs = 0;
    for (const auto &layer : layers)
        max_macs = std::max(max_macs, layer.inputDim * layer.outputDim);
    return max_macs;
}

void
ModelIr::validate() const
{
    if (inputDim == 0)
        throw std::runtime_error("ModelIr: inputDim is zero");
    if (numClasses < 2)
        throw std::runtime_error("ModelIr: numClasses must be >= 2");
    if (!scalerMeans.empty() || !scalerStds.empty()) {
        if (scalerMeans.size() != inputDim ||
            scalerStds.size() != inputDim)
            throw std::runtime_error(
                "ModelIr: scaler moment width != inputDim");
        for (double sd : scalerStds)
            if (!(sd > 0.0))
                throw std::runtime_error(
                    "ModelIr: scaler std must be positive");
    }
    switch (kind) {
      case ModelKind::kMlp: {
        if (layers.empty())
            throw std::runtime_error("ModelIr: MLP with no layers");
        std::size_t prev = inputDim;
        for (const auto &layer : layers) {
            if (layer.inputDim != prev)
                throw std::runtime_error("ModelIr: layer width chain broken");
            if (layer.weights.size() != layer.inputDim * layer.outputDim)
                throw std::runtime_error("ModelIr: weight size mismatch");
            if (layer.biases.size() != layer.outputDim)
                throw std::runtime_error("ModelIr: bias size mismatch");
            prev = layer.outputDim;
        }
        if (prev != static_cast<std::size_t>(numClasses))
            throw std::runtime_error("ModelIr: output width != numClasses");
        break;
      }
      case ModelKind::kKMeans:
        if (centroids.empty())
            throw std::runtime_error("ModelIr: KMeans with no centroids");
        for (const auto &c : centroids)
            if (c.size() != inputDim)
                throw std::runtime_error("ModelIr: centroid width mismatch");
        break;
      case ModelKind::kSvm:
        if (svmWeights.size() != static_cast<std::size_t>(numClasses) ||
            svmBiases.size() != static_cast<std::size_t>(numClasses))
            throw std::runtime_error("ModelIr: SVM class count mismatch");
        for (const auto &w : svmWeights)
            if (w.size() != inputDim)
                throw std::runtime_error("ModelIr: SVM weight width mismatch");
        break;
      case ModelKind::kDecisionTree:
        if (treeNodes.empty())
            throw std::runtime_error("ModelIr: tree with no nodes");
        for (const auto &node : treeNodes) {
            if (!node.isLeaf) {
                if (node.left < 0 || node.right < 0 ||
                    node.left >= static_cast<int>(treeNodes.size()) ||
                    node.right >= static_cast<int>(treeNodes.size()))
                    throw std::runtime_error("ModelIr: tree child invalid");
                if (node.feature >= inputDim)
                    throw std::runtime_error("ModelIr: tree feature invalid");
            }
        }
        break;
    }
}

ModelIr
lowerMlp(const ml::Mlp &mlp, const common::FixedPointFormat &format,
         const std::string &name)
{
    return PassManager::loweringPipeline().lower(stageMlp(mlp, name),
                                                 format);
}

ModelIr
lowerKMeans(const ml::KMeans &kmeans, const common::FixedPointFormat &format,
            const std::string &name, std::size_t input_dim)
{
    return PassManager::loweringPipeline().lower(
        stageKMeans(kmeans, name, input_dim), format);
}

ModelIr
lowerSvm(const ml::LinearSvm &svm, const common::FixedPointFormat &format,
         const std::string &name, std::size_t input_dim)
{
    return PassManager::loweringPipeline().lower(
        stageSvm(svm, name, input_dim), format);
}

ModelIr
lowerDecisionTree(const ml::DecisionTreeClassifier &tree,
                  const common::FixedPointFormat &format,
                  const std::string &name, std::size_t input_dim)
{
    return PassManager::loweringPipeline().lower(
        stageDecisionTree(tree, name, input_dim), format);
}

namespace {

/** Fixed-point MLP forward pass returning the argmax class. */
int
executeMlp(const ModelIr &ir, const std::vector<double> &features)
{
    const common::FixedPointFormat &fmt = ir.format;
    std::vector<std::int32_t> current = fmt.quantizeVector(features);

    for (std::size_t l = 0; l < ir.layers.size(); ++l) {
        const QuantizedLayer &layer = ir.layers[l];
        std::vector<std::int32_t> next(layer.outputDim);
        for (std::size_t out = 0; out < layer.outputDim; ++out) {
            std::int32_t acc = layer.biases[out];
            for (std::size_t in = 0; in < layer.inputDim; ++in)
                acc = fmt.add(acc,
                              fmt.multiply(current[in],
                                           layer.weight(in, out)));
            bool is_output = (l + 1 == ir.layers.size());
            if (!is_output) {
                // Data-plane activations: ReLU is a max; tanh/sigmoid are
                // approximated by hard clamping, which is what a
                // lookup-free switch implementation does.
                switch (ir.activation) {
                  case ml::Activation::kRelu:
                    acc = std::max(acc, 0);
                    break;
                  case ml::Activation::kTanh:
                    acc = std::clamp(acc, fmt.quantize(-1.0),
                                     fmt.quantize(1.0));
                    break;
                  case ml::Activation::kSigmoid:
                    acc = std::clamp(acc, fmt.quantize(0.0),
                                     fmt.quantize(1.0));
                    break;
                }
            }
            next[out] = acc;
        }
        current = std::move(next);
    }

    // Argmax replaces softmax: monotone, so the class decision is equal.
    std::size_t best = 0;
    for (std::size_t c = 1; c < current.size(); ++c)
        if (current[c] > current[best])
            best = c;
    return static_cast<int>(best);
}

int
executeKMeans(const ModelIr &ir, const std::vector<double> &features)
{
    const common::FixedPointFormat &fmt = ir.format;
    std::vector<std::int32_t> q = fmt.quantizeVector(features);
    std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
    int best = 0;
    for (std::size_t c = 0; c < ir.centroids.size(); ++c) {
        std::int64_t dist = 0;
        for (std::size_t f = 0; f < ir.inputDim; ++f) {
            std::int64_t d = static_cast<std::int64_t>(q[f]) -
                             ir.centroids[c][f];
            dist += d * d;
        }
        if (dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
    }
    return best;
}

int
executeSvm(const ModelIr &ir, const std::vector<double> &features)
{
    const common::FixedPointFormat &fmt = ir.format;
    std::vector<std::int32_t> q = fmt.quantizeVector(features);
    std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
    int best = 0;
    for (std::size_t c = 0; c < ir.svmWeights.size(); ++c) {
        std::int64_t score = ir.svmBiases[c];
        for (std::size_t f = 0; f < ir.inputDim; ++f)
            score += fmt.multiply(q[f], ir.svmWeights[c][f]);
        if (score > best_score) {
            best_score = score;
            best = static_cast<int>(c);
        }
    }
    return best;
}

int
executeTree(const ModelIr &ir, const std::vector<double> &features)
{
    const common::FixedPointFormat &fmt = ir.format;
    std::vector<std::int32_t> q = fmt.quantizeVector(features);
    int index = 0;
    while (!ir.treeNodes[static_cast<std::size_t>(index)].isLeaf) {
        const IrTreeNode &node = ir.treeNodes[static_cast<std::size_t>(index)];
        index = q[node.feature] <= node.threshold ? node.left : node.right;
    }
    return ir.treeNodes[static_cast<std::size_t>(index)].classLabel;
}

}  // namespace

int
executeIr(const ModelIr &ir, const std::vector<double> &features)
{
    if (features.size() != ir.inputDim)
        throw std::runtime_error("executeIr: feature width mismatch");
    switch (ir.kind) {
      case ModelKind::kMlp: return executeMlp(ir, features);
      case ModelKind::kKMeans: return executeKMeans(ir, features);
      case ModelKind::kSvm: return executeSvm(ir, features);
      case ModelKind::kDecisionTree: return executeTree(ir, features);
    }
    return 0;
}

}  // namespace homunculus::ir
