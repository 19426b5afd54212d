#include "ir/passes.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/string_util.hpp"

namespace homunculus::ir {

// ------------------------------------------------------------- staging ---

FloatModel
stageMlp(const ml::Mlp &mlp, const std::string &name)
{
    FloatModel staged;
    staged.kind = ModelKind::kMlp;
    staged.name = name;
    staged.inputDim = mlp.config().inputDim;
    staged.numClasses = mlp.config().numClasses;
    staged.activation = mlp.config().activation;

    for (std::size_t l = 0; l < mlp.weights().size(); ++l) {
        const math::Matrix &w = mlp.weights()[l];
        FloatModel::Layer layer;
        layer.inputDim = w.rows();
        layer.outputDim = w.cols();
        layer.weights = w.data();
        layer.biases = mlp.biases()[l];
        staged.layers.push_back(std::move(layer));
    }
    return staged;
}

FloatModel
stageKMeans(const ml::KMeans &kmeans, const std::string &name,
            std::size_t input_dim)
{
    FloatModel staged;
    staged.kind = ModelKind::kKMeans;
    staged.name = name;
    staged.inputDim = input_dim;
    for (std::size_t c = 0; c < kmeans.centroids().rows(); ++c)
        staged.centroids.push_back(kmeans.centroids().row(c));
    // A 1-cluster model still validates with numClasses >= 2 semantics:
    // clamp to 2 so downstream class vectors are well-formed.
    staged.numClasses =
        std::max(static_cast<int>(kmeans.centroids().rows()), 2);
    while (staged.centroids.size() < 2)
        staged.centroids.push_back(staged.centroids.front());
    return staged;
}

FloatModel
stageSvm(const ml::LinearSvm &svm, const std::string &name,
         std::size_t input_dim)
{
    FloatModel staged;
    staged.kind = ModelKind::kSvm;
    staged.name = name;
    staged.inputDim = input_dim;
    staged.numClasses = svm.numClasses();
    for (int c = 0; c < svm.numClasses(); ++c) {
        auto cu = static_cast<std::size_t>(c);
        staged.svmWeights.push_back(svm.weights().row(cu));
        staged.svmBiases.push_back(svm.biases()[cu]);
    }
    return staged;
}

FloatModel
stageDecisionTree(const ml::DecisionTreeClassifier &tree,
                  const std::string &name, std::size_t input_dim)
{
    FloatModel staged;
    staged.kind = ModelKind::kDecisionTree;
    staged.name = name;
    staged.inputDim = input_dim;
    staged.numClasses = tree.numClasses();
    staged.treeDepth = tree.depth();

    // Children appended after the parent so node 0 is always the root.
    std::function<int(const ml::TreeNode *)> flatten =
        [&](const ml::TreeNode *node) -> int {
        int index = static_cast<int>(staged.treeNodes.size());
        staged.treeNodes.emplace_back();
        auto at = [&](int i) -> FloatModel::TreeNode & {
            return staged.treeNodes[static_cast<std::size_t>(i)];
        };
        at(index).isLeaf = node->isLeaf;
        at(index).classLabel = node->classLabel;
        if (!node->isLeaf) {
            at(index).feature = node->feature;
            at(index).threshold = node->threshold;
            int left = flatten(node->left.get());
            int right = flatten(node->right.get());
            at(index).left = left;
            at(index).right = right;
        }
        return index;
    };
    if (!tree.root())
        throw std::runtime_error("stageDecisionTree: untrained tree");
    flatten(tree.root());
    return staged;
}

// ------------------------------------------------------------ quantize ---

ModelIr
quantizePass(const FloatModel &staged, const common::FixedPointFormat &format)
{
    ModelIr model;
    model.kind = staged.kind;
    model.name = staged.name;
    model.inputDim = staged.inputDim;
    model.numClasses = staged.numClasses;
    model.format = format;
    model.activation = staged.activation;
    model.treeDepth = staged.treeDepth;

    for (const FloatModel::Layer &layer : staged.layers) {
        QuantizedLayer quantized;
        quantized.inputDim = layer.inputDim;
        quantized.outputDim = layer.outputDim;
        quantized.weights = format.quantizeVector(layer.weights);
        quantized.biases = format.quantizeVector(layer.biases);
        model.layers.push_back(std::move(quantized));
    }
    for (const auto &centroid : staged.centroids)
        model.centroids.push_back(format.quantizeVector(centroid));
    for (const auto &weights : staged.svmWeights)
        model.svmWeights.push_back(format.quantizeVector(weights));
    for (double bias : staged.svmBiases)
        model.svmBiases.push_back(format.quantize(bias));
    for (const FloatModel::TreeNode &node : staged.treeNodes) {
        IrTreeNode quantized;
        quantized.isLeaf = node.isLeaf;
        quantized.feature = node.feature;
        quantized.classLabel = node.classLabel;
        quantized.left = node.left;
        quantized.right = node.right;
        if (!node.isLeaf)
            quantized.threshold = format.quantize(node.threshold);
        model.treeNodes.push_back(quantized);
    }

    model.passes.push_back("quantize");
    return model;
}

// -------------------------------------------------------------- passes ---

namespace {

/** Max edge-depth reachable from the root (0 for a lone leaf). */
std::size_t
reachableTreeDepth(const ModelIr &model)
{
    std::size_t max_depth = 0;
    std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
    while (!stack.empty()) {
        auto [index, depth] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, depth);
        const IrTreeNode &node =
            model.treeNodes[static_cast<std::size_t>(index)];
        if (!node.isLeaf) {
            stack.push_back({node.left, depth + 1});
            stack.push_back({node.right, depth + 1});
        }
    }
    return max_depth;
}

/** Drop tree nodes unreachable from the root; preserves node order. */
bool
pruneDeadTree(ModelIr &model)
{
    std::vector<char> reachable(model.treeNodes.size(), 0);
    std::vector<int> stack{0};
    while (!stack.empty()) {
        int index = stack.back();
        stack.pop_back();
        auto u = static_cast<std::size_t>(index);
        if (reachable[u])
            continue;
        reachable[u] = 1;
        if (!model.treeNodes[u].isLeaf) {
            stack.push_back(model.treeNodes[u].left);
            stack.push_back(model.treeNodes[u].right);
        }
    }
    if (std::all_of(reachable.begin(), reachable.end(),
                    [](char r) { return r != 0; }))
        return false;

    std::vector<int> remap(model.treeNodes.size(), -1);
    int next = 0;
    for (std::size_t i = 0; i < model.treeNodes.size(); ++i)
        if (reachable[i])
            remap[i] = next++;

    std::vector<IrTreeNode> kept;
    kept.reserve(static_cast<std::size_t>(next));
    for (std::size_t i = 0; i < model.treeNodes.size(); ++i) {
        if (!reachable[i])
            continue;
        IrTreeNode node = model.treeNodes[i];
        if (!node.isLeaf) {
            node.left = remap[static_cast<std::size_t>(node.left)];
            node.right = remap[static_cast<std::size_t>(node.right)];
        }
        kept.push_back(node);
    }
    model.treeNodes = std::move(kept);
    model.treeDepth = reachableTreeDepth(model);
    return true;
}

/**
 * Drop dead hidden units: a unit whose outgoing weights are all zero
 * contributes nothing downstream, and a unit with all-zero incoming
 * weights and zero bias always outputs zero (every supported activation
 * maps 0 to 0), which the next layer multiplies into zero. Removing
 * either keeps the saturating accumulation sequence of the remaining
 * terms unchanged, so predictions are bit-identical.
 */
bool
pruneDeadMlpUnits(ModelIr &model)
{
    bool changed = false;
    bool again = true;
    while (again) {
        again = false;
        for (std::size_t l = 0; l + 1 < model.layers.size(); ++l) {
            QuantizedLayer &layer = model.layers[l];
            QuantizedLayer &next = model.layers[l + 1];

            std::vector<std::size_t> keep;
            for (std::size_t j = 0; j < layer.outputDim; ++j) {
                bool out_zero = true;
                for (std::size_t k = 0; out_zero && k < next.outputDim; ++k)
                    out_zero = next.weights[j * next.outputDim + k] == 0;
                bool in_zero = layer.biases[j] == 0;
                for (std::size_t i = 0; in_zero && i < layer.inputDim; ++i)
                    in_zero = layer.weights[i * layer.outputDim + j] == 0;
                if (!out_zero && !in_zero)
                    keep.push_back(j);
            }
            if (keep.empty())
                keep.push_back(0);  // keep the layer structurally valid.
            if (keep.size() == layer.outputDim)
                continue;

            QuantizedLayer pruned;
            pruned.inputDim = layer.inputDim;
            pruned.outputDim = keep.size();
            pruned.weights.resize(pruned.inputDim * pruned.outputDim);
            pruned.biases.resize(pruned.outputDim);
            for (std::size_t i = 0; i < pruned.inputDim; ++i)
                for (std::size_t jj = 0; jj < keep.size(); ++jj)
                    pruned.weights[i * pruned.outputDim + jj] =
                        layer.weights[i * layer.outputDim + keep[jj]];
            for (std::size_t jj = 0; jj < keep.size(); ++jj)
                pruned.biases[jj] = layer.biases[keep[jj]];

            QuantizedLayer shrunk;
            shrunk.inputDim = keep.size();
            shrunk.outputDim = next.outputDim;
            shrunk.weights.resize(shrunk.inputDim * shrunk.outputDim);
            shrunk.biases = next.biases;
            for (std::size_t jj = 0; jj < keep.size(); ++jj)
                for (std::size_t k = 0; k < next.outputDim; ++k)
                    shrunk.weights[jj * next.outputDim + k] =
                        next.weights[keep[jj] * next.outputDim + k];

            layer = std::move(pruned);
            next = std::move(shrunk);
            changed = again = true;
        }
    }
    return changed;
}

bool
pruneDeadPass(ModelIr &model)
{
    switch (model.kind) {
      case ModelKind::kDecisionTree: return pruneDeadTree(model);
      case ModelKind::kMlp: return pruneDeadMlpUnits(model);
      case ModelKind::kKMeans:
      case ModelKind::kSvm:
        // Cluster/class slots double as output labels; dropping one would
        // renumber predictions, so there is nothing safely removable.
        return false;
    }
    return false;
}

/**
 * Constant-fold decision trees: a split whose branches both land on the
 * same label is that label, and a split against a saturated threshold
 * (every quantized feature value satisfies it) is its left subtree.
 * Orphaned children are left for a following prune-dead pass.
 */
bool
foldConstantsPass(ModelIr &model)
{
    if (model.kind != ModelKind::kDecisionTree)
        return false;
    std::int64_t raw_max =
        (std::int64_t{1} << (model.format.totalBits() - 1)) - 1;
    bool changed = false;
    bool again = true;
    while (again) {
        again = false;
        for (IrTreeNode &node : model.treeNodes) {
            if (node.isLeaf)
                continue;
            if (node.threshold >= raw_max) {
                node = model.treeNodes[static_cast<std::size_t>(node.left)];
                changed = again = true;
                continue;
            }
            const IrTreeNode &left =
                model.treeNodes[static_cast<std::size_t>(node.left)];
            const IrTreeNode &right =
                model.treeNodes[static_cast<std::size_t>(node.right)];
            if (left.isLeaf && right.isLeaf &&
                left.classLabel == right.classLabel) {
                node.isLeaf = true;
                node.classLabel = left.classLabel;
                node.feature = 0;
                node.threshold = 0;
                node.left = -1;
                node.right = -1;
                changed = again = true;
            }
        }
    }
    if (changed)
        model.treeDepth = reachableTreeDepth(model);
    return changed;
}

/**
 * The IR-level quantize pass: re-saturate every stored payload word into
 * the artifact's Q-format range. Lowering's float->fixed quantization
 * (quantizePass) already saturates, so this is the identity on every
 * pipeline-lowered artifact; it exists so hand-built or externally
 * patched IRs can be forced back onto the format contract, and so the
 * pass table matches the documented pipeline (quantize is lowering's
 * implicit first pass).
 */
bool
requantizePass(ModelIr &model)
{
    std::int64_t raw_max =
        (std::int64_t{1} << (model.format.totalBits() - 1)) - 1;
    std::int64_t raw_min = -(std::int64_t{1} << (model.format.totalBits() - 1));
    bool changed = false;
    auto clampWord = [&](std::int32_t &word) {
        auto clamped = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(word, raw_min, raw_max));
        changed |= clamped != word;
        word = clamped;
    };
    for (QuantizedLayer &layer : model.layers) {
        for (std::int32_t &w : layer.weights)
            clampWord(w);
        for (std::int32_t &b : layer.biases)
            clampWord(b);
    }
    for (auto &centroid : model.centroids)
        for (std::int32_t &v : centroid)
            clampWord(v);
    for (auto &weights : model.svmWeights)
        for (std::int32_t &v : weights)
            clampWord(v);
    for (std::int32_t &bias : model.svmBiases)
        clampWord(bias);
    for (IrTreeNode &node : model.treeNodes)
        if (!node.isLeaf)
            clampWord(node.threshold);
    return changed;
}

bool
validatePass(ModelIr &model)
{
    model.validate();
    return false;
}

/** The built-in passes (function-local, so a lookup from another TU's
 *  static initializer never sees the table unconstructed). */
const std::vector<PassInfo> &
builtinPasses()
{
    static const std::vector<PassInfo> passes = {
        {"validate", "structural consistency checks (never rewrites)",
         validatePass},
        {"quantize",
         "re-saturate payload words into the Q-format (lowering's "
         "implicit first pass; identity on conforming artifacts)",
         requantizePass},
        {"prune-dead",
         "drop unreachable tree nodes and dead MLP hidden units",
         pruneDeadPass},
        {"fold-constants",
         "collapse same-label tree splits and saturated comparisons",
         foldConstantsPass},
    };
    return passes;
}

}  // namespace

// ---------------------------------------------------------- pass table ---

const PassInfo *
findPass(const std::string &name)
{
    for (const PassInfo &pass : builtinPasses())
        if (pass.name == name)
            return &pass;
    return nullptr;
}

std::vector<std::string>
passNames()
{
    std::vector<std::string> names;
    for (const PassInfo &pass : builtinPasses())
        names.push_back(pass.name);
    std::sort(names.begin(), names.end());
    return names;
}

// --------------------------------------------------------- PassManager ---

PassManager
PassManager::loweringPipeline()
{
    PassManager manager;
    manager.append("validate");
    return manager;
}

PassManager
PassManager::optimizationPipeline()
{
    PassManager manager;
    manager.append("validate");
    manager.append("prune-dead");
    manager.append("fold-constants");
    manager.append("prune-dead");  // clean up children orphaned by folding.
    manager.append("validate");
    return manager;
}

PassManager &
PassManager::append(const std::string &pass_name)
{
    const PassInfo *pass = findPass(pass_name);
    if (pass == nullptr)
        throw std::runtime_error(
            "unknown pass '" + pass_name + "' (known passes: " +
            common::join(ir::passNames(), ", ") + ")");
    pipeline_.push_back(*pass);
    return *this;
}

bool
PassManager::run(ModelIr &model) const
{
    bool changed = false;
    for (const PassInfo &pass : pipeline_) {
        changed |= pass.run(model);
        model.passes.push_back(pass.name);
        if (dump_)
            dump_(pass.name, model);
    }
    return changed;
}

ModelIr
PassManager::lower(const FloatModel &staged,
                   const common::FixedPointFormat &format) const
{
    ModelIr model = quantizePass(staged, format);
    if (dump_)
        dump_("quantize", model);
    run(model);
    return model;
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(pipeline_.size());
    for (const PassInfo &pass : pipeline_)
        names.push_back(pass.name);
    return names;
}

}  // namespace homunculus::ir
