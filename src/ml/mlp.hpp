/**
 * @file
 * Multi-layer perceptron with minibatch backpropagation.
 *
 * This is the DNN family Homunculus searches over for the Taurus and FPGA
 * backends. Models are deliberately small (they must map onto a switch
 * pipeline), so the implementation favors determinism and clarity over
 * large-scale throughput: dense matrix kernels, softmax cross-entropy,
 * SGD or Adam, optional L2 regularization.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "ml/dataset.hpp"

namespace homunculus::ml {

/** Hidden-layer nonlinearity. Data planes favor ReLU (max is cheap). */
enum class Activation { kRelu, kTanh, kSigmoid };

/** Parse/format helpers for Activation. */
std::string activationName(Activation activation);
Activation activationFromName(const std::string &name);

/** Hyperparameters of an MLP; the BO loop mutates exactly these. */
struct MlpConfig
{
    std::size_t inputDim = 0;
    std::vector<std::size_t> hiddenLayers;  ///< neurons per hidden layer.
    int numClasses = 2;
    Activation activation = Activation::kRelu;
    double learningRate = 0.01;
    std::size_t batchSize = 32;
    std::size_t epochs = 30;
    double l2Penalty = 0.0;
    bool useAdam = true;
    std::uint64_t seed = 1;

    /** Total trainable parameter count (weights + biases). */
    std::size_t paramCount() const;

    /** Layer widths including input and output: [in, h..., out]. */
    std::vector<std::size_t> layerDims() const;
};

/** A trained (or trainable) multi-layer perceptron classifier. */
class Mlp
{
  public:
    explicit Mlp(MlpConfig config);

    /** Train on the given dataset; returns final training loss. */
    double train(const Dataset &data);

    /** Class-probability matrix (n x numClasses, softmax outputs). */
    math::Matrix predictProba(const math::Matrix &x) const;

    /** Hard class predictions (argmax over probabilities). */
    std::vector<int> predict(const math::Matrix &x) const;

    /** Mean cross-entropy loss on a dataset. */
    double loss(const Dataset &data) const;

    const MlpConfig &config() const { return config_; }
    std::size_t paramCount() const { return config_.paramCount(); }

    /** Layer weights: weights()[l] maps layer l activations to l+1. */
    const std::vector<math::Matrix> &weights() const { return weights_; }
    const std::vector<std::vector<double>> &biases() const { return biases_; }

    /** Replace parameters (used when loading quantized weights back). */
    void setParameters(std::vector<math::Matrix> weights,
                       std::vector<std::vector<double>> biases);

  private:
    /**
     * Forward pass from activations[0] (the input rows): writes every
     * later layer's activations in place, reusing the buffers when they
     * are already shaped — train() keeps one set for all its minibatches.
     */
    void forward(std::vector<math::Matrix> &activations) const;

    MlpConfig config_;
    std::vector<math::Matrix> weights_;
    std::vector<std::vector<double>> biases_;

    // Adam state (allocated lazily on first train step).
    std::vector<math::Matrix> adamMW_, adamVW_;
    std::vector<std::vector<double>> adamMB_, adamVB_;
    /**
     * Adam's bias-correction step. Known quirk, kept on purpose: train()
     * advances it once per layer per minibatch, not once per minibatch,
     * so an L-layer network's correction runs L times too fast (and the
     * layers of one step see different corrections). Fixing it changes
     * every trained model and therefore every search winner.
     */
    std::size_t adamStep_ = 0;
};

}  // namespace homunculus::ml
