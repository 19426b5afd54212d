#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace homunculus::ml {

std::string
activationName(Activation activation)
{
    switch (activation) {
      case Activation::kRelu: return "relu";
      case Activation::kTanh: return "tanh";
      case Activation::kSigmoid: return "sigmoid";
    }
    return "relu";
}

Activation
activationFromName(const std::string &name)
{
    if (name == "relu")
        return Activation::kRelu;
    if (name == "tanh")
        return Activation::kTanh;
    if (name == "sigmoid")
        return Activation::kSigmoid;
    throw std::runtime_error("unknown activation: " + name);
}

std::vector<std::size_t>
MlpConfig::layerDims() const
{
    std::vector<std::size_t> dims;
    dims.push_back(inputDim);
    for (std::size_t h : hiddenLayers)
        dims.push_back(h);
    dims.push_back(static_cast<std::size_t>(numClasses));
    return dims;
}

std::size_t
MlpConfig::paramCount() const
{
    std::vector<std::size_t> dims = layerDims();
    std::size_t total = 0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        total += dims[l] * dims[l + 1] + dims[l + 1];
    return total;
}

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    if (config_.inputDim == 0)
        common::panic("mlp", "inputDim must be positive");
    if (config_.numClasses < 2)
        common::panic("mlp", "numClasses must be at least 2");
    common::Rng rng(config_.seed);
    std::vector<std::size_t> dims = config_.layerDims();
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        math::Matrix w(dims[l], dims[l + 1]);
        // He initialization keeps ReLU activations well-scaled.
        double scale = std::sqrt(2.0 / static_cast<double>(dims[l]));
        for (double &value : w.data())
            value = rng.gaussian(0.0, scale);
        weights_.push_back(std::move(w));
        biases_.emplace_back(dims[l + 1], 0.0);
    }
}

namespace {

/** Shape @p m as rows x cols, keeping its storage when only the row
 *  count changes (the last, partial minibatch of an epoch). */
void
reshape(math::Matrix &m, std::size_t rows, std::size_t cols)
{
    if (m.cols() == cols)
        m.resizeRows(rows);
    else
        m = math::Matrix(rows, cols);
}

/**
 * out[t] = sum over k < count of a[k * a_step] * b[k * b_step + t * b_lane]
 * for every t < Lanes, each sum started at 0.0, taken over k ascending
 * and skipping k where the a term is zero — exactly the per-element order
 * of Matrix::matmul's i-k-j loop, so results are bit-identical to it.
 * The Lanes partial sums stay in registers across the whole k loop.
 */
template <std::size_t Lanes>
void
sumProductLanes(const double *a, std::size_t a_step, std::size_t count,
                const double *b, std::size_t b_step, std::size_t b_lane,
                double *out)
{
    double acc[Lanes] = {};
    for (std::size_t k = 0; k < count; ++k) {
        double a_k = a[k * a_step];
        if (a_k == 0.0)
            continue;
        const double *b_k = b + k * b_step;
        for (std::size_t t = 0; t < Lanes; ++t)
            acc[t] += a_k * b_k[t * b_lane];
    }
    for (std::size_t t = 0; t < Lanes; ++t)
        out[t] = acc[t];
}

/** sumProductLanes over @p lanes outputs, in register blocks of 8. */
void
sumProducts(const double *a, std::size_t a_step, std::size_t count,
            const double *b, std::size_t b_step, std::size_t b_lane,
            std::size_t lanes, double *out)
{
    std::size_t t = 0;
    for (; t + 8 <= lanes; t += 8)
        sumProductLanes<8>(a, a_step, count, b + t * b_lane, b_step, b_lane,
                           out + t);
    if (t + 4 <= lanes) {
        sumProductLanes<4>(a, a_step, count, b + t * b_lane, b_step, b_lane,
                           out + t);
        t += 4;
    }
    if (t + 2 <= lanes) {
        sumProductLanes<2>(a, a_step, count, b + t * b_lane, b_step, b_lane,
                           out + t);
        t += 2;
    }
    if (t < lanes)
        sumProductLanes<1>(a, a_step, count, b + t * b_lane, b_step, b_lane,
                           out + t);
}

/** out = in * w + b: each output sums as Matrix::matmul, then adds the
 *  bias (addRowVector's order). */
void
denseForward(const math::Matrix &in, const math::Matrix &w,
             const std::vector<double> &b, math::Matrix &out)
{
    const std::size_t n_in = w.rows(), n_out = w.cols();
    for (std::size_t i = 0; i < in.rows(); ++i) {
        double *out_row = out.rowPtr(i);
        sumProducts(in.rowPtr(i), 1, n_in, w.rowPtr(0), n_out, 1, n_out,
                    out_row);
        for (std::size_t j = 0; j < n_out; ++j)
            out_row[j] += b[j];
    }
}

template <typename Fn>
void
mapInPlace(math::Matrix &m, Fn fn)
{
    for (double &v : m.data())
        v = fn(v);
}

void
activateInPlace(Activation activation, math::Matrix &z)
{
    switch (activation) {
      case Activation::kRelu:
        mapInPlace(z, [](double v) { return v > 0.0 ? v : 0.0; });
        return;
      case Activation::kTanh:
        mapInPlace(z, [](double v) { return std::tanh(v); });
        return;
      case Activation::kSigmoid:
        mapInPlace(z, [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
        return;
    }
}

void
softmaxInPlace(math::Matrix &z)
{
    for (std::size_t r = 0; r < z.rows(); ++r) {
        double *row = z.rowPtr(r);
        double max_v = row[0];
        for (std::size_t c = 1; c < z.cols(); ++c)
            max_v = std::max(max_v, row[c]);
        double total = 0.0;
        for (std::size_t c = 0; c < z.cols(); ++c) {
            row[c] = std::exp(row[c] - max_v);
            total += row[c];
        }
        for (std::size_t c = 0; c < z.cols(); ++c)
            row[c] /= total;
    }
}

/**
 * delta_in = (delta_out * w^T) (.) f'(activated), without materializing
 * w^T: each element sums from 0.0 over k ascending, skipping zero
 * deltas — the order Matrix::matmul(w.transposed()) used.
 */
template <typename Derivative>
void
backpropDelta(const math::Matrix &delta_out, const math::Matrix &w,
              const math::Matrix &activated, math::Matrix &delta_in,
              Derivative derivative)
{
    const std::size_t n_in = w.rows(), n_out = w.cols();
    for (std::size_t i = 0; i < delta_out.rows(); ++i) {
        const double *a_row = activated.rowPtr(i);
        double *out_row = delta_in.rowPtr(i);
        // Row j of w is column j of w^T.
        sumProducts(delta_out.rowPtr(i), 1, n_out, w.rowPtr(0), 1, n_out,
                    n_in, out_row);
        for (std::size_t j = 0; j < n_in; ++j)
            out_row[j] *= derivative(a_row[j]);
    }
}

void
backpropDelta(Activation activation, const math::Matrix &delta_out,
              const math::Matrix &w, const math::Matrix &activated,
              math::Matrix &delta_in)
{
    switch (activation) {
      case Activation::kRelu:
        backpropDelta(delta_out, w, activated, delta_in,
                      [](double a) { return a > 0.0 ? 1.0 : 0.0; });
        return;
      case Activation::kTanh:
        backpropDelta(delta_out, w, activated, delta_in,
                      [](double a) { return 1.0 - a * a; });
        return;
      case Activation::kSigmoid:
        backpropDelta(delta_out, w, activated, delta_in,
                      [](double a) { return a * (1.0 - a); });
        return;
    }
}

/**
 * grad_w = (in^T * delta) * inv_b [+ w * l2], grad_b = colsums(delta) *
 * inv_b, without materializing in^T: each weight gradient sums from 0.0
 * over the minibatch rows ascending, skipping zero inputs, as
 * Matrix::matmul(in.transposed()) did.
 */
void
layerGradients(const math::Matrix &in, const math::Matrix &delta,
               const math::Matrix &w, double inv_b, double l2,
               math::Matrix &grad_w, std::vector<double> &grad_b)
{
    const std::size_t rows = in.rows(), n_in = w.rows(), n_out = w.cols();
    // Column i of in is row i of in^T.
    for (std::size_t i = 0; i < n_in; ++i)
        sumProducts(in.rowPtr(0) + i, n_in, rows, delta.rowPtr(0), n_out, 1,
                    n_out, grad_w.rowPtr(i));
    std::fill(grad_b.begin(), grad_b.end(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        const double *d_row = delta.rowPtr(r);
        for (std::size_t j = 0; j < n_out; ++j)
            grad_b[j] += d_row[j];
    }
    for (double &g : grad_w.data())
        g *= inv_b;
    if (l2 > 0.0)
        for (std::size_t i = 0; i < grad_w.size(); ++i)
            grad_w.data()[i] += w.data()[i] * l2;
    for (double &g : grad_b)
        g *= inv_b;
}

}  // namespace

void
Mlp::forward(std::vector<math::Matrix> &activations) const
{
    const std::size_t rows = activations.front().rows();
    activations.resize(weights_.size() + 1);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        math::Matrix &out = activations[l + 1];
        reshape(out, rows, weights_[l].cols());
        denseForward(activations[l], weights_[l], biases_[l], out);
        if (l + 1 == weights_.size())
            softmaxInPlace(out);
        else
            activateInPlace(config_.activation, out);
    }
}

math::Matrix
Mlp::predictProba(const math::Matrix &x) const
{
    if (x.cols() != config_.inputDim)
        common::panic("mlp", "predict: input width mismatch");
    std::vector<math::Matrix> activations{x};
    forward(activations);
    return std::move(activations.back());
}

std::vector<int>
Mlp::predict(const math::Matrix &x) const
{
    math::Matrix proba = predictProba(x);
    std::vector<int> labels(proba.rows());
    for (std::size_t r = 0; r < proba.rows(); ++r)
        labels[r] = static_cast<int>(proba.argmaxRow(r));
    return labels;
}

double
Mlp::loss(const Dataset &data) const
{
    math::Matrix proba = predictProba(data.x);
    double total = 0.0;
    for (std::size_t r = 0; r < proba.rows(); ++r) {
        double p = proba(r, static_cast<std::size_t>(data.y[r]));
        total -= std::log(std::max(p, 1e-12));
    }
    return total / static_cast<double>(std::max<std::size_t>(1, proba.rows()));
}

void
Mlp::setParameters(std::vector<math::Matrix> weights,
                   std::vector<std::vector<double>> biases)
{
    if (weights.size() != weights_.size() || biases.size() != biases_.size())
        common::panic("mlp", "setParameters: layer count mismatch");
    for (std::size_t l = 0; l < weights.size(); ++l) {
        if (weights[l].rows() != weights_[l].rows() ||
            weights[l].cols() != weights_[l].cols() ||
            biases[l].size() != biases_[l].size()) {
            common::panic("mlp", "setParameters: layer shape mismatch");
        }
    }
    weights_ = std::move(weights);
    biases_ = std::move(biases);
}

double
Mlp::train(const Dataset &data)
{
    if (data.numSamples() == 0)
        common::panic("mlp", "train: empty dataset");
    if (data.numFeatures() != config_.inputDim)
        common::panic("mlp", "train: input width mismatch");

    for (int label : data.y)
        if (label < 0 || label >= config_.numClasses)
            throw std::runtime_error("mlp: train label out of range");

    common::Rng rng(config_.seed ^ 0x9E3779B97F4A7C15ull);

    if (adamMW_.empty() && config_.useAdam) {
        for (std::size_t l = 0; l < weights_.size(); ++l) {
            adamMW_.emplace_back(weights_[l].rows(), weights_[l].cols());
            adamVW_.emplace_back(weights_[l].rows(), weights_[l].cols());
            adamMB_.emplace_back(biases_[l].size(), 0.0);
            adamVB_.emplace_back(biases_[l].size(), 0.0);
        }
    }

    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    const std::size_t layers = weights_.size();
    std::size_t n = data.numSamples();
    std::size_t batch = std::min(config_.batchSize, n);
    double last_loss = 0.0;

    // Workspaces for the whole call: acts[l] / deltas[l] hold layer l's
    // activations and error terms for one minibatch; the gradients match
    // the parameter shapes. Only the last, partial minibatch of an epoch
    // changes a row count, which resizeRows absorbs without allocating.
    std::vector<math::Matrix> acts(layers + 1), deltas(layers + 1);
    std::vector<math::Matrix> grad_ws(layers);
    std::vector<std::vector<double>> grad_bs(layers);
    for (std::size_t l = 0; l < layers; ++l) {
        grad_ws[l] = math::Matrix(weights_[l].rows(), weights_[l].cols());
        grad_bs[l].assign(biases_[l].size(), 0.0);
    }

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        std::vector<std::size_t> perm = rng.permutation(n);
        double epoch_loss = 0.0;
        std::size_t batches = 0;

        for (std::size_t start = 0; start < n; start += batch) {
            const std::size_t rows = std::min(start + batch, n) - start;
            const std::size_t *idx = perm.data() + start;
            double inv_b = 1.0 / static_cast<double>(rows);

            reshape(acts[0], rows, config_.inputDim);
            for (std::size_t r = 0; r < rows; ++r) {
                const double *src = data.x.rowPtr(idx[r]);
                std::copy(src, src + config_.inputDim, acts[0].rowPtr(r));
            }
            forward(acts);

            // Cross-entropy for reporting, and the softmax +
            // cross-entropy gradient at the output layer (probability
            // minus one-hot target).
            const math::Matrix &proba = acts[layers];
            reshape(deltas[layers], rows, proba.cols());
            for (std::size_t r = 0; r < rows; ++r) {
                auto label = static_cast<std::size_t>(data.y[idx[r]]);
                epoch_loss -=
                    std::log(std::max(proba(r, label), 1e-12)) * inv_b;
                const double *p_row = proba.rowPtr(r);
                double *d_row = deltas[layers].rowPtr(r);
                for (std::size_t c = 0; c < proba.cols(); ++c)
                    d_row[c] = p_row[c] - (c == label ? 1.0 : 0.0);
            }
            ++batches;

            for (std::size_t l = layers; l-- > 0;) {
                math::Matrix &grad_w = grad_ws[l];
                std::vector<double> &grad_b = grad_bs[l];
                layerGradients(acts[l], deltas[l + 1], weights_[l], inv_b,
                               config_.l2Penalty, grad_w, grad_b);
                if (l > 0) {
                    // Propagate before the weight update so the gradient
                    // uses the pre-update weights.
                    reshape(deltas[l], rows, weights_[l].rows());
                    backpropDelta(config_.activation, deltas[l + 1],
                                  weights_[l], acts[l], deltas[l]);
                }

                if (config_.useAdam) {
                    // Once per layer per minibatch; see adamStep_.
                    ++adamStep_;
                    double corr1 =
                        1.0 - std::pow(beta1,
                                       static_cast<double>(adamStep_));
                    double corr2 =
                        1.0 - std::pow(beta2,
                                       static_cast<double>(adamStep_));
                    auto &mw = adamMW_[l];
                    auto &vw = adamVW_[l];
                    for (std::size_t i = 0; i < grad_w.size(); ++i) {
                        double g = grad_w.data()[i];
                        mw.data()[i] = beta1 * mw.data()[i] +
                                       (1.0 - beta1) * g;
                        vw.data()[i] = beta2 * vw.data()[i] +
                                       (1.0 - beta2) * g * g;
                        double m_hat = mw.data()[i] / corr1;
                        double v_hat = vw.data()[i] / corr2;
                        weights_[l].data()[i] -=
                            config_.learningRate * m_hat /
                            (std::sqrt(v_hat) + eps);
                    }
                    auto &mb = adamMB_[l];
                    auto &vb = adamVB_[l];
                    for (std::size_t i = 0; i < grad_b.size(); ++i) {
                        double g = grad_b[i];
                        mb[i] = beta1 * mb[i] + (1.0 - beta1) * g;
                        vb[i] = beta2 * vb[i] + (1.0 - beta2) * g * g;
                        double m_hat = mb[i] / corr1;
                        double v_hat = vb[i] / corr2;
                        biases_[l][i] -= config_.learningRate * m_hat /
                                         (std::sqrt(v_hat) + eps);
                    }
                } else {
                    for (std::size_t i = 0; i < grad_w.size(); ++i)
                        weights_[l].data()[i] -=
                            config_.learningRate * grad_w.data()[i];
                    for (std::size_t i = 0; i < grad_b.size(); ++i)
                        biases_[l][i] -= config_.learningRate * grad_b[i];
                }
            }
        }
        last_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(
                                     1, batches));
    }
    return last_loss;
}

}  // namespace homunculus::ml
