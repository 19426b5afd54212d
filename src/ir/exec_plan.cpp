#include "ir/exec_plan.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "kernels/kernel_dispatch.hpp"

namespace homunculus::ir {

namespace {

/** Rows quantized together so layer weights stay hot across the block. */
constexpr std::size_t kRowBlock = 32;

/** Saturate to the format's raw range (same math as FixedPointFormat). */
inline std::int32_t
saturateRaw(std::int64_t raw, std::int64_t raw_min, std::int64_t raw_max)
{
    if (raw > raw_max)
        raw = raw_max;
    if (raw < raw_min)
        raw = raw_min;
    return static_cast<std::int32_t>(raw);
}

}  // namespace

// -------------------------------------------------------- QuantizedMatrix

QuantizedMatrix::QuantizedMatrix(const math::Matrix &x,
                                 const common::FixedPointFormat &format)
    : format_(format), rows_(x.rows()), cols_(x.cols())
{
    data_.resize(rows_ * cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        format_.quantizeInto(x.rowPtr(r), data_.data() + r * cols_, cols_);
}

// --------------------------------------------------------- ExecutablePlan

ExecutablePlan
ExecutablePlan::compile(const ModelIr &model)
{
    model.validate();

    ExecutablePlan plan;
    plan.kind_ = model.kind;
    plan.inputDim_ = model.inputDim;
    plan.numClasses_ = model.numClasses;
    plan.format_ = model.format;
    plan.fracBits_ = model.format.fracBits();
    int total_bits = model.format.totalBits();
    plan.rawMax_ = (std::int64_t{1} << (total_bits - 1)) - 1;
    plan.rawMin_ = -(std::int64_t{1} << (total_bits - 1));
    plan.narrow_ = total_bits <= 16;
    plan.int8_ = total_bits <= 8;

    switch (model.kind) {
      case ModelKind::kMlp: {
        plan.maxWidth_ = model.inputDim;
        for (const QuantizedLayer &layer : model.layers) {
            Layer compiled;
            compiled.inputDim = layer.inputDim;
            compiled.outputDim = layer.outputDim;
            compiled.biases = layer.biases;
            compiled.weightsT.resize(layer.inputDim * layer.outputDim);
            for (std::size_t in = 0; in < layer.inputDim; ++in)
                for (std::size_t out = 0; out < layer.outputDim; ++out)
                    compiled.weightsT[out * layer.inputDim + in] =
                        layer.weights[in * layer.outputDim + out];
            plan.maxWidth_ = std::max(plan.maxWidth_, layer.outputDim);
            plan.layers_.push_back(std::move(compiled));
        }
        // Packed-weight panels for the narrow dense kernels: every raw
        // word of a <= 16-bit format fits int16 (and of a <= 8-bit
        // format, int8), so repacking at compile time is lossless and
        // the GEMM streams half (or a quarter of) the weight bytes.
        for (Layer &layer : plan.layers_) {
            if (plan.narrow_) {
                layer.weights16.resize(layer.weightsT.size());
                for (std::size_t i = 0; i < layer.weightsT.size(); ++i)
                    layer.weights16[i] =
                        static_cast<std::int16_t>(layer.weightsT[i]);
            }
            if (plan.int8_) {
                layer.weights8.resize(layer.weightsT.size());
                for (std::size_t i = 0; i < layer.weightsT.size(); ++i)
                    layer.weights8[i] =
                        static_cast<std::int8_t>(layer.weightsT[i]);
                layer.biases16.resize(layer.biases.size());
                for (std::size_t i = 0; i < layer.biases.size(); ++i)
                    layer.biases16[i] =
                        static_cast<std::int16_t>(layer.biases[i]);
            }
        }
        // Hidden activations as one clamp window: ReLU's max(acc, 0) is
        // clamp(acc, 0, rawMax) because acc is already saturated.
        switch (model.activation) {
          case ml::Activation::kRelu:
            plan.actLo_ = 0;
            plan.actHi_ = static_cast<std::int32_t>(plan.rawMax_);
            break;
          case ml::Activation::kTanh:
            plan.actLo_ = model.format.quantize(-1.0);
            plan.actHi_ = model.format.quantize(1.0);
            break;
          case ml::Activation::kSigmoid:
            plan.actLo_ = model.format.quantize(0.0);
            plan.actHi_ = model.format.quantize(1.0);
            break;
        }
        break;
      }
      case ModelKind::kKMeans: {
        plan.numCentroids_ = model.centroids.size();
        plan.centroids_.reserve(plan.numCentroids_ * model.inputDim);
        for (const auto &centroid : model.centroids)
            plan.centroids_.insert(plan.centroids_.end(), centroid.begin(),
                                   centroid.end());
        break;
      }
      case ModelKind::kSvm: {
        plan.svmWeights_.reserve(model.svmWeights.size() * model.inputDim);
        for (const auto &weights : model.svmWeights)
            plan.svmWeights_.insert(plan.svmWeights_.end(), weights.begin(),
                                    weights.end());
        plan.svmBiases_.assign(model.svmBiases.begin(),
                               model.svmBiases.end());
        break;
      }
      case ModelKind::kDecisionTree: {
        std::size_t n = model.treeNodes.size();
        plan.nodeFeature_.resize(n);
        plan.nodeThreshold_.resize(n);
        plan.nodeLeft_.resize(n);
        plan.nodeRight_.resize(n);
        plan.nodeLabel_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const IrTreeNode &node = model.treeNodes[i];
            plan.nodeFeature_[i] = static_cast<std::int32_t>(node.feature);
            plan.nodeThreshold_[i] = node.threshold;
            plan.nodeLeft_[i] = node.isLeaf ? -1 : node.left;
            plan.nodeRight_[i] = node.isLeaf ? -1 : node.right;
            plan.nodeLabel_[i] = node.classLabel;
        }
        break;
      }
    }
    return plan;
}

void
ExecutablePlan::runMlpRangeNarrow(const math::Matrix *x,
                                  const QuantizedMatrix *qx,
                                  std::size_t row_begin,
                                  std::size_t row_end, int *labels,
                                  Scratch &scratch,
                                  const kernels::KernelOps &ops) const
{
    // The blocked int32 GEMM path for formats of <= 16 total bits (the
    // Q8.8 default). kLanes rows are processed together in a lane-major
    // interleaved layout (element `in` of lane `l` lives at
    // in * kLanes + l), which makes the lane dimension stride-1 — the
    // dense kernel holds the accumulators in one vector register. With
    // a narrow format every |raw| <= 2^15, so a weight * activation
    // product fits int32 exactly and the whole MAC — product,
    // renormalizing shift, both saturations — runs in int32 lanes.
    // Each lane still replays the interpreter's exact saturating term
    // order (the kernel contract), so labels are bit-identical to
    // executeIr regardless of where a shard's lane groups fall or
    // which dispatch target runs them. There is no per-row scalar
    // tail: a partial last group runs the same kernels, zero-padded.
    constexpr std::size_t kLanes = kernels::kDenseLanes32;
    scratch.quantized.resize(kLanes * inputDim_);
    scratch.actA.resize(kLanes * maxWidth_);
    scratch.actB.resize(kLanes * maxWidth_);
    std::int32_t *quantized = scratch.quantized.data();

    kernels::DenseI32Args args;
    args.fracBits = fracBits_;
    args.rawMin = static_cast<std::int32_t>(rawMin_);
    args.rawMax = static_cast<std::int32_t>(rawMax_);
    args.actLo = actLo_;
    args.actHi = actHi_;

    const std::size_t classes = layers_.back().outputDim;
    for (std::size_t base = row_begin; base < row_end; base += kLanes) {
        // The last group of a range may be partial: its empty lanes are
        // zero-padded and run through the same kernels as a full group
        // (the kernel padded-lane contract, kernel_api.hpp). Lanes never
        // interact, so a padded lane cannot perturb a live one, and only
        // live lanes' labels are written back.
        const std::size_t live = std::min(kLanes, row_end - base);
        args.liveLanes = live;
        if (qx != nullptr) {
            for (std::size_t lane = 0; lane < live; ++lane) {
                const std::int32_t *q = qx->rowPtr(base + lane);
                for (std::size_t in = 0; in < inputDim_; ++in)
                    quantized[in * kLanes + lane] = q[in];
            }
        } else {
            for (std::size_t lane = 0; lane < live; ++lane)
                format_.quantizeInto(x->rowPtr(base + lane),
                                     &quantized[lane], inputDim_, kLanes);
        }
        if (live < kLanes)
            for (std::size_t in = 0; in < inputDim_; ++in)
                std::fill_n(&quantized[in * kLanes + live], kLanes - live,
                            0);

        const std::int32_t *current = quantized;
        std::int32_t *front = scratch.actA.data();
        std::int32_t *back = scratch.actB.data();
        for (std::size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            args.input = current;
            args.output = front;
            args.weightsT = layer.weights16.data();
            args.biases = layer.biases.data();
            args.inputDim = layer.inputDim;
            args.outputDim = layer.outputDim;
            args.clampAct = l + 1 < layers_.size();
            ops.denseI32(args);
            current = front;
            std::swap(front, back);
        }

        int lane_labels[kLanes];
        ops.argmaxI32(current, classes, lane_labels);
        std::copy_n(lane_labels, live, labels + (base - row_begin));
    }
}

void
ExecutablePlan::runMlpRangeI8(const math::Matrix *x,
                              const QuantizedMatrix *qx,
                              std::size_t row_begin, std::size_t row_end,
                              int *labels, Scratch &scratch,
                              const kernels::KernelOps &ops) const
{
    // The int8-weight fast path for formats of <= 8 total bits: 16
    // rows per group in all-int16 arithmetic (|raw| <= 2^7 keeps every
    // product within int16 and every post-clamp sum within [-256, 255],
    // so int16 replays the int64 reference exactly). Same interleaved
    // layout as the int32 path, twice the lanes per register.
    constexpr std::size_t kLanes = kernels::kDenseLanes16;
    scratch.quantized.resize(inputDim_);  // int32 quantizer staging.
    scratch.quantized16.resize(kLanes * inputDim_);
    scratch.act16A.resize(kLanes * maxWidth_);
    scratch.act16B.resize(kLanes * maxWidth_);
    std::int16_t *quantized16 = scratch.quantized16.data();

    kernels::DenseI16Args args;
    args.fracBits = fracBits_;
    args.rawMin = static_cast<std::int16_t>(rawMin_);
    args.rawMax = static_cast<std::int16_t>(rawMax_);
    args.actLo = static_cast<std::int16_t>(actLo_);
    args.actHi = static_cast<std::int16_t>(actHi_);

    const std::size_t classes = layers_.back().outputDim;
    for (std::size_t base = row_begin; base < row_end; base += kLanes) {
        // Partial last group: zero-padded lanes, live labels only (see
        // runMlpRangeNarrow).
        const std::size_t live = std::min(kLanes, row_end - base);
        args.liveLanes = live;
        for (std::size_t lane = 0; lane < live; ++lane) {
            const std::int32_t *q;
            if (qx != nullptr) {
                q = qx->rowPtr(base + lane);
            } else {
                format_.quantizeInto(x->rowPtr(base + lane),
                                     scratch.quantized.data(),
                                     inputDim_);
                q = scratch.quantized.data();
            }
            // Narrowing copy is lossless: the quantizer saturates to
            // the format's <= 8-bit raw range.
            for (std::size_t in = 0; in < inputDim_; ++in)
                quantized16[in * kLanes + lane] =
                    static_cast<std::int16_t>(q[in]);
        }
        if (live < kLanes)
            for (std::size_t in = 0; in < inputDim_; ++in)
                std::fill_n(&quantized16[in * kLanes + live],
                            kLanes - live, std::int16_t{0});

        const std::int16_t *current = quantized16;
        std::int16_t *front = scratch.act16A.data();
        std::int16_t *back = scratch.act16B.data();
        for (std::size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            args.input = current;
            args.output = front;
            args.weightsT = layer.weights8.data();
            args.biases = layer.biases16.data();
            args.inputDim = layer.inputDim;
            args.outputDim = layer.outputDim;
            args.clampAct = l + 1 < layers_.size();
            ops.denseI16(args);
            current = front;
            std::swap(front, back);
        }

        int lane_labels[kLanes];
        ops.argmaxI16(current, classes, lane_labels);
        std::copy_n(lane_labels, live, labels + (base - row_begin));
    }
}

void
ExecutablePlan::runTreeRange(const math::Matrix *x,
                             const QuantizedMatrix *qx,
                             std::size_t row_begin, std::size_t row_end,
                             int *labels, Scratch &scratch,
                             const kernels::KernelOps &ops) const
{
    // Blocked descent: kTreeLanes rows walk the SoA node arrays
    // together (vectorized compare+select per level) instead of the
    // branchy per-row loop; a lane that reaches its leaf early just
    // stops advancing while the group finishes.
    constexpr std::size_t kLanes = kernels::kTreeLanes;
    scratch.quantized.resize(kLanes * inputDim_);
    std::int32_t *quantized = scratch.quantized.data();

    kernels::TreeTraverseArgs args;
    args.nodeFeature = nodeFeature_.data();
    args.nodeThreshold = nodeThreshold_.data();
    args.nodeLeft = nodeLeft_.data();
    args.nodeRight = nodeRight_.data();
    args.nodeLabel = nodeLabel_.data();

    std::size_t base = row_begin;
    for (; base + kLanes <= row_end; base += kLanes) {
        if (qx != nullptr) {
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                const std::int32_t *q = qx->rowPtr(base + lane);
                for (std::size_t in = 0; in < inputDim_; ++in)
                    quantized[in * kLanes + lane] = q[in];
            }
        } else {
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                format_.quantizeInto(x->rowPtr(base + lane),
                                     &quantized[lane], inputDim_, kLanes);
        }
        args.input = quantized;
        args.labels = labels + (base - row_begin);
        ops.treeTraverse(args);
    }

    for (; base < row_end; ++base) {
        const std::int32_t *q;
        if (qx != nullptr) {
            q = qx->rowPtr(base);
        } else {
            quantizeRow(x->rowPtr(base), quantized);
            q = quantized;
        }
        labels[base - row_begin] = inferTree(q);
    }
}

void
ExecutablePlan::runMlpRangeWide(const math::Matrix *x,
                                const QuantizedMatrix *qx,
                                std::size_t row_begin, std::size_t row_end,
                                int *labels, Scratch &scratch) const
{
    // Generic-format path: same blocked structure, int64 arithmetic.
    // Rows are blocked so each layer's transposed weights are reused
    // while resident in cache; kLanes independent saturating-MAC chains
    // interleave to fill the pipeline. Pre-quantized input is consumed
    // in place (the QuantizedMatrix is row-major contiguous).
    constexpr std::size_t kLanes = 4;
    scratch.quantized.resize(kRowBlock * inputDim_);
    scratch.actA.resize(kRowBlock * maxWidth_);
    scratch.actB.resize(kRowBlock * maxWidth_);
    for (std::size_t block_base = row_begin; block_base < row_end;
         block_base += kRowBlock) {
        std::size_t block = std::min(kRowBlock, row_end - block_base);
        const std::int32_t *current;
        if (qx != nullptr) {
            current = qx->rowPtr(block_base);
        } else {
            for (std::size_t i = 0; i < block; ++i)
                quantizeRow(x->rowPtr(block_base + i),
                            &scratch.quantized[i * inputDim_]);
            current = scratch.quantized.data();
        }

        std::size_t current_width = inputDim_;
        std::int32_t *front = scratch.actA.data();
        std::int32_t *back = scratch.actB.data();
        for (std::size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            bool hidden = l + 1 < layers_.size();
            std::size_t i = 0;
            for (; i + kLanes <= block; i += kLanes) {
                const std::int32_t *in_rows = current + i * current_width;
                std::int32_t *out_rows = front + i * layer.outputDim;
                for (std::size_t out = 0; out < layer.outputDim; ++out) {
                    const std::int32_t *w =
                        &layer.weightsT[out * layer.inputDim];
                    std::int32_t acc[kLanes];
                    for (std::size_t lane = 0; lane < kLanes; ++lane)
                        acc[lane] = layer.biases[out];
                    for (std::size_t in = 0; in < layer.inputDim; ++in) {
                        std::int64_t weight = w[in];
                        for (std::size_t lane = 0; lane < kLanes; ++lane) {
                            std::int64_t product =
                                in_rows[lane * current_width + in] * weight;
                            product >>= fracBits_;
                            std::int32_t term =
                                saturateRaw(product, rawMin_, rawMax_);
                            acc[lane] = saturateRaw(
                                static_cast<std::int64_t>(acc[lane]) + term,
                                rawMin_, rawMax_);
                        }
                    }
                    for (std::size_t lane = 0; lane < kLanes; ++lane) {
                        std::int32_t a = acc[lane];
                        if (hidden)
                            a = std::clamp(a, actLo_, actHi_);
                        out_rows[lane * layer.outputDim + out] = a;
                    }
                }
            }
            for (; i < block; ++i) {
                const std::int32_t *in_row = current + i * current_width;
                std::int32_t *out_row = front + i * layer.outputDim;
                for (std::size_t out = 0; out < layer.outputDim; ++out) {
                    const std::int32_t *w =
                        &layer.weightsT[out * layer.inputDim];
                    std::int32_t acc = layer.biases[out];
                    for (std::size_t in = 0; in < layer.inputDim; ++in) {
                        std::int64_t product =
                            static_cast<std::int64_t>(in_row[in]) * w[in];
                        product >>= fracBits_;
                        std::int32_t term =
                            saturateRaw(product, rawMin_, rawMax_);
                        acc = saturateRaw(
                            static_cast<std::int64_t>(acc) + term,
                            rawMin_, rawMax_);
                    }
                    if (hidden)
                        acc = std::clamp(acc, actLo_, actHi_);
                    out_row[out] = acc;
                }
            }
            current = front;
            current_width = layer.outputDim;
            std::swap(front, back);
        }

        for (std::size_t i = 0; i < block; ++i) {
            const std::int32_t *scores = current + i * current_width;
            std::size_t best = 0;
            for (std::size_t c = 1; c < current_width; ++c)
                if (scores[c] > scores[best])
                    best = c;
            labels[block_base + i - row_begin] = static_cast<int>(best);
        }
    }
}

void
ExecutablePlan::quantizeRow(const double *row, std::int32_t *out) const
{
    format_.quantizeInto(row, out, inputDim_);
}

int
ExecutablePlan::inferMlp(const std::int32_t *q, Scratch &scratch) const
{
    if (scratch.actA.size() < maxWidth_)
        scratch.actA.resize(maxWidth_);
    if (scratch.actB.size() < maxWidth_)
        scratch.actB.resize(maxWidth_);
    const std::int32_t *current = q;
    std::int32_t *front = scratch.actA.data();
    std::int32_t *back = scratch.actB.data();

    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer &layer = layers_[l];
        bool hidden = l + 1 < layers_.size();
        for (std::size_t out = 0; out < layer.outputDim; ++out) {
            const std::int32_t *w = &layer.weightsT[out * layer.inputDim];
            std::int32_t acc = layer.biases[out];
            for (std::size_t in = 0; in < layer.inputDim; ++in) {
                std::int64_t product =
                    static_cast<std::int64_t>(current[in]) * w[in];
                product >>= fracBits_;
                std::int32_t term = saturateRaw(product, rawMin_, rawMax_);
                acc = saturateRaw(static_cast<std::int64_t>(acc) + term,
                                  rawMin_, rawMax_);
            }
            if (hidden)
                acc = std::clamp(acc, actLo_, actHi_);
            front[out] = acc;
        }
        current = front;
        std::swap(front, back);
    }

    std::size_t width = layers_.back().outputDim;
    std::size_t best = 0;
    for (std::size_t c = 1; c < width; ++c)
        if (current[c] > current[best])
            best = c;
    return static_cast<int>(best);
}

int
ExecutablePlan::inferKMeans(const std::int32_t *q) const
{
    std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
    int best = 0;
    const std::int32_t *centroid = centroids_.data();
    for (std::size_t c = 0; c < numCentroids_; ++c) {
        std::int64_t dist = 0;
        for (std::size_t f = 0; f < inputDim_; ++f) {
            std::int64_t d =
                static_cast<std::int64_t>(q[f]) - centroid[f];
            dist += d * d;
        }
        if (dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
        centroid += inputDim_;
    }
    return best;
}

int
ExecutablePlan::inferSvm(const std::int32_t *q) const
{
    std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
    int best = 0;
    const std::int32_t *weights = svmWeights_.data();
    for (std::size_t c = 0; c < svmBiases_.size(); ++c) {
        std::int64_t score = svmBiases_[c];
        for (std::size_t f = 0; f < inputDim_; ++f) {
            std::int64_t product =
                static_cast<std::int64_t>(q[f]) * weights[f];
            product >>= fracBits_;
            score += saturateRaw(product, rawMin_, rawMax_);
        }
        if (score > best_score) {
            best_score = score;
            best = static_cast<int>(c);
        }
        weights += inputDim_;
    }
    return best;
}

int
ExecutablePlan::inferTree(const std::int32_t *q) const
{
    std::size_t index = 0;
    while (nodeLeft_[index] >= 0) {
        bool go_left = q[nodeFeature_[index]] <= nodeThreshold_[index];
        index = static_cast<std::size_t>(go_left ? nodeLeft_[index]
                                                 : nodeRight_[index]);
    }
    return nodeLabel_[index];
}

int
ExecutablePlan::inferRow(const std::int32_t *q, Scratch &scratch) const
{
    switch (kind_) {
      case ModelKind::kMlp: return inferMlp(q, scratch);
      case ModelKind::kKMeans: return inferKMeans(q);
      case ModelKind::kSvm: return inferSvm(q);
      case ModelKind::kDecisionTree: return inferTree(q);
    }
    return 0;
}

void
ExecutablePlan::checkRange(std::size_t rows, std::size_t cols,
                           std::size_t row_begin, std::size_t row_end) const
{
    if (rows > 0 && cols != inputDim_)
        throw std::runtime_error("ExecutablePlan: feature width mismatch");
    if (row_begin > row_end || row_end > rows)
        throw std::runtime_error("ExecutablePlan: row range out of bounds");
}

void
ExecutablePlan::runRangeImpl(const math::Matrix *x,
                             const QuantizedMatrix *qx,
                             std::size_t row_begin, std::size_t row_end,
                             int *labels, Scratch &scratch) const
{
    if (row_begin == row_end)
        return;

    // One dispatch resolution per shard: a plan-level pin wins, else
    // the process-wide probe/env/force result.
    const kernels::KernelOps &ops =
        forcedOps_ != nullptr ? *forcedOps_
                              : kernels::KernelDispatch::ops();

    if (kind_ == ModelKind::kMlp && int8_) {
        runMlpRangeI8(x, qx, row_begin, row_end, labels, scratch, ops);
        return;
    }
    if (kind_ == ModelKind::kMlp && narrow_) {
        runMlpRangeNarrow(x, qx, row_begin, row_end, labels, scratch,
                          ops);
        return;
    }
    if (kind_ == ModelKind::kMlp) {
        runMlpRangeWide(x, qx, row_begin, row_end, labels, scratch);
        return;
    }
    if (kind_ == ModelKind::kDecisionTree) {
        runTreeRange(x, qx, row_begin, row_end, labels, scratch, ops);
        return;
    }

    if (scratch.quantized.size() < inputDim_)
        scratch.quantized.resize(inputDim_);
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const std::int32_t *q;
        if (qx != nullptr) {
            q = qx->rowPtr(r);
        } else {
            quantizeRow(x->rowPtr(r), scratch.quantized.data());
            q = scratch.quantized.data();
        }
        // Fused reduction kernels carry the narrow contract (terms and
        // differences must fit int32); wide formats keep the int64
        // reference loops.
        if (kind_ == ModelKind::kKMeans && narrow_)
            labels[r - row_begin] = ops.kmeansArgmin(
                q, centroids_.data(), numCentroids_, inputDim_);
        else if (kind_ == ModelKind::kSvm && narrow_)
            labels[r - row_begin] = ops.svmArgmaxNarrow(
                q, svmWeights_.data(), svmBiases_.data(),
                svmBiases_.size(), inputDim_, fracBits_,
                static_cast<std::int32_t>(rawMin_),
                static_cast<std::int32_t>(rawMax_));
        else
            labels[r - row_begin] = inferRow(q, scratch);
    }
}

void
ExecutablePlan::forceKernelTarget(kernels::KernelTarget target)
{
    const kernels::KernelOps *ops = kernels::KernelDispatch::find(target);
    if (ops == nullptr)
        throw std::runtime_error(
            std::string("ExecutablePlan: kernel target '") +
            kernels::kernelTargetName(target) +
            "' is not available on this host");
    forcedOps_ = ops;
}

void
ExecutablePlan::runRange(const math::Matrix &x, std::size_t row_begin,
                         std::size_t row_end, int *labels,
                         Scratch &scratch) const
{
    checkRange(x.rows(), x.cols(), row_begin, row_end);
    runRangeImpl(&x, nullptr, row_begin, row_end, labels, scratch);
}

void
ExecutablePlan::runRange(const QuantizedMatrix &x, std::size_t row_begin,
                         std::size_t row_end, int *labels,
                         Scratch &scratch) const
{
    if (x.format().integerBits() != format_.integerBits() ||
        x.format().fracBits() != format_.fracBits())
        throw std::runtime_error(
            "ExecutablePlan: quantized matrix format mismatch");
    checkRange(x.rows(), x.cols(), row_begin, row_end);
    runRangeImpl(nullptr, &x, row_begin, row_end, labels, scratch);
}

std::vector<int>
ExecutablePlan::run(const math::Matrix &x) const
{
    std::vector<int> labels(x.rows());
    Scratch scratch;
    runRange(x, 0, x.rows(), labels.data(), scratch);
    return labels;
}

std::vector<int>
ExecutablePlan::run(const QuantizedMatrix &x) const
{
    std::vector<int> labels(x.rows());
    Scratch scratch;
    runRange(x, 0, x.rows(), labels.data(), scratch);
    return labels;
}

int
ExecutablePlan::runRow(const double *features, std::size_t width,
                       Scratch &scratch) const
{
    if (width != inputDim_)
        throw std::runtime_error("ExecutablePlan: feature width mismatch");
    if (scratch.quantized.size() < inputDim_)
        scratch.quantized.resize(inputDim_);
    quantizeRow(features, scratch.quantized.data());
    return inferRow(scratch.quantized.data(), scratch);
}

int
ExecutablePlan::runRow(const double *features, std::size_t width) const
{
    Scratch scratch;
    return runRow(features, width, scratch);
}

}  // namespace homunculus::ir
