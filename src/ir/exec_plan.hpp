/**
 * @file
 * ExecutablePlan: a ModelIr compiled once into flat, cache-friendly
 * buffers for batched fixed-point inference.
 *
 * The scalar reference interpreter (ir::executeIr) re-walks the ModelIr
 * struct graph per row: it heap-copies the feature row, re-quantizes it
 * through pow()-per-element calls, allocates a fresh activation vector
 * per layer, and strides across out-major weight storage. Black-box
 * candidate scoring (paper §3.2.3–§3.2.4) runs that loop over the whole
 * test partition for every search candidate, making IR execution the
 * innermost loop of the compiler.
 *
 * An ExecutablePlan lowers the ModelIr once into contiguous storage —
 * transposed (out x in) int32 layer weights for unit-stride MLP dot
 * products, flattened centroid/class-weight blocks with fused
 * distance/arg-min and score/arg-max loops, and structure-of-arrays tree
 * nodes for branch-light array-indexed traversal — then processes a whole
 * math::Matrix in row blocks with zero per-row allocation.
 *
 * Execution entry points compose for the multi-core serving runtime
 * (runtime::InferenceEngine):
 *  - run() processes a whole matrix on the calling thread;
 *  - runRange() processes a contiguous row shard into caller storage
 *    with a caller-owned Scratch arena, so N workers can execute one
 *    shared immutable plan concurrently (the plan itself is never
 *    mutated after compile());
 *  - a QuantizedMatrix overload skips input quantization entirely when
 *    the caller already holds the matrix in the plan's Q-format (the
 *    compile session caches one per format across search candidates).
 *
 * The semantics contract: every entry point is bit-identical to per-row
 * ir::executeIr() for every model family and format. It replays the
 * exact saturating add/multiply sequence of the interpreter (term order
 * included), so the accuracy the compiler reports is still the accuracy
 * of the deployed quantized artifact, at any shard width
 * (tests/test_exec_plan.cpp and tests/test_inference_engine.cpp hold
 * the implementations together).
 *
 * Narrow (<= 16-bit) and int8 (<= 8-bit) MLPs run every row of a range
 * through the lane-group dense kernels; there is no per-row scalar
 * tail. A partial last group is zero-padded, executed like a full one,
 * and only its live lanes' labels are written (the padded-lane contract
 * in kernels/kernel_api.hpp). Lanes never interact, so padding cannot
 * change a verdict, and a short serving batch costs one vector group
 * instead of one scalar row each. Tree ranges keep their per-row tail.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "ir/model_ir.hpp"
#include "kernels/kernel_api.hpp"
#include "math/matrix.hpp"

namespace homunculus::ir {

/**
 * A feature matrix held in a fixed-point format's raw words: the result
 * of FixedPointFormat::quantizeInto over every row of a double matrix,
 * row-major. Quantization is the row-independent front half of every
 * plan execution, so candidate scoring caches one QuantizedMatrix per
 * format and shares it across all candidates with that format
 * (runtime::QuantCache) — values are bit-identical to the words the
 * plan would produce internally.
 */
class QuantizedMatrix
{
  public:
    QuantizedMatrix() = default;

    /** Quantize every row of @p x into @p format raw words. */
    QuantizedMatrix(const math::Matrix &x,
                    const common::FixedPointFormat &format);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const common::FixedPointFormat &format() const { return format_; }

    const std::int32_t *rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

  private:
    common::FixedPointFormat format_ = common::FixedPointFormat::q88();
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::int32_t> data_;
};

/** A compiled, immutable inference plan for one ModelIr. */
class ExecutablePlan
{
  public:
    /**
     * Reusable per-caller scratch buffers. One run()/runRange() call
     * resizes these on first use and then executes allocation-free;
     * keeping one Scratch per worker thread (or per long-lived caller)
     * makes repeated executions allocation-free too. A Scratch must not
     * be shared between concurrent calls.
     */
    struct Scratch
    {
        std::vector<std::int32_t> quantized;
        std::vector<std::int32_t> actA;
        std::vector<std::int32_t> actB;
        /** int16 mirrors for the int8-weight GEMM path (<= 8-bit
         *  formats run 16 lanes of all-int16 arithmetic). */
        std::vector<std::int16_t> quantized16;
        std::vector<std::int16_t> act16A;
        std::vector<std::int16_t> act16B;
    };

    /** One-time compilation; validates the model first. */
    static ExecutablePlan compile(const ModelIr &model);

    /** Batched inference over a feature matrix (one label per row). */
    std::vector<int> run(const math::Matrix &x) const;

    /** Batched inference over a pre-quantized matrix (format and width
     *  must match the plan's). */
    std::vector<int> run(const QuantizedMatrix &x) const;

    /**
     * Inference over the row shard [row_begin, row_end) of @p x, writing
     * labels[i - row_begin] for each row i. @p scratch is caller-owned
     * (see Scratch); the plan itself stays immutable, so any number of
     * threads may execute disjoint shards of one plan concurrently.
     */
    void runRange(const math::Matrix &x, std::size_t row_begin,
                  std::size_t row_end, int *labels,
                  Scratch &scratch) const;

    /** Shard execution over a pre-quantized matrix (skips quantization;
     *  @p x.format() must equal the plan's format). */
    void runRange(const QuantizedMatrix &x, std::size_t row_begin,
                  std::size_t row_end, int *labels,
                  Scratch &scratch) const;

    /** Single-row inference into a caller-owned scratch: allocation-free
     *  after the scratch's first use. @p width must equal inputDim(). */
    int runRow(const double *features, std::size_t width,
               Scratch &scratch) const;

    /** Single-row convenience overload with a transient scratch (one
     *  allocation per call; prefer the Scratch overload in loops). */
    int runRow(const double *features, std::size_t width) const;

    ModelKind kind() const { return kind_; }
    std::size_t inputDim() const { return inputDim_; }
    int numClasses() const { return numClasses_; }
    const common::FixedPointFormat &format() const { return format_; }

    /**
     * Pin this plan to one kernel target instead of the process-wide
     * KernelDispatch resolution — the per-plan knob behind
     * EngineOptions::forceScalarKernels and the differential tests
     * that execute several targets side by side. Labels never change
     * (every target is bit-identical); only the instruction mix does.
     * @throws std::runtime_error when the target is unavailable here.
     */
    void forceKernelTarget(kernels::KernelTarget target);

    /** The pinned table, or nullptr when following KernelDispatch. */
    const kernels::KernelOps *forcedKernels() const
    {
        return forcedOps_;
    }

  private:
    ExecutablePlan() = default;

    /** Transposed dense layer: weightsT[out * inputDim + in]. The
     *  packed mirrors are built at compile() for narrow formats: int16
     *  panels when the format fits 16 bits, int8 panels (plus int16
     *  biases) when it fits 8 — same [out * inputDim + in] order, so
     *  the dense kernels stream half/quarter the weight bytes. */
    struct Layer
    {
        std::size_t inputDim = 0;
        std::size_t outputDim = 0;
        std::vector<std::int32_t> weightsT;
        std::vector<std::int32_t> biases;
        std::vector<std::int16_t> weights16;
        std::vector<std::int8_t> weights8;
        std::vector<std::int16_t> biases16;
    };

    void quantizeRow(const double *row, std::int32_t *out) const;
    /** Blocked int32 GEMM over interleaved lanes (formats <= 16 bits),
     *  executed through @p ops.denseI32/argmaxI32, partial last group
     *  zero-padded. @p qx is the pre-quantized matrix when non-null. */
    void runMlpRangeNarrow(const math::Matrix *x,
                           const QuantizedMatrix *qx,
                           std::size_t row_begin, std::size_t row_end,
                           int *labels, Scratch &scratch,
                           const kernels::KernelOps &ops) const;
    /** int8-weight GEMM over 16 int16 lanes (formats <= 8 bits),
     *  partial last group zero-padded. */
    void runMlpRangeI8(const math::Matrix *x, const QuantizedMatrix *qx,
                       std::size_t row_begin, std::size_t row_end,
                       int *labels, Scratch &scratch,
                       const kernels::KernelOps &ops) const;
    /** Generic-format blocked range path (int64 arithmetic). */
    void runMlpRangeWide(const math::Matrix *x, const QuantizedMatrix *qx,
                         std::size_t row_begin, std::size_t row_end,
                         int *labels, Scratch &scratch) const;
    /** Blocked tree traversal (kTreeLanes rows per descent). */
    void runTreeRange(const math::Matrix *x, const QuantizedMatrix *qx,
                      std::size_t row_begin, std::size_t row_end,
                      int *labels, Scratch &scratch,
                      const kernels::KernelOps &ops) const;
    void runRangeImpl(const math::Matrix *x, const QuantizedMatrix *qx,
                      std::size_t row_begin, std::size_t row_end,
                      int *labels, Scratch &scratch) const;
    void checkRange(std::size_t rows, std::size_t cols,
                    std::size_t row_begin, std::size_t row_end) const;
    int inferRow(const std::int32_t *q, Scratch &scratch) const;
    int inferMlp(const std::int32_t *q, Scratch &scratch) const;
    int inferKMeans(const std::int32_t *q) const;
    int inferSvm(const std::int32_t *q) const;
    int inferTree(const std::int32_t *q) const;

    ModelKind kind_ = ModelKind::kMlp;
    std::size_t inputDim_ = 0;
    int numClasses_ = 2;

    // Fixed-point constants hoisted out of the per-element hot path.
    common::FixedPointFormat format_ = common::FixedPointFormat::q88();
    int fracBits_ = 8;
    std::int64_t rawMax_ = 0;    ///< saturation bounds of the format.
    std::int64_t rawMin_ = 0;
    bool narrow_ = true;         ///< format <= 16 bits: int32 MACs exact.
    bool int8_ = false;          ///< format <= 8 bits: int16 MACs exact.

    /** Pinned kernel table (forceKernelTarget); nullptr = follow the
     *  process-wide KernelDispatch. Points at immutable static data,
     *  so plan copies stay valid. */
    const kernels::KernelOps *forcedOps_ = nullptr;

    // --- MLP ------------------------------------------------------------
    std::vector<Layer> layers_;
    std::int32_t actLo_ = 0;     ///< hidden-activation clamp window;
    std::int32_t actHi_ = 0;     ///< ReLU is clamp(acc, 0, rawMax).
    std::size_t maxWidth_ = 0;   ///< widest activation vector.

    // --- KMeans: k x d centroid block, fused distance/arg-min -----------
    std::vector<std::int32_t> centroids_;
    std::size_t numCentroids_ = 0;

    // --- SVM: classes x d weight block, fused score/arg-max -------------
    std::vector<std::int32_t> svmWeights_;
    std::vector<std::int64_t> svmBiases_;

    // --- Decision tree: structure-of-arrays nodes (left < 0 == leaf) ----
    std::vector<std::int32_t> nodeFeature_;
    std::vector<std::int32_t> nodeThreshold_;
    std::vector<std::int32_t> nodeLeft_;
    std::vector<std::int32_t> nodeRight_;
    std::vector<std::int32_t> nodeLabel_;
};

}  // namespace homunculus::ir
