/**
 * @file
 * The kernel ABI between ExecutablePlan / MatPipeline and the
 * ISA-specific kernel TUs.
 *
 * Every vectorizable hot loop the plan executes — the narrow-format GEMM
 * lanes, the KMeans/SVM reductions, the MAT range-match binary search —
 * is expressed here as a C-style function pointer over flat argument
 * structs. `KernelDispatch` (kernel_dispatch.hpp) probes the host once
 * and hands out one immutable `KernelOps` table; the callers never name
 * an ISA. Trees have no entry: they walk one row at a time in
 * ExecutablePlan.
 *
 * The contract every implementation must honor: **bit-identical to the
 * scalar reference** (kernels_scalar.cpp, which itself mirrors
 * ir::executeIr's saturating term order). That means the same
 * rawMin/rawMax clamp after every product and after every accumulate,
 * the same first-match/first-min tie-breaking, and the same per-row
 * term order — a SIMD kernel may reorder only across rows (lanes),
 * never within a row's saturating chain. tests/test_kernels.cpp holds
 * every registered target to this differentially.
 *
 * This header is intrinsics-free on purpose: it is included from
 * baseline-ISA TUs (exec_plan.cpp, mat_pipeline.cpp), while the
 * per-ISA TUs are the only ones compiled with -mavx2 etc. (see the
 * per-source COMPILE_OPTIONS block in CMakeLists.txt).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace homunculus::kernels {

/** A dispatchable ISA target. */
enum class KernelTarget
{
    kScalar = 0,  ///< portable reference (always available).
    kAvx2,        ///< x86-64 AVX2 (256-bit integer SIMD).
};

/** Number of distinct KernelTarget values (table sizing). */
constexpr std::size_t kNumKernelTargets = 2;

/** Rows processed together by the int32-arithmetic dense kernel: one
 *  256-bit register of int32 lanes. Inputs/outputs are lane-interleaved
 *  (element `i` of lane `l` lives at `i * kDenseLanes32 + l`). */
constexpr std::size_t kDenseLanes32 = 8;

/** Rows processed together by the int16-arithmetic dense kernel: one
 *  256-bit register of int16 lanes (the int8-weight fast path). */
constexpr std::size_t kDenseLanes16 = 16;

/**
 * One dense layer over kDenseLanes32 interleaved rows, int32 MACs
 * (exact for formats of <= 16 total bits: |raw| <= 2^15 so a product
 * fits int32). Weights are repacked to int16 at plan compile; each
 * per-input weight is broadcast across the lanes. Per lane, per output:
 *   acc = bias
 *   for in: product = (input * weight) >> fracBits;
 *           product = clamp(product, rawMin, rawMax);
 *           acc = clamp(acc + product, rawMin, rawMax)
 *   if clampAct: acc = clamp(acc, actLo, actHi)
 *
 * The padded-lane contract: lanes never interact, so a caller holding
 * fewer rows than lanes zero-pads the rest and discards their outputs.
 * `liveLanes` says how many leading lanes hold rows. A vector kernel
 * computes every lane anyway (a whole register costs the same); the
 * scalar reference computes only the live ones and leaves the padded
 * lanes' outputs unspecified, so a padded group never costs it more
 * than its live rows.
 */
struct DenseI32Args
{
    const std::int32_t *input;     ///< inputDim x lanes, interleaved.
    std::int32_t *output;          ///< outputDim x lanes, interleaved.
    const std::int16_t *weightsT;  ///< [out * inputDim + in] panels.
    const std::int32_t *biases;    ///< one per output.
    std::size_t inputDim = 0;
    std::size_t outputDim = 0;
    int fracBits = 0;
    std::int32_t rawMin = 0;
    std::int32_t rawMax = 0;
    bool clampAct = false;         ///< hidden-layer activation window.
    std::int32_t actLo = 0;
    std::int32_t actHi = 0;
    std::size_t liveLanes = kDenseLanes32;  ///< rows in lanes [0, live).
};

/**
 * One dense layer over kDenseLanes16 interleaved rows, all-int16
 * arithmetic (exact for formats of <= 8 total bits: |raw| <= 2^7, so a
 * product fits int16 (<= 2^14) and a post-clamp sum stays within
 * [-256, 255]). Weights are repacked to int8, biases to int16; the MAC
 * chain semantics and the padded-lane contract match DenseI32Args
 * exactly.
 */
struct DenseI16Args
{
    const std::int16_t *input;     ///< inputDim x lanes, interleaved.
    std::int16_t *output;          ///< outputDim x lanes, interleaved.
    const std::int8_t *weightsT;   ///< [out * inputDim + in] panels.
    const std::int16_t *biases;    ///< one per output.
    std::size_t inputDim = 0;
    std::size_t outputDim = 0;
    int fracBits = 0;
    std::int16_t rawMin = 0;
    std::int16_t rawMax = 0;
    bool clampAct = false;
    std::int16_t actLo = 0;
    std::int16_t actHi = 0;
    std::size_t liveLanes = kDenseLanes16;  ///< rows in lanes [0, live).
};

/**
 * The per-target kernel table. Every table fills every entry: dispatch
 * hands out a TU's own table as is, and
 * KernelDispatch.ScalarIsAlwaysAvailable asserts each available table
 * is complete.
 */
struct KernelOps
{
    KernelTarget target = KernelTarget::kScalar;
    const char *name = "scalar";

    void (*denseI32)(const DenseI32Args &args) = nullptr;
    void (*denseI16)(const DenseI16Args &args) = nullptr;

    /** Fused arg-max epilogue over lane-interleaved final-layer scores
     *  (classes x lanes); strict >, first class wins ties. Writes one
     *  label per lane, padded lanes included (the caller keeps only
     *  the live ones). */
    void (*argmaxI32)(const std::int32_t *scores, std::size_t classes,
                      int *labels) = nullptr;
    void (*argmaxI16)(const std::int16_t *scores, std::size_t classes,
                      int *labels) = nullptr;

    /** Sum of squared int64 differences over n int32 elements (exact
     *  for narrow formats: |q - c| fits int32). */
    std::int64_t (*squaredDist)(const std::int32_t *q,
                                const std::int32_t *centroid,
                                std::size_t n) = nullptr;

    /** Fused KMeans distance/arg-min over k contiguous centroids of
     *  n elements each; strict <, first centroid wins ties. */
    int (*kmeansArgmin)(const std::int32_t *q,
                        const std::int32_t *centroids, std::size_t k,
                        std::size_t n) = nullptr;

    /** Fused SVM score/arg-max for narrow formats: per class,
     *  score = bias + sum(clamp((q * w) >> fracBits, rawMin, rawMax))
     *  as plain int64 addition; strict >, first class wins ties. */
    int (*svmArgmaxNarrow)(const std::int32_t *q,
                           const std::int32_t *weights,
                           const std::int64_t *biases,
                           std::size_t classes, std::size_t n,
                           int fracBits, std::int32_t rawMin,
                           std::int32_t rawMax) = nullptr;

    /** Batched MAT range-match: for each of `count` keys, the index of
     *  the first orderedHi[j] >= key (n when none) — std::lower_bound
     *  over a whole row chunk per table stage. */
    void (*rangeLowerBound)(const std::int32_t *keys, std::size_t count,
                            const std::int32_t *orderedHi, std::size_t n,
                            std::uint32_t *out) = nullptr;
};

/** Per-TU table accessors (nullptr when the TU was compiled without
 *  its ISA). Explicit function references instead of self-registering
 *  static initializers: a STATIC-library TU nothing names gets dropped
 *  by the linker, silently losing its registration. */
const KernelOps *scalarOps();
const KernelOps *avx2Ops();

}  // namespace homunculus::kernels
