/**
 * @file
 * The scalar kernel table: the portable semantic reference every SIMD
 * target is differentially held to (tests/test_kernels.cpp).
 *
 * These loops mirror ir::executeIr / ExecutablePlan's interpreter
 * semantics term for term — product, renormalizing shift, product
 * clamp, accumulate clamp, in that order per row — so "bit-identical
 * to scalar" and "bit-identical to the interpreter" are the same
 * statement. They are also what the dispatcher patches into any ISA
 * table's null entries, so a partial SIMD target degrades to this, not
 * to undefined behavior.
 */
#include <algorithm>
#include <type_traits>

#include "kernels/kernel_api.hpp"

namespace homunculus::kernels {

namespace {

/**
 * One saturating MAC step: product, renormalizing shift, product clamp,
 * accumulate clamp. Word is int32 for <= 16-bit formats and int16 for
 * <= 8-bit ones; the latter is exact because |input|, |weight| <= 2^7
 * keeps products <= 2^14 and post-clamp sums within [-256, 255], so no
 * int16 step can overflow.
 */
template <typename Word>
inline Word
mac(Word acc, Word x, Word weight, int frac_bits, Word lo, Word hi)
{
    auto product = static_cast<Word>(static_cast<Word>(x * weight) >>
                                     frac_bits);
    product = std::min(std::max(product, lo), hi);
    auto sum = static_cast<Word>(acc + product);
    return std::min(std::max(sum, lo), hi);
}

template <typename Word, typename Args>
inline Word
activate(Word acc, const Args &args)
{
    return args.clampAct ? std::min(std::max(acc, args.actLo), args.actHi)
                         : acc;
}

/**
 * One dense layer over @p kLanes interleaved lanes. A full group runs
 * lane-innermost with a fixed trip count. A partial group skips its
 * padded lanes (their outputs stay unspecified) and runs lane-outermost
 * instead: each live row walks its whole chain in turn, so a 1-row
 * group costs one row's MACs, not a lane group's loop overhead.
 */
template <std::size_t kLanes, typename Args>
void
denseScalar(const Args &args)
{
    using Word = std::remove_pointer_t<decltype(args.output)>;
    const int frac_bits = args.fracBits;
    const Word lo = args.rawMin;
    const Word hi = args.rawMax;
    if (args.liveLanes < kLanes) {
        for (std::size_t lane = 0; lane < args.liveLanes; ++lane) {
            for (std::size_t out = 0; out < args.outputDim; ++out) {
                const auto *w = args.weightsT + out * args.inputDim;
                Word acc = args.biases[out];
                for (std::size_t in = 0; in < args.inputDim; ++in)
                    acc = mac<Word>(acc, args.input[in * kLanes + lane],
                                    w[in], frac_bits, lo, hi);
                args.output[out * kLanes + lane] = activate(acc, args);
            }
        }
        return;
    }
    for (std::size_t out = 0; out < args.outputDim; ++out) {
        const auto *w = args.weightsT + out * args.inputDim;
        Word acc[kLanes];
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            acc[lane] = args.biases[out];
        for (std::size_t in = 0; in < args.inputDim; ++in) {
            const Word weight = w[in];
            const Word *iv = args.input + in * kLanes;
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                acc[lane] = mac(acc[lane], iv[lane], weight, frac_bits, lo,
                                hi);
        }
        Word *ov = args.output + out * kLanes;
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            ov[lane] = activate(acc[lane], args);
    }
}

void
denseI32Scalar(const DenseI32Args &args)
{
    denseScalar<kDenseLanes32>(args);
}

void
denseI16Scalar(const DenseI16Args &args)
{
    denseScalar<kDenseLanes16>(args);
}

void
argmaxI32Scalar(const std::int32_t *scores, std::size_t classes,
                int *labels)
{
    constexpr std::size_t kLanes = kDenseLanes32;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (scores[c * kLanes + lane] > scores[best * kLanes + lane])
                best = c;
        labels[lane] = static_cast<int>(best);
    }
}

void
argmaxI16Scalar(const std::int16_t *scores, std::size_t classes,
                int *labels)
{
    constexpr std::size_t kLanes = kDenseLanes16;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (scores[c * kLanes + lane] > scores[best * kLanes + lane])
                best = c;
        labels[lane] = static_cast<int>(best);
    }
}

std::int64_t
squaredDistScalar(const std::int32_t *q, const std::int32_t *centroid,
                  std::size_t n)
{
    std::int64_t dist = 0;
    for (std::size_t f = 0; f < n; ++f) {
        std::int64_t d = static_cast<std::int64_t>(q[f]) - centroid[f];
        dist += d * d;
    }
    return dist;
}

int
kmeansArgminScalar(const std::int32_t *q, const std::int32_t *centroids,
                   std::size_t k, std::size_t n)
{
    std::int64_t best_dist = 0;
    int best = 0;
    const std::int32_t *centroid = centroids;
    for (std::size_t c = 0; c < k; ++c) {
        std::int64_t dist = squaredDistScalar(q, centroid, n);
        if (c == 0 || dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
        centroid += n;
    }
    return best;
}

int
svmArgmaxNarrowScalar(const std::int32_t *q, const std::int32_t *weights,
                      const std::int64_t *biases, std::size_t classes,
                      std::size_t n, int frac_bits, std::int32_t raw_min,
                      std::int32_t raw_max)
{
    std::int64_t best_score = 0;
    int best = 0;
    const std::int32_t *w = weights;
    for (std::size_t c = 0; c < classes; ++c) {
        std::int64_t score = biases[c];
        for (std::size_t f = 0; f < n; ++f) {
            // Narrow contract: |q|, |w| <= 2^15, so the product fits
            // int32 exactly and the clamp runs in int32 lanes.
            std::int32_t product = (q[f] * w[f]) >> frac_bits;
            product = std::min(std::max(product, raw_min), raw_max);
            score += product;
        }
        if (c == 0 || score > best_score) {
            best_score = score;
            best = static_cast<int>(c);
        }
        w += n;
    }
    return best;
}

void
rangeLowerBoundScalar(const std::int32_t *keys, std::size_t count,
                      const std::int32_t *ordered_hi, std::size_t n,
                      std::uint32_t *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const std::int32_t *it =
            std::lower_bound(ordered_hi, ordered_hi + n, keys[i]);
        out[i] = static_cast<std::uint32_t>(it - ordered_hi);
    }
}

}  // namespace

const KernelOps *
scalarOps()
{
    static const KernelOps ops = [] {
        KernelOps table;
        table.target = KernelTarget::kScalar;
        table.name = "scalar";
        table.denseI32 = denseI32Scalar;
        table.denseI16 = denseI16Scalar;
        table.argmaxI32 = argmaxI32Scalar;
        table.argmaxI16 = argmaxI16Scalar;
        table.squaredDist = squaredDistScalar;
        table.kmeansArgmin = kmeansArgminScalar;
        table.svmArgmaxNarrow = svmArgmaxNarrowScalar;
        table.rangeLowerBound = rangeLowerBoundScalar;
        return table;
    }();
    return &ops;
}

}  // namespace homunculus::kernels
