/**
 * @file
 * AVX2 kernel table. This TU (alone) is compiled with -mavx2 — see the
 * per-source COMPILE_OPTIONS block in CMakeLists.txt — so everything
 * lives behind __AVX2__ and the dispatcher only hands these out after
 * __builtin_cpu_supports("avx2") says the host can run them.
 *
 * Exactness notes (the differential suite enforces all of this):
 *  - Saturating MAC chains are per-row in-order; these kernels
 *    vectorize ACROSS rows (one row per lane), so no within-row
 *    reordering ever happens.
 *  - The dense kernels register-block 4 outputs at a time (then a
 *    1-output remainder loop). Blocking only interleaves independent
 *    (lane, output) chains to overlap their add -> max -> min latency;
 *    each chain still sees its terms in input order.
 *  - Lanes are independent, so callers zero-pad a partial lane group
 *    and discard the padded lanes' outputs (ExecutablePlan has no
 *    scalar tail for narrow and int8 MLPs). These kernels ignore
 *    liveLanes: a whole register costs the same as part of one.
 *  - There is no tree-descent entry: the 8-lane gather kernel measured
 *    0.7x the scalar per-lane walk, so the table falls back to scalar.
 *  - _mm256_madd_epi16 is deliberately not used: it sums adjacent
 *    products before the per-term clamp, which breaks the
 *    rawMin/rawMax saturation semantics.
 *  - KMeans distances and narrow SVM scores are plain int64 sums of
 *    per-term values, so those reductions may reorder freely.
 *  - Shift counts are runtime values (the Q-format's fracBits), hence
 *    _mm256_sra_epi32/16 with a _mm_cvtsi32_si128 count instead of
 *    the immediate forms.
 */
#include "kernels/kernel_api.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace homunculus::kernels {

namespace {

inline __m256i
clamp32(__m256i v, __m256i lo, __m256i hi)
{
    return _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
}

inline __m256i
clamp16(__m256i v, __m256i lo, __m256i hi)
{
    return _mm256_min_epi16(_mm256_max_epi16(v, lo), hi);
}

/** One saturating MAC step of one output over kDenseLanes32 lanes. */
inline __m256i
mac32(__m256i acc, __m256i iv, std::int32_t weight, __m128i shift,
      __m256i raw_min, __m256i raw_max)
{
    __m256i product = _mm256_mullo_epi32(iv, _mm256_set1_epi32(weight));
    product = clamp32(_mm256_sra_epi32(product, shift), raw_min, raw_max);
    return clamp32(_mm256_add_epi32(acc, product), raw_min, raw_max);
}

/** One saturating MAC step of one output over kDenseLanes16 lanes. The
 *  <= 8-bit contract keeps every product <= 2^14 and every post-clamp
 *  sum within [-256, 255], so mullo/add never wrap. */
inline __m256i
mac16(__m256i acc, __m256i iv, std::int16_t weight, __m128i shift,
      __m256i raw_min, __m256i raw_max)
{
    __m256i product = _mm256_mullo_epi16(iv, _mm256_set1_epi16(weight));
    product = clamp16(_mm256_sra_epi16(product, shift), raw_min, raw_max);
    return clamp16(_mm256_add_epi16(acc, product), raw_min, raw_max);
}

/** Outputs computed together by the dense kernels: four independent
 *  saturating chains hide the add -> max -> min latency of each. */
constexpr std::size_t kOutBlock = 4;

void
denseI32Avx2(const DenseI32Args &args)
{
    const __m128i shift = _mm_cvtsi32_si128(args.fracBits);
    const __m256i raw_min = _mm256_set1_epi32(args.rawMin);
    const __m256i raw_max = _mm256_set1_epi32(args.rawMax);
    const __m256i act_lo = _mm256_set1_epi32(args.actLo);
    const __m256i act_hi = _mm256_set1_epi32(args.actHi);
    const std::size_t n = args.inputDim;
    auto store = [&](std::size_t out, __m256i acc) {
        if (args.clampAct)
            acc = clamp32(acc, act_lo, act_hi);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(args.output +
                                        out * kDenseLanes32),
            acc);
    };
    auto input = [&](std::size_t in) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            args.input + in * kDenseLanes32));
    };

    std::size_t out = 0;
    for (; out + kOutBlock <= args.outputDim; out += kOutBlock) {
        const std::int16_t *w = args.weightsT + out * n;
        __m256i acc0 = _mm256_set1_epi32(args.biases[out]);
        __m256i acc1 = _mm256_set1_epi32(args.biases[out + 1]);
        __m256i acc2 = _mm256_set1_epi32(args.biases[out + 2]);
        __m256i acc3 = _mm256_set1_epi32(args.biases[out + 3]);
        for (std::size_t in = 0; in < n; ++in) {
            const __m256i iv = input(in);
            acc0 = mac32(acc0, iv, w[in], shift, raw_min, raw_max);
            acc1 = mac32(acc1, iv, w[n + in], shift, raw_min, raw_max);
            acc2 = mac32(acc2, iv, w[2 * n + in], shift, raw_min, raw_max);
            acc3 = mac32(acc3, iv, w[3 * n + in], shift, raw_min, raw_max);
        }
        store(out, acc0);
        store(out + 1, acc1);
        store(out + 2, acc2);
        store(out + 3, acc3);
    }
    for (; out < args.outputDim; ++out) {
        const std::int16_t *w = args.weightsT + out * n;
        __m256i acc = _mm256_set1_epi32(args.biases[out]);
        for (std::size_t in = 0; in < n; ++in)
            acc = mac32(acc, input(in), w[in], shift, raw_min, raw_max);
        store(out, acc);
    }
}

void
denseI16Avx2(const DenseI16Args &args)
{
    const __m128i shift = _mm_cvtsi32_si128(args.fracBits);
    const __m256i raw_min = _mm256_set1_epi16(args.rawMin);
    const __m256i raw_max = _mm256_set1_epi16(args.rawMax);
    const __m256i act_lo = _mm256_set1_epi16(args.actLo);
    const __m256i act_hi = _mm256_set1_epi16(args.actHi);
    const std::size_t n = args.inputDim;
    auto store = [&](std::size_t out, __m256i acc) {
        if (args.clampAct)
            acc = clamp16(acc, act_lo, act_hi);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(args.output +
                                        out * kDenseLanes16),
            acc);
    };
    auto input = [&](std::size_t in) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            args.input + in * kDenseLanes16));
    };

    std::size_t out = 0;
    for (; out + kOutBlock <= args.outputDim; out += kOutBlock) {
        const std::int8_t *w = args.weightsT + out * n;
        __m256i acc0 = _mm256_set1_epi16(args.biases[out]);
        __m256i acc1 = _mm256_set1_epi16(args.biases[out + 1]);
        __m256i acc2 = _mm256_set1_epi16(args.biases[out + 2]);
        __m256i acc3 = _mm256_set1_epi16(args.biases[out + 3]);
        for (std::size_t in = 0; in < n; ++in) {
            const __m256i iv = input(in);
            acc0 = mac16(acc0, iv, w[in], shift, raw_min, raw_max);
            acc1 = mac16(acc1, iv, w[n + in], shift, raw_min, raw_max);
            acc2 = mac16(acc2, iv, w[2 * n + in], shift, raw_min, raw_max);
            acc3 = mac16(acc3, iv, w[3 * n + in], shift, raw_min, raw_max);
        }
        store(out, acc0);
        store(out + 1, acc1);
        store(out + 2, acc2);
        store(out + 3, acc3);
    }
    for (; out < args.outputDim; ++out) {
        const std::int8_t *w = args.weightsT + out * n;
        __m256i acc = _mm256_set1_epi16(args.biases[out]);
        for (std::size_t in = 0; in < n; ++in)
            acc = mac16(acc, input(in), w[in], shift, raw_min, raw_max);
        store(out, acc);
    }
}

void
argmaxI32Avx2(const std::int32_t *scores, std::size_t classes,
              int *labels)
{
    __m256i best_score = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(scores));
    __m256i best_index = _mm256_setzero_si256();
    for (std::size_t c = 1; c < classes; ++c) {
        const __m256i sc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(scores +
                                              c * kDenseLanes32));
        // Strict > keeps the earlier class on ties, like the scalar
        // first-max scan.
        const __m256i gt = _mm256_cmpgt_epi32(sc, best_score);
        best_score = _mm256_blendv_epi8(best_score, sc, gt);
        best_index = _mm256_blendv_epi8(
            best_index, _mm256_set1_epi32(static_cast<int>(c)), gt);
    }
    alignas(32) std::int32_t out[kDenseLanes32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(out), best_index);
    for (std::size_t lane = 0; lane < kDenseLanes32; ++lane)
        labels[lane] = out[lane];
}

void
argmaxI16Avx2(const std::int16_t *scores, std::size_t classes,
              int *labels)
{
    __m256i best_score = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(scores));
    __m256i best_index = _mm256_setzero_si256();
    for (std::size_t c = 1; c < classes; ++c) {
        const __m256i sc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(scores +
                                              c * kDenseLanes16));
        const __m256i gt = _mm256_cmpgt_epi16(sc, best_score);
        best_score = _mm256_blendv_epi8(best_score, sc, gt);
        best_index = _mm256_blendv_epi8(
            best_index,
            _mm256_set1_epi16(static_cast<std::int16_t>(c)), gt);
    }
    alignas(32) std::int16_t out[kDenseLanes16];
    _mm256_store_si256(reinterpret_cast<__m256i *>(out), best_index);
    for (std::size_t lane = 0; lane < kDenseLanes16; ++lane)
        labels[lane] = out[lane];
}

/** Horizontal sum of 4 int64 lanes. */
inline std::int64_t
hsum64(__m256i v)
{
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

std::int64_t
squaredDistAvx2(const std::int32_t *q, const std::int32_t *centroid,
                std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t f = 0;
    for (; f + 8 <= n; f += 8) {
        const __m256i qv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q + f));
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(centroid + f));
        const __m256i d = _mm256_sub_epi32(qv, cv);
        // 32x32 -> 64 squares: mul_epi32 consumes the even lanes; a
        // 32-bit logical shift exposes the odd lanes (mul_epi32
        // sign-extends from bit 31 of each low dword, so the value is
        // preserved).
        const __m256i even = _mm256_mul_epi32(d, d);
        const __m256i odd_src = _mm256_srli_epi64(d, 32);
        const __m256i odd = _mm256_mul_epi32(odd_src, odd_src);
        acc = _mm256_add_epi64(acc, even);
        acc = _mm256_add_epi64(acc, odd);
    }
    std::int64_t dist = hsum64(acc);
    for (; f < n; ++f) {
        std::int64_t d = static_cast<std::int64_t>(q[f]) - centroid[f];
        dist += d * d;
    }
    return dist;
}

int
kmeansArgminAvx2(const std::int32_t *q, const std::int32_t *centroids,
                 std::size_t k, std::size_t n)
{
    std::int64_t best_dist = 0;
    int best = 0;
    const std::int32_t *centroid = centroids;
    for (std::size_t c = 0; c < k; ++c) {
        std::int64_t dist = squaredDistAvx2(q, centroid, n);
        if (c == 0 || dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
        centroid += n;
    }
    return best;
}

int
svmArgmaxNarrowAvx2(const std::int32_t *q, const std::int32_t *weights,
                    const std::int64_t *biases, std::size_t classes,
                    std::size_t n, int frac_bits, std::int32_t raw_min,
                    std::int32_t raw_max)
{
    const __m128i shift = _mm_cvtsi32_si128(frac_bits);
    const __m256i lo = _mm256_set1_epi32(raw_min);
    const __m256i hi = _mm256_set1_epi32(raw_max);
    std::int64_t best_score = 0;
    int best = 0;
    const std::int32_t *w = weights;
    for (std::size_t c = 0; c < classes; ++c) {
        __m256i acc = _mm256_setzero_si256();
        std::size_t f = 0;
        for (; f + 8 <= n; f += 8) {
            const __m256i qv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(q + f));
            const __m256i wv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w + f));
            __m256i product = _mm256_mullo_epi32(qv, wv);
            product = _mm256_sra_epi32(product, shift);
            product = clamp32(product, lo, hi);
            // Widen the 8 clamped terms to int64 and accumulate; the
            // score sum is order-free (plain addition, no saturation).
            acc = _mm256_add_epi64(
                acc, _mm256_cvtepi32_epi64(
                         _mm256_castsi256_si128(product)));
            acc = _mm256_add_epi64(
                acc, _mm256_cvtepi32_epi64(
                         _mm256_extracti128_si256(product, 1)));
        }
        std::int64_t score = biases[c] + hsum64(acc);
        for (; f < n; ++f) {
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
rangeLowerBoundAvx2(const std::int32_t *keys, std::size_t count,
                    const std::int32_t *ordered_hi, std::size_t n,
                    std::uint32_t *out)
{
    if (n == 0) {
        std::fill(out, out + count, 0u);
        return;
    }
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256i key = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(keys + i));
        // Branchless uniform lower_bound: every lane probes the same
        // offsets (len is lane-independent), so the whole search is
        // eight gathers instead of eight branchy binary searches.
        __m256i base = _mm256_setzero_si256();
        std::size_t len = n;
        while (len > 1) {
            const std::size_t half = len / 2;
            const __m256i probe = _mm256_i32gather_epi32(
                ordered_hi,
                _mm256_add_epi32(
                    base,
                    _mm256_set1_epi32(static_cast<int>(half - 1))),
                4);
            const __m256i lt = _mm256_cmpgt_epi32(key, probe);
            base = _mm256_add_epi32(
                base,
                _mm256_and_si256(
                    lt, _mm256_set1_epi32(static_cast<int>(half))));
            len -= half;
        }
        const __m256i probe =
            _mm256_i32gather_epi32(ordered_hi, base, 4);
        // += 1 where ordered_hi[base] < key (lt is all-ones = -1).
        const __m256i lt = _mm256_cmpgt_epi32(key, probe);
        base = _mm256_sub_epi32(base, lt);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), base);
    }
    for (; i < count; ++i) {
        const std::int32_t *it =
            std::lower_bound(ordered_hi, ordered_hi + n, keys[i]);
        out[i] = static_cast<std::uint32_t>(it - ordered_hi);
    }
}

}  // namespace

const KernelOps *
avx2Ops()
{
    static const KernelOps ops = [] {
        KernelOps table;
        table.target = KernelTarget::kAvx2;
        table.name = "avx2";
        table.denseI32 = denseI32Avx2;
        table.denseI16 = denseI16Avx2;
        table.argmaxI32 = argmaxI32Avx2;
        table.argmaxI16 = argmaxI16Avx2;
        table.squaredDist = squaredDistAvx2;
        table.kmeansArgmin = kmeansArgminAvx2;
        table.svmArgmaxNarrow = svmArgmaxNarrowAvx2;
        table.rangeLowerBound = rangeLowerBoundAvx2;
        return table;
    }();
    return &ops;
}

}  // namespace homunculus::kernels

#else  // !__AVX2__

namespace homunculus::kernels {

const KernelOps *
avx2Ops()
{
    return nullptr;  // TU built without AVX2 support.
}

}  // namespace homunculus::kernels

#endif
