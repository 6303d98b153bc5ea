#include "quant/q8_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FALLSENSE_Q8_X86 1
#include <immintrin.h>
#endif

namespace fallsense::quant {

q8_layer pack_q8_layer(std::span<const std::int8_t> weight, std::span<const std::int32_t> bias,
                       std::size_t k, std::size_t n, const quantized_multiplier& requant,
                       std::int32_t zero_point, std::int32_t clamp_min) {
    FS_ARG_CHECK(weight.size() == k * n && bias.size() == n, "q8 layer shape mismatch");
    q8_layer out;
    out.k = k;
    out.n = n;
    out.n_pad = (n + 15) / 16 * 16;
    out.weight.assign((k + 1) / 2 * out.n_pad * 2, 0);
    for (std::size_t i = 0; i < k; ++i) {
        std::int16_t* row = out.weight.data() + (i / 2) * out.n_pad * 2 + (i % 2);
        for (std::size_t o = 0; o < n; ++o) row[2 * o] = weight[i * n + o];
    }
    out.bias.assign(out.n_pad, 0);
    std::copy(bias.begin(), bias.end(), out.bias.begin());
    out.requant = requant;
    out.zero_point = zero_point;
    out.clamp_min = clamp_min;
    return out;
}

namespace {

void quantize_scalar(const float* real, std::size_t count, const qparams& qp,
                     std::int8_t* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = quantize_value(real[i], qp);
}

/// Output columns per accumulator tile of the scalar GEMM (stack-resident).
constexpr std::size_t k_scalar_tile = 64;

void gemm_scalar(const q8_gemm_args& g) {
    const q8_layer& layer = *g.layer;
    std::int32_t acc[k_scalar_tile];
    for (std::size_t r = 0; r < g.m; ++r) {
        const std::int16_t* a = g.a + r * g.lda;
        std::int16_t* c = g.c + r * g.ldc;
        for (std::size_t o0 = 0; o0 < layer.n; o0 += k_scalar_tile) {
            const std::size_t nt = std::min(k_scalar_tile, layer.n - o0);
            std::copy_n(layer.bias.data() + o0, nt, acc);
            for (std::size_t i = 0; i < layer.k; ++i) {
                const std::int32_t xv = a[i];
                const std::int8_t* w = g.weight + i * layer.n + o0;
                for (std::size_t o = 0; o < nt; ++o) acc[o] += xv * static_cast<std::int32_t>(w[o]);
            }
            for (std::size_t o = 0; o < nt; ++o) {
                c[o0 + o] = static_cast<std::int16_t>(
                    requantize(acc[o], layer.requant, layer.zero_point, layer.clamp_min, 127) -
                    layer.zero_point);
            }
        }
        if (layer.n % 2 != 0) c[layer.n] = 0;
    }
}

constexpr q8_kernels k_scalar{&quantize_scalar, &gemm_scalar};

#if defined(FALLSENSE_Q8_X86)

// The x86 tiers: each `lanes` holds only ISA primitives, and q8_tile.inl,
// compiled once per tier under its target, supplies the rest.  The
// quantizer mirrors quantize_value in double precision: real / scale, NaN
// replaced by the low saturation bound, clamp to ±2^31, round half away
// from zero (trunc, then step one away from zero when |fraction| >= 0.5 —
// both steps exact), add the zero point, clamp to int8.  The requantize
// mirrors multiply_by_quantized_multiplier: the 64-bit products are formed
// in the even and odd int32 lanes separately, nudged, and bits 31..62 (the
// arithmetic >> 31, truncated to int32) are recombined; then the rounding
// right shift and the clamp on (q − zp).
constexpr double k_sat = 2147483648.0;  // quantize_value's saturation bound, 2^31

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
namespace avx2_tier {

/// 8 int32 lanes; tiles of 4 rows x 2 vectors.
struct lanes {
    using vec = __m256i;
    static constexpr std::size_t width = 8, mr = 4, nv = 2;

    static vec load(const void* p) { return _mm256_loadu_si256(static_cast<const vec*>(p)); }
    static vec broadcast(std::int32_t pair) { return _mm256_set1_epi32(pair); }
    static vec madd(vec c, vec x, vec w) { return _mm256_add_epi32(c, _mm256_madd_epi16(x, w)); }

    struct requant {
        vec mantissa, mask, half, lo, hi;
        __m128i shift;
        explicit requant(const q8_layer& l)
            : mantissa(_mm256_set1_epi64x(l.requant.mantissa)),
              mask(_mm256_set1_epi32(static_cast<int>((1LL << l.requant.right_shift) - 1))),
              half(_mm256_srli_epi32(mask, 1)),
              lo(_mm256_set1_epi32(l.clamp_min - l.zero_point)),
              hi(_mm256_set1_epi32(127 - l.zero_point)),
              shift(_mm_cvtsi32_si128(l.requant.right_shift)) {}
    };

    static vec nudge(vec p) {
        const vec neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), p);
        return _mm256_add_epi64(p, _mm256_blendv_epi8(_mm256_set1_epi64x(1LL << 30),
                                                      _mm256_set1_epi64x(1 - (1LL << 30)), neg));
    }

    static vec requantize(vec acc, const requant& rq) {
        const vec even = nudge(_mm256_mul_epi32(acc, rq.mantissa));
        const vec odd = nudge(_mm256_mul_epi32(_mm256_srli_epi64(acc, 32), rq.mantissa));
        const vec high =
            _mm256_blend_epi32(_mm256_srli_epi64(even, 31), _mm256_slli_epi64(odd, 1), 0xAA);
        const vec remainder = _mm256_and_si256(high, rq.mask);
        const vec threshold = _mm256_add_epi32(rq.half, _mm256_srli_epi32(high, 31));
        vec result = _mm256_sra_epi32(high, rq.shift);
        result = _mm256_sub_epi32(result, _mm256_cmpgt_epi32(remainder, threshold));
        return _mm256_min_epi32(_mm256_max_epi32(result, rq.lo), rq.hi);
    }

    /// The first `count` of the 8 values, narrowed to int16.
    static void store(std::int16_t* c, vec q, std::size_t count) {
        const __m128i q16 =
            _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        if (count == width) {
            _mm_storeu_si128(reinterpret_cast<__m128i*>(c), q16);
        } else {
            alignas(16) std::int16_t tmp[width];
            _mm_store_si128(reinterpret_cast<__m128i*>(tmp), q16);
            std::memcpy(c, tmp, count * sizeof(std::int16_t));
        }
    }

    static __m128i quantize4(__m128 real, __m256d scale, __m256d zp) {
        const __m256d sat_lo = _mm256_set1_pd(-k_sat);
        const __m256d sign = _mm256_set1_pd(-0.0);
        __m256d v = _mm256_div_pd(_mm256_cvtps_pd(real), scale);
        v = _mm256_blendv_pd(v, sat_lo, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
        v = _mm256_min_pd(_mm256_max_pd(v, sat_lo), _mm256_set1_pd(k_sat));
        const __m256d t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        const __m256d frac = _mm256_andnot_pd(sign, _mm256_sub_pd(v, t));
        const __m256d step = _mm256_or_pd(_mm256_and_pd(v, sign), _mm256_set1_pd(1.0));
        const __m256d away =
            _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ), step);
        __m256d q = _mm256_add_pd(_mm256_add_pd(t, away), zp);
        q = _mm256_min_pd(_mm256_max_pd(q, _mm256_set1_pd(-128.0)), _mm256_set1_pd(127.0));
        return _mm256_cvtpd_epi32(q);
    }

    /// `width` floats, as two halves of 4 double lanes.
    static void quantize(const float* real, double scale, double zp, std::int8_t* out) {
        const __m256d s = _mm256_set1_pd(scale), z = _mm256_set1_pd(zp);
        const __m256 v = _mm256_loadu_ps(real);
        const __m128i q16 = _mm_packs_epi32(quantize4(_mm256_castps256_ps128(v), s, z),
                                            quantize4(_mm256_extractf128_ps(v, 1), s, z));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm_packs_epi16(q16, q16));
    }
};

#include "quant/q8_tile.inl"

}  // namespace avx2_tier
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

// GCC 12's avx512fintrin.h seeds the pass-through operand of unmasked
// intrinsics from itself, which trips -Wuninitialized at every call site.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f,avx512bw"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw")
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
namespace avx512_tier {

/// 16 int32 lanes (the madd needs AVX-512BW); tiles of 4 rows x 4 vectors.
struct lanes {
    using vec = __m512i;
    static constexpr std::size_t width = 16, mr = 4, nv = 4;

    static vec load(const void* p) { return _mm512_loadu_si512(p); }
    static vec broadcast(std::int32_t pair) { return _mm512_set1_epi32(pair); }
    static vec madd(vec c, vec x, vec w) { return _mm512_add_epi32(c, _mm512_madd_epi16(x, w)); }

    struct requant {
        vec mantissa, mask, half, lo, hi;
        __m128i shift;
        explicit requant(const q8_layer& l)
            : mantissa(_mm512_set1_epi64(l.requant.mantissa)),
              mask(_mm512_set1_epi32(static_cast<int>((1LL << l.requant.right_shift) - 1))),
              half(_mm512_srli_epi32(mask, 1)),
              lo(_mm512_set1_epi32(l.clamp_min - l.zero_point)),
              hi(_mm512_set1_epi32(127 - l.zero_point)),
              shift(_mm_cvtsi32_si128(l.requant.right_shift)) {}
    };

    static vec nudge(vec p) {
        const __mmask8 negative = _mm512_cmplt_epi64_mask(p, _mm512_setzero_si512());
        return _mm512_add_epi64(p, _mm512_mask_blend_epi64(negative, _mm512_set1_epi64(1LL << 30),
                                                           _mm512_set1_epi64(1 - (1LL << 30))));
    }

    static vec requantize(vec acc, const requant& rq) {
        const vec even = nudge(_mm512_mul_epi32(acc, rq.mantissa));
        const vec odd = nudge(_mm512_mul_epi32(_mm512_srli_epi64(acc, 32), rq.mantissa));
        const vec high = _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(even, 31),
                                                 _mm512_slli_epi64(odd, 1));
        const vec remainder = _mm512_and_si512(high, rq.mask);
        const vec threshold = _mm512_add_epi32(rq.half, _mm512_srli_epi32(high, 31));
        vec result = _mm512_sra_epi32(high, rq.shift);
        result = _mm512_mask_add_epi32(result, _mm512_cmpgt_epi32_mask(remainder, threshold),
                                       result, _mm512_set1_epi32(1));
        return _mm512_min_epi32(_mm512_max_epi32(result, rq.lo), rq.hi);
    }

    /// The first `count` of the 16 values, narrowed to int16.
    static void store(std::int16_t* c, vec q, std::size_t count) {
        _mm512_mask_cvtepi32_storeu_epi16(c, static_cast<__mmask16>((1u << count) - 1), q);
    }

    static __m256i quantize8(__m256 real, __m512d scale, __m512d zp) {
        const __m512d sat_lo = _mm512_set1_pd(-k_sat);
        const __m512i sign = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
        __m512d v = _mm512_div_pd(_mm512_cvtps_pd(real), scale);
        v = _mm512_mask_mov_pd(v, _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), sat_lo);
        v = _mm512_min_pd(_mm512_max_pd(v, sat_lo), _mm512_set1_pd(k_sat));
        const __m512d t = _mm512_roundscale_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        const __mmask8 away = _mm512_cmp_pd_mask(_mm512_abs_pd(_mm512_sub_pd(v, t)),
                                                 _mm512_set1_pd(0.5), _CMP_GE_OQ);
        const __m512d step = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_and_si512(_mm512_castpd_si512(v), sign),
                            _mm512_castpd_si512(_mm512_set1_pd(1.0))));
        __m512d q = _mm512_add_pd(_mm512_mask_add_pd(t, away, t, step), zp);
        q = _mm512_min_pd(_mm512_max_pd(q, _mm512_set1_pd(-128.0)), _mm512_set1_pd(127.0));
        return _mm512_cvtpd_epi32(q);
    }

    /// `width` floats, as two halves of 8 double lanes.
    static void quantize(const float* real, double scale, double zp, std::int8_t* out) {
        const __m512d s = _mm512_set1_pd(scale), z = _mm512_set1_pd(zp);
        const __m256i lo = quantize8(_mm256_loadu_ps(real), s, z);
        const __m256i hi = quantize8(_mm256_loadu_ps(real + 8), s, z);
        const __m512i q32 = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm512_cvtepi32_epi8(q32));
    }
};

#include "quant/q8_tile.inl"

}  // namespace avx512_tier
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif

#endif  // FALLSENSE_Q8_X86

}  // namespace

const q8_kernels& q8_kernels_for(nn::simd_backend backend) {
#if defined(FALLSENSE_Q8_X86)
    if (backend == nn::simd_backend::avx512) return avx512_tier::k_kernels;
    if (backend == nn::simd_backend::avx2_fma) return avx2_tier::k_kernels;
#endif
    (void)backend;
    return k_scalar;
}

}  // namespace fallsense::quant
