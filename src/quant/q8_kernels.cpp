#include "quant/q8_kernels.hpp"

#include <algorithm>
#include <cstring>

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

// ---------------------------------------------------------------- scalar

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

// Shared by both x86 tiers.  The quantizer mirrors quantize_value in
// double precision: real / scale, NaN replaced by the low saturation
// bound, clamp to ±2^31, round half away from zero (trunc, then step one
// away from zero when |fraction| >= 0.5 — both steps exact), add the zero
// point, clamp to int8.  The requantize mirrors
// multiply_by_quantized_multiplier: the 64-bit products are formed in the
// even and odd int32 lanes separately, nudged, and bits 31..62 (the
// arithmetic >> 31, truncated to int32) are recombined; then the rounding
// right shift and the clamp on (q − zp).
constexpr double k_sat = 2147483648.0;  // quantize_value's saturation bound, 2^31

// ---------------------------------------------------------------- avx2

#define FS_Q8_AVX2 __attribute__((target("avx2")))

FS_Q8_AVX2 inline __m128i quantize4_avx2(__m128 real, __m256d scale, __m256d zp) {
    const __m256d sat_lo = _mm256_set1_pd(-k_sat);
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d v = _mm256_div_pd(_mm256_cvtps_pd(real), scale);
    v = _mm256_blendv_pd(v, sat_lo, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    v = _mm256_min_pd(_mm256_max_pd(v, sat_lo), _mm256_set1_pd(k_sat));
    const __m256d t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_andnot_pd(sign, _mm256_sub_pd(v, t));
    const __m256d step = _mm256_or_pd(_mm256_and_pd(v, sign), _mm256_set1_pd(1.0));
    const __m256d away = _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ), step);
    __m256d q = _mm256_add_pd(_mm256_add_pd(t, away), zp);
    q = _mm256_min_pd(_mm256_max_pd(q, _mm256_set1_pd(-128.0)), _mm256_set1_pd(127.0));
    return _mm256_cvtpd_epi32(q);
}

FS_Q8_AVX2 void quantize_avx2(const float* real, std::size_t count, const qparams& qp,
                              std::int8_t* out) {
    const __m256d scale = _mm256_set1_pd(static_cast<double>(qp.scale));
    const __m256d zp = _mm256_set1_pd(static_cast<double>(qp.zero_point));
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 v = _mm256_loadu_ps(real + i);
        const __m128i lo = quantize4_avx2(_mm256_castps256_ps128(v), scale, zp);
        const __m128i hi = quantize4_avx2(_mm256_extractf128_ps(v, 1), scale, zp);
        const __m128i q16 = _mm_packs_epi32(lo, hi);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), _mm_packs_epi16(q16, q16));
    }
    quantize_scalar(real + i, count - i, qp, out + i);
}

struct requant_avx2 {
    __m256i mantissa, mask, half, lo, hi;
    __m128i shift;
};

FS_Q8_AVX2 requant_avx2 make_requant_avx2(const q8_layer& layer) {
    const std::int32_t mask =
        static_cast<std::int32_t>((1LL << layer.requant.right_shift) - 1);
    return {_mm256_set1_epi64x(layer.requant.mantissa),
            _mm256_set1_epi32(mask),
            _mm256_set1_epi32(mask >> 1),
            _mm256_set1_epi32(layer.clamp_min - layer.zero_point),
            _mm256_set1_epi32(127 - layer.zero_point),
            _mm_cvtsi32_si128(layer.requant.right_shift)};
}

FS_Q8_AVX2 inline __m256i nudge_avx2(__m256i product) {
    const __m256i negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), product);
    const __m256i nudge = _mm256_blendv_epi8(_mm256_set1_epi64x(1LL << 30),
                                             _mm256_set1_epi64x(1 - (1LL << 30)), negative);
    return _mm256_add_epi64(product, nudge);
}

FS_Q8_AVX2 inline __m256i requantize_avx2(__m256i acc, const requant_avx2& rq) {
    const __m256i even = nudge_avx2(_mm256_mul_epi32(acc, rq.mantissa));
    const __m256i odd = nudge_avx2(_mm256_mul_epi32(_mm256_srli_epi64(acc, 32), rq.mantissa));
    const __m256i high =
        _mm256_blend_epi32(_mm256_srli_epi64(even, 31), _mm256_slli_epi64(odd, 1), 0xAA);
    const __m256i remainder = _mm256_and_si256(high, rq.mask);
    const __m256i threshold = _mm256_add_epi32(rq.half, _mm256_srli_epi32(high, 31));
    __m256i result = _mm256_sra_epi32(high, rq.shift);
    result = _mm256_sub_epi32(result, _mm256_cmpgt_epi32(remainder, threshold));
    return _mm256_min_epi32(_mm256_max_epi32(result, rq.lo), rq.hi);
}

/// MR rows x NV 8-output vectors: the accumulators stay in registers
/// across the whole reduction; one requantized store per vector.
template <int MR, int NV>
FS_Q8_AVX2 void tile_avx2(const q8_gemm_args& g, const requant_avx2& rq, std::size_t m0,
                          std::size_t o0, std::size_t width) {
    const q8_layer& layer = *g.layer;
    __m256i acc[MR][NV];
    for (int j = 0; j < NV; ++j) {
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(layer.bias.data() + o0 + 8 * j));
        for (int r = 0; r < MR; ++r) acc[r][j] = b;
    }
    const std::size_t pairs = (layer.k + 1) / 2;
    const std::size_t stride = layer.n_pad * 2;
    const std::int16_t* w = layer.weight.data() + o0 * 2;
    const std::int16_t* a = g.a + m0 * g.lda;
    for (std::size_t p = 0; p < pairs; ++p, w += stride) {
        __m256i wv[NV];
        for (int j = 0; j < NV; ++j) {
            wv[j] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 16 * j));
        }
        for (int r = 0; r < MR; ++r) {
            std::int32_t pair;
            std::memcpy(&pair, a + r * g.lda + 2 * p, sizeof pair);
            const __m256i x = _mm256_set1_epi32(pair);
            for (int j = 0; j < NV; ++j) {
                acc[r][j] = _mm256_add_epi32(acc[r][j], _mm256_madd_epi16(x, wv[j]));
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        std::int16_t* c = g.c + (m0 + r) * g.ldc;
        for (int j = 0; j < NV; ++j) {
            const __m256i q = requantize_avx2(acc[r][j], rq);
            const __m128i q16 =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
            const std::size_t col = o0 + 8 * j;
            const std::size_t lanes = std::min<std::size_t>(8, width - col);
            if (lanes == 8) {
                _mm_storeu_si128(reinterpret_cast<__m128i*>(c + col), q16);
            } else {
                alignas(16) std::int16_t tmp[8];
                _mm_store_si128(reinterpret_cast<__m128i*>(tmp), q16);
                std::memcpy(c + col, tmp, lanes * sizeof(std::int16_t));
            }
        }
    }
}

using tile_avx2_fn = void (*)(const q8_gemm_args&, const requant_avx2&, std::size_t,
                              std::size_t, std::size_t);

FS_Q8_AVX2 void gemm_avx2(const q8_gemm_args& g) {
    static constexpr tile_avx2_fn k_tiles[4][2] = {
        {&tile_avx2<1, 1>, &tile_avx2<1, 2>},
        {&tile_avx2<2, 1>, &tile_avx2<2, 2>},
        {&tile_avx2<3, 1>, &tile_avx2<3, 2>},
        {&tile_avx2<4, 1>, &tile_avx2<4, 2>},
    };
    const requant_avx2 rq = make_requant_avx2(*g.layer);
    const std::size_t width = q8_row_width(g.layer->n);
    for (std::size_t m0 = 0; m0 < g.m; m0 += 4) {
        const std::size_t mr = std::min<std::size_t>(4, g.m - m0);
        for (std::size_t o0 = 0; o0 < width; o0 += 16) {
            const std::size_t nv = std::min<std::size_t>(2, (width - o0 + 7) / 8);
            k_tiles[mr - 1][nv - 1](g, rq, m0, o0, width);
        }
    }
}

constexpr q8_kernels k_avx2{&quantize_avx2, &gemm_avx2};

// ---------------------------------------------------------------- avx512

// GCC 12's avx512fintrin.h seeds the pass-through operand of unmasked
// intrinsics from itself, which trips -Wuninitialized at every call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define FS_Q8_AVX512 __attribute__((target("avx512f,avx512bw")))

FS_Q8_AVX512 inline __m256i quantize8_avx512(__m256 real, __m512d scale, __m512d zp) {
    const __m512d sat_lo = _mm512_set1_pd(-k_sat);
    const __m512i sign = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
    __m512d v = _mm512_div_pd(_mm512_cvtps_pd(real), scale);
    v = _mm512_mask_mov_pd(v, _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), sat_lo);
    v = _mm512_min_pd(_mm512_max_pd(v, sat_lo), _mm512_set1_pd(k_sat));
    const __m512d t = _mm512_roundscale_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask8 away =
        _mm512_cmp_pd_mask(_mm512_abs_pd(_mm512_sub_pd(v, t)), _mm512_set1_pd(0.5), _CMP_GE_OQ);
    const __m512d step = _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_and_si512(_mm512_castpd_si512(v), sign),
                        _mm512_castpd_si512(_mm512_set1_pd(1.0))));
    __m512d q = _mm512_add_pd(_mm512_mask_add_pd(t, away, t, step), zp);
    q = _mm512_min_pd(_mm512_max_pd(q, _mm512_set1_pd(-128.0)), _mm512_set1_pd(127.0));
    return _mm512_cvtpd_epi32(q);
}

FS_Q8_AVX512 void quantize_avx512(const float* real, std::size_t count, const qparams& qp,
                                  std::int8_t* out) {
    const __m512d scale = _mm512_set1_pd(static_cast<double>(qp.scale));
    const __m512d zp = _mm512_set1_pd(static_cast<double>(qp.zero_point));
    std::size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m256i lo = quantize8_avx512(_mm256_loadu_ps(real + i), scale, zp);
        const __m256i hi = quantize8_avx512(_mm256_loadu_ps(real + i + 8), scale, zp);
        const __m512i q32 = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm512_cvtepi32_epi8(q32));
    }
    quantize_scalar(real + i, count - i, qp, out + i);
}

struct requant_avx512 {
    __m512i mantissa, mask, half, lo, hi;
    __m128i shift;
};

FS_Q8_AVX512 requant_avx512 make_requant_avx512(const q8_layer& layer) {
    const std::int32_t mask =
        static_cast<std::int32_t>((1LL << layer.requant.right_shift) - 1);
    return {_mm512_set1_epi64(layer.requant.mantissa),
            _mm512_set1_epi32(mask),
            _mm512_set1_epi32(mask >> 1),
            _mm512_set1_epi32(layer.clamp_min - layer.zero_point),
            _mm512_set1_epi32(127 - layer.zero_point),
            _mm_cvtsi32_si128(layer.requant.right_shift)};
}

FS_Q8_AVX512 inline __m512i nudge_avx512(__m512i product) {
    const __mmask8 negative = _mm512_cmplt_epi64_mask(product, _mm512_setzero_si512());
    const __m512i nudge = _mm512_mask_blend_epi64(negative, _mm512_set1_epi64(1LL << 30),
                                                  _mm512_set1_epi64(1 - (1LL << 30)));
    return _mm512_add_epi64(product, nudge);
}

FS_Q8_AVX512 inline __m512i requantize_avx512(__m512i acc, const requant_avx512& rq) {
    const __m512i even = nudge_avx512(_mm512_mul_epi32(acc, rq.mantissa));
    const __m512i odd = nudge_avx512(_mm512_mul_epi32(_mm512_srli_epi64(acc, 32), rq.mantissa));
    const __m512i high = _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(even, 31),
                                                 _mm512_slli_epi64(odd, 1));
    const __m512i remainder = _mm512_and_si512(high, rq.mask);
    const __m512i threshold = _mm512_add_epi32(rq.half, _mm512_srli_epi32(high, 31));
    __m512i result = _mm512_sra_epi32(high, rq.shift);
    result = _mm512_mask_add_epi32(result, _mm512_cmpgt_epi32_mask(remainder, threshold), result,
                                   _mm512_set1_epi32(1));
    return _mm512_min_epi32(_mm512_max_epi32(result, rq.lo), rq.hi);
}

/// MR rows x NV 16-output vectors, as tile_avx2.
template <int MR, int NV>
FS_Q8_AVX512 void tile_avx512(const q8_gemm_args& g, const requant_avx512& rq, std::size_t m0,
                              std::size_t o0, std::size_t width) {
    const q8_layer& layer = *g.layer;
    __m512i acc[MR][NV];
    for (int j = 0; j < NV; ++j) {
        const __m512i b = _mm512_loadu_si512(layer.bias.data() + o0 + 16 * j);
        for (int r = 0; r < MR; ++r) acc[r][j] = b;
    }
    const std::size_t pairs = (layer.k + 1) / 2;
    const std::size_t stride = layer.n_pad * 2;
    const std::int16_t* w = layer.weight.data() + o0 * 2;
    const std::int16_t* a = g.a + m0 * g.lda;
    for (std::size_t p = 0; p < pairs; ++p, w += stride) {
        __m512i wv[NV];
        for (int j = 0; j < NV; ++j) wv[j] = _mm512_loadu_si512(w + 32 * j);
        for (int r = 0; r < MR; ++r) {
            std::int32_t pair;
            std::memcpy(&pair, a + r * g.lda + 2 * p, sizeof pair);
            const __m512i x = _mm512_set1_epi32(pair);
            for (int j = 0; j < NV; ++j) {
                acc[r][j] = _mm512_add_epi32(acc[r][j], _mm512_madd_epi16(x, wv[j]));
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        std::int16_t* c = g.c + (m0 + r) * g.ldc;
        for (int j = 0; j < NV; ++j) {
            const std::size_t col = o0 + 16 * j;
            const auto mask =
                static_cast<__mmask16>((1u << std::min<std::size_t>(16, width - col)) - 1);
            _mm512_mask_cvtepi32_storeu_epi16(c + col, mask, requantize_avx512(acc[r][j], rq));
        }
    }
}

using tile_avx512_fn = void (*)(const q8_gemm_args&, const requant_avx512&, std::size_t,
                                std::size_t, std::size_t);

FS_Q8_AVX512 void gemm_avx512(const q8_gemm_args& g) {
    static constexpr tile_avx512_fn k_tiles[4][4] = {
        {&tile_avx512<1, 1>, &tile_avx512<1, 2>, &tile_avx512<1, 3>, &tile_avx512<1, 4>},
        {&tile_avx512<2, 1>, &tile_avx512<2, 2>, &tile_avx512<2, 3>, &tile_avx512<2, 4>},
        {&tile_avx512<3, 1>, &tile_avx512<3, 2>, &tile_avx512<3, 3>, &tile_avx512<3, 4>},
        {&tile_avx512<4, 1>, &tile_avx512<4, 2>, &tile_avx512<4, 3>, &tile_avx512<4, 4>},
    };
    const requant_avx512 rq = make_requant_avx512(*g.layer);
    const std::size_t width = q8_row_width(g.layer->n);
    for (std::size_t m0 = 0; m0 < g.m; m0 += 4) {
        const std::size_t mr = std::min<std::size_t>(4, g.m - m0);
        for (std::size_t o0 = 0; o0 < width; o0 += 64) {
            const std::size_t nv = std::min<std::size_t>(4, (width - o0 + 15) / 16);
            k_tiles[mr - 1][nv - 1](g, rq, m0, o0, width);
        }
    }
}

constexpr q8_kernels k_avx512{&quantize_avx512, &gemm_avx512};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FALLSENSE_Q8_X86

}  // namespace

const q8_kernels& q8_kernels_for(nn::simd_backend backend) {
#if defined(FALLSENSE_Q8_X86)
    if (backend == nn::simd_backend::avx512) return k_avx512;
    if (backend == nn::simd_backend::avx2_fma) return k_avx2;
#endif
    (void)backend;
    return k_scalar;
}

}  // namespace fallsense::quant
