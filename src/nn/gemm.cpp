#include "nn/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/activations.hpp"
#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FALLSENSE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define FALLSENSE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fallsense::nn {

const char* fused_act_name(fused_act act) {
    switch (act) {
        case fused_act::relu: return "relu";
        case fused_act::sigmoid: return "sigmoid";
        case fused_act::none: break;
    }
    return "none";
}

namespace {

// Row-blocking factor: C rows updated together per B-row stream.  Each
// element's reduction stays a single serial ascending-k sequence — the
// exact order of the naive loops — so blocking changes cache traffic, not
// floating-point results.
constexpr std::size_t k_mr = 4;

// Rows of C per parallel task in gemm_nn (dispatch granularity only).
constexpr std::size_t k_row_grain = 32;

// gemm_tn_acc reduction chunking: at least this many reduction rows per
// chunk, at most this many chunks.  Both are shape-only constants so chunk
// boundaries — and therefore the floating-point summation tree — never
// depend on the thread count.
constexpr std::size_t k_reduce_grain = 256;
constexpr std::size_t k_max_reduce_chunks = 16;

/// One row quad [i, i+4) of C, k-outer: each pass over kk streams one
/// contiguous row of B and feeds four C rows held hot in cache, so B is
/// read once per quad instead of once per row.  C is updated in place
/// (callers pre-fill it with bias or zero), keeping per-element additions
/// in ascending-k order.
inline void gemm_nn_row_quad(std::size_t i, std::size_t n, std::size_t k, const float* a,
                             const float* b, float* c) {
    const float* __restrict a0 = a + i * k;
    const float* __restrict a1 = a0 + k;
    const float* __restrict a2 = a1 + k;
    const float* __restrict a3 = a2 + k;
    float* __restrict c0 = c + i * n;
    float* __restrict c1 = c0 + n;
    float* __restrict c2 = c1 + n;
    float* __restrict c3 = c2 + n;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* __restrict bk = b + kk * n;
        const float av0 = a0[kk];
        const float av1 = a1[kk];
        const float av2 = a2[kk];
        const float av3 = a3[kk];
        for (std::size_t j = 0; j < n; ++j) {
            const float bv = bk[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
        }
    }
}

/// One row of C, k-outer (remainder path).
inline void gemm_nn_row(std::size_t i, std::size_t n, std::size_t k, const float* a,
                        const float* b, float* c) {
    const float* __restrict ai = a + i * k;
    float* __restrict ci = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ai[kk];
        const float* __restrict bk = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) ci[j] += av * bk[j];
    }
}

#if defined(FALLSENSE_SIMD_X86)

/// Mask with the low `rem` (0 < rem < 8) lanes active, for maskload /
/// maskstore column tails.
__attribute__((target("avx2"))) inline __m256i tail_mask(std::size_t rem) {
    alignas(32) static constexpr std::int32_t k_lanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                             0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k_lanes + 8 - rem));
}

// The vector row kernels mirror the scalar ones: k-outer, columns in
// 8-lane (AVX2) or 16-lane (AVX-512) FMA strips with a masked strip for
// the column tail.  Every (row, j) update is one fmadd(broadcast(a), b, c)
// regardless of lane width and of whether the row runs in the quad or the
// single-row kernel, so a row's result is independent of its position in
// the batch, of the thread count, AND of which vector backend ran it.

__attribute__((target("avx2,fma"))) void gemm_nn_row_quad_avx2(std::size_t i, std::size_t n,
                                                               std::size_t k, const float* a,
                                                               const float* b, float* c) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    const std::size_t n8 = n - n % 8;
    const std::size_t rem = n - n8;
    const __m256i mask = rem ? tail_mask(rem) : _mm256_setzero_si256();
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const __m256 av0 = _mm256_set1_ps(a0[kk]);
        const __m256 av1 = _mm256_set1_ps(a1[kk]);
        const __m256 av2 = _mm256_set1_ps(a2[kk]);
        const __m256 av3 = _mm256_set1_ps(a3[kk]);
        for (std::size_t j = 0; j < n8; j += 8) {
            const __m256 bv = _mm256_loadu_ps(bk + j);
            _mm256_storeu_ps(c0 + j, _mm256_fmadd_ps(av0, bv, _mm256_loadu_ps(c0 + j)));
            _mm256_storeu_ps(c1 + j, _mm256_fmadd_ps(av1, bv, _mm256_loadu_ps(c1 + j)));
            _mm256_storeu_ps(c2 + j, _mm256_fmadd_ps(av2, bv, _mm256_loadu_ps(c2 + j)));
            _mm256_storeu_ps(c3 + j, _mm256_fmadd_ps(av3, bv, _mm256_loadu_ps(c3 + j)));
        }
        if (rem) {
            const __m256 bv = _mm256_maskload_ps(bk + n8, mask);
            _mm256_maskstore_ps(
                c0 + n8, mask, _mm256_fmadd_ps(av0, bv, _mm256_maskload_ps(c0 + n8, mask)));
            _mm256_maskstore_ps(
                c1 + n8, mask, _mm256_fmadd_ps(av1, bv, _mm256_maskload_ps(c1 + n8, mask)));
            _mm256_maskstore_ps(
                c2 + n8, mask, _mm256_fmadd_ps(av2, bv, _mm256_maskload_ps(c2 + n8, mask)));
            _mm256_maskstore_ps(
                c3 + n8, mask, _mm256_fmadd_ps(av3, bv, _mm256_maskload_ps(c3 + n8, mask)));
        }
    }
}

__attribute__((target("avx2,fma"))) void gemm_nn_row_avx2(std::size_t i, std::size_t n,
                                                          std::size_t k, const float* a,
                                                          const float* b, float* c) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    const std::size_t n8 = n - n % 8;
    const std::size_t rem = n - n8;
    const __m256i mask = rem ? tail_mask(rem) : _mm256_setzero_si256();
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const __m256 av = _mm256_set1_ps(ai[kk]);
        for (std::size_t j = 0; j < n8; j += 8) {
            const __m256 bv = _mm256_loadu_ps(bk + j);
            _mm256_storeu_ps(ci + j, _mm256_fmadd_ps(av, bv, _mm256_loadu_ps(ci + j)));
        }
        if (rem) {
            const __m256 bv = _mm256_maskload_ps(bk + n8, mask);
            _mm256_maskstore_ps(
                ci + n8, mask, _mm256_fmadd_ps(av, bv, _mm256_maskload_ps(ci + n8, mask)));
        }
    }
}

__attribute__((target("avx512f"))) void gemm_nn_row_quad_avx512(std::size_t i, std::size_t n,
                                                                std::size_t k, const float* a,
                                                                const float* b, float* c) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    const std::size_t n16 = n - n % 16;
    const std::size_t rem = n - n16;
    const __mmask16 mask = rem ? static_cast<__mmask16>((1u << rem) - 1u) : 0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const __m512 av0 = _mm512_set1_ps(a0[kk]);
        const __m512 av1 = _mm512_set1_ps(a1[kk]);
        const __m512 av2 = _mm512_set1_ps(a2[kk]);
        const __m512 av3 = _mm512_set1_ps(a3[kk]);
        for (std::size_t j = 0; j < n16; j += 16) {
            const __m512 bv = _mm512_loadu_ps(bk + j);
            _mm512_storeu_ps(c0 + j, _mm512_fmadd_ps(av0, bv, _mm512_loadu_ps(c0 + j)));
            _mm512_storeu_ps(c1 + j, _mm512_fmadd_ps(av1, bv, _mm512_loadu_ps(c1 + j)));
            _mm512_storeu_ps(c2 + j, _mm512_fmadd_ps(av2, bv, _mm512_loadu_ps(c2 + j)));
            _mm512_storeu_ps(c3 + j, _mm512_fmadd_ps(av3, bv, _mm512_loadu_ps(c3 + j)));
        }
        if (rem) {
            const __m512 bv = _mm512_maskz_loadu_ps(mask, bk + n16);
            _mm512_mask_storeu_ps(
                c0 + n16, mask,
                _mm512_fmadd_ps(av0, bv, _mm512_maskz_loadu_ps(mask, c0 + n16)));
            _mm512_mask_storeu_ps(
                c1 + n16, mask,
                _mm512_fmadd_ps(av1, bv, _mm512_maskz_loadu_ps(mask, c1 + n16)));
            _mm512_mask_storeu_ps(
                c2 + n16, mask,
                _mm512_fmadd_ps(av2, bv, _mm512_maskz_loadu_ps(mask, c2 + n16)));
            _mm512_mask_storeu_ps(
                c3 + n16, mask,
                _mm512_fmadd_ps(av3, bv, _mm512_maskz_loadu_ps(mask, c3 + n16)));
        }
    }
}

__attribute__((target("avx512f"))) void gemm_nn_row_avx512(std::size_t i, std::size_t n,
                                                           std::size_t k, const float* a,
                                                           const float* b, float* c) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    const std::size_t n16 = n - n % 16;
    const std::size_t rem = n - n16;
    const __mmask16 mask = rem ? static_cast<__mmask16>((1u << rem) - 1u) : 0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const __m512 av = _mm512_set1_ps(ai[kk]);
        for (std::size_t j = 0; j < n16; j += 16) {
            const __m512 bv = _mm512_loadu_ps(bk + j);
            _mm512_storeu_ps(ci + j, _mm512_fmadd_ps(av, bv, _mm512_loadu_ps(ci + j)));
        }
        if (rem) {
            const __m512 bv = _mm512_maskz_loadu_ps(mask, bk + n16);
            _mm512_mask_storeu_ps(
                ci + n16, mask,
                _mm512_fmadd_ps(av, bv, _mm512_maskz_loadu_ps(mask, ci + n16)));
        }
    }
}

/// Vector ReLU epilogues: max(x, 0) lane-wise.  max is exact, so the
/// result matches the scalar `x > 0 ? x : 0` on every non-NaN input and
/// is identical across vector backends.
__attribute__((target("avx2"))) void relu_span_avx2(float* c, std::size_t count) {
    const __m256 zero = _mm256_setzero_ps();
    const std::size_t c8 = count - count % 8;
    std::size_t i = 0;
    for (; i < c8; i += 8) {
        _mm256_storeu_ps(c + i, _mm256_max_ps(_mm256_loadu_ps(c + i), zero));
    }
    for (; i < count; ++i) c[i] = c[i] > 0.0f ? c[i] : 0.0f;
}

__attribute__((target("avx512f"))) void relu_span_avx512(float* c, std::size_t count) {
    const __m512 zero = _mm512_setzero_ps();
    const std::size_t c16 = count - count % 16;
    std::size_t i = 0;
    for (; i < c16; i += 16) {
        _mm512_storeu_ps(c + i, _mm512_max_ps(_mm512_loadu_ps(c + i), zero));
    }
    for (; i < count; ++i) c[i] = c[i] > 0.0f ? c[i] : 0.0f;
}

#elif defined(FALLSENSE_SIMD_NEON)

// NEON mirrors of the row kernels: 4-lane FMA strips, scalar fmaf tail.
// The tail uses std::fmaf in both kernels so the per-(row, j) operation —
// fused multiply-add — matches the vector lanes and the quad/single split.

void gemm_nn_row_quad_neon(std::size_t i, std::size_t n, std::size_t k, const float* a,
                           const float* b, float* c) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    const std::size_t n4 = n - n % 4;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const float32x4_t av0 = vdupq_n_f32(a0[kk]);
        const float32x4_t av1 = vdupq_n_f32(a1[kk]);
        const float32x4_t av2 = vdupq_n_f32(a2[kk]);
        const float32x4_t av3 = vdupq_n_f32(a3[kk]);
        for (std::size_t j = 0; j < n4; j += 4) {
            const float32x4_t bv = vld1q_f32(bk + j);
            vst1q_f32(c0 + j, vfmaq_f32(vld1q_f32(c0 + j), av0, bv));
            vst1q_f32(c1 + j, vfmaq_f32(vld1q_f32(c1 + j), av1, bv));
            vst1q_f32(c2 + j, vfmaq_f32(vld1q_f32(c2 + j), av2, bv));
            vst1q_f32(c3 + j, vfmaq_f32(vld1q_f32(c3 + j), av3, bv));
        }
        for (std::size_t j = n4; j < n; ++j) {
            const float bv = bk[j];
            c0[j] = std::fmaf(a0[kk], bv, c0[j]);
            c1[j] = std::fmaf(a1[kk], bv, c1[j]);
            c2[j] = std::fmaf(a2[kk], bv, c2[j]);
            c3[j] = std::fmaf(a3[kk], bv, c3[j]);
        }
    }
}

void gemm_nn_row_neon(std::size_t i, std::size_t n, std::size_t k, const float* a,
                      const float* b, float* c) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    const std::size_t n4 = n - n % 4;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bk = b + kk * n;
        const float32x4_t av = vdupq_n_f32(ai[kk]);
        for (std::size_t j = 0; j < n4; j += 4) {
            const float32x4_t bv = vld1q_f32(bk + j);
            vst1q_f32(ci + j, vfmaq_f32(vld1q_f32(ci + j), av, bv));
        }
        for (std::size_t j = n4; j < n; ++j) ci[j] = std::fmaf(ai[kk], bk[j], ci[j]);
    }
}

void relu_span_neon(float* c, std::size_t count) {
    const float32x4_t zero = vdupq_n_f32(0.0f);
    const std::size_t c4 = count - count % 4;
    std::size_t i = 0;
    for (; i < c4; i += 4) vst1q_f32(c + i, vmaxq_f32(vld1q_f32(c + i), zero));
    for (; i < count; ++i) c[i] = c[i] > 0.0f ? c[i] : 0.0f;
}

#endif  // FALLSENSE_SIMD_X86 / FALLSENSE_SIMD_NEON

/// Everything one gemm call's row tasks need.  The parallel dispatch
/// lambda captures a single reference to this so the std::function stays
/// in its small-buffer store — no heap allocation on the inference path.
struct gemm_ctx {
    std::size_t n;
    std::size_t k;
    const float* a;
    const float* b;
    float* c;
    const float* bias;  ///< when set, rows seed with bias (fused path)
    bool accumulate;    ///< ignored when bias is set
    fused_act act;      ///< epilogue applied per row block while hot
    simd_backend backend;  ///< resolved once per call, shared by every row task
};

/// Seed rows [r0, r1): bias broadcast (fused path), prior contents
/// (accumulate), or zero.  The fused bias seed is the exact per-element
/// operation the layers' standalone prefill loops performed.
void gemm_nn_seed_rows(std::size_t r0, std::size_t r1, const gemm_ctx& ctx) {
    const std::size_t n = ctx.n;
    float* c = ctx.c;
    if (ctx.bias != nullptr) {
        for (std::size_t i = r0; i < r1; ++i) {
            float* ci = c + i * n;
            for (std::size_t j = 0; j < n; ++j) ci[j] = ctx.bias[j];
        }
    } else if (!ctx.accumulate) {
        std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
    }
}

/// Fused epilogue over rows [r0, r1), applied while the block is hot.
/// ReLU dispatches per backend (max is exact either way); sigmoid always
/// runs sigmoid_scalar per element so fused probabilities are identical
/// in every mode.
void gemm_nn_epilogue_rows(std::size_t r0, std::size_t r1, const gemm_ctx& ctx) {
    if (ctx.act == fused_act::none) return;
    float* const base = ctx.c + r0 * ctx.n;
    const std::size_t count = (r1 - r0) * ctx.n;
    if (ctx.act == fused_act::sigmoid) {
        for (std::size_t i = 0; i < count; ++i) base[i] = sigmoid_scalar(base[i]);
        return;
    }
#if defined(FALLSENSE_SIMD_X86)
    if (ctx.backend == simd_backend::avx512) {
        relu_span_avx512(base, count);
        return;
    }
    if (ctx.backend == simd_backend::avx2_fma) {
        relu_span_avx2(base, count);
        return;
    }
#elif defined(FALLSENSE_SIMD_NEON)
    if (ctx.backend == simd_backend::neon) {
        relu_span_neon(base, count);
        return;
    }
#endif
    for (std::size_t i = 0; i < count; ++i) base[i] = base[i] > 0.0f ? base[i] : 0.0f;
}

void gemm_nn_rows(std::size_t r0, std::size_t r1, const gemm_ctx& ctx) {
    const std::size_t n = ctx.n;
    const std::size_t k = ctx.k;
    const float* a = ctx.a;
    const float* b = ctx.b;
    float* c = ctx.c;
    gemm_nn_seed_rows(r0, r1, ctx);
    std::size_t i = r0;
#if defined(FALLSENSE_SIMD_X86)
    if (ctx.backend == simd_backend::avx512) {
        for (; i + k_mr <= r1; i += k_mr) gemm_nn_row_quad_avx512(i, n, k, a, b, c);
        for (; i < r1; ++i) gemm_nn_row_avx512(i, n, k, a, b, c);
        gemm_nn_epilogue_rows(r0, r1, ctx);
        return;
    }
    if (ctx.backend == simd_backend::avx2_fma) {
        for (; i + k_mr <= r1; i += k_mr) gemm_nn_row_quad_avx2(i, n, k, a, b, c);
        for (; i < r1; ++i) gemm_nn_row_avx2(i, n, k, a, b, c);
        gemm_nn_epilogue_rows(r0, r1, ctx);
        return;
    }
#elif defined(FALLSENSE_SIMD_NEON)
    if (ctx.backend == simd_backend::neon) {
        for (; i + k_mr <= r1; i += k_mr) gemm_nn_row_quad_neon(i, n, k, a, b, c);
        for (; i < r1; ++i) gemm_nn_row_neon(i, n, k, a, b, c);
        gemm_nn_epilogue_rows(r0, r1, ctx);
        return;
    }
#endif
    for (; i + k_mr <= r1; i += k_mr) gemm_nn_row_quad(i, n, k, a, b, c);
    for (; i < r1; ++i) gemm_nn_row(i, n, k, a, b, c);
    gemm_nn_epilogue_rows(r0, r1, ctx);
}

void gemm_nn_dispatch(std::size_t m, const gemm_ctx& ctx) {
    util::parallel_for_chunks(0, m, k_row_grain,
                              [&ctx](std::size_t, std::size_t lo, std::size_t hi) {
                                  gemm_nn_rows(lo, hi, ctx);
                              });
}

/// dst[i0..i1) rows (+)= A[k0..k1)ᵀ-slice · B[k0..k1)-slice, kk ascending
/// per element.  Row-blocked like gemm_nn so the dst tile stays hot while
/// B's slice streams through once per quad.
void rank1_accumulate(float* dst, const float* a, const float* b, std::size_t k0,
                      std::size_t k1, std::size_t i0, std::size_t i1, std::size_t m,
                      std::size_t n) {
    std::size_t i = i0;
    for (; i + k_mr <= i1; i += k_mr) {
        float* __restrict d0 = dst + i * n;
        float* __restrict d1 = d0 + n;
        float* __restrict d2 = d1 + n;
        float* __restrict d3 = d2 + n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* __restrict arow = a + kk * m + i;
            const float* __restrict brow = b + kk * n;
            const float av0 = arow[0];
            const float av1 = arow[1];
            const float av2 = arow[2];
            const float av3 = arow[3];
            for (std::size_t j = 0; j < n; ++j) {
                const float bv = brow[j];
                d0[j] += av0 * bv;
                d1[j] += av1 * bv;
                d2[j] += av2 * bv;
                d3[j] += av3 * bv;
            }
        }
    }
    for (; i < i1; ++i) {
        float* __restrict di = dst + i * n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float av = a[kk * m + i];
            const float* __restrict brow = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) di[j] += av * brow[j];
        }
    }
}

#if defined(FALLSENSE_SIMD_X86)

// Vector rank-1 mirrors for the gradient reduction: identical loop
// structure and ascending-kk order, each (row, j) update one fmadd — so
// per-chunk partials are bit-identical across thread counts (chunking is
// shape-only) and across vector backends (same fmadd sequence).

__attribute__((target("avx2,fma"))) void rank1_accumulate_avx2(
    float* dst, const float* a, const float* b, std::size_t k0, std::size_t k1,
    std::size_t i0, std::size_t i1, std::size_t m, std::size_t n) {
    const std::size_t n8 = n - n % 8;
    const std::size_t rem = n - n8;
    const __m256i mask = rem ? tail_mask(rem) : _mm256_setzero_si256();
    std::size_t i = i0;
    for (; i + k_mr <= i1; i += k_mr) {
        float* d0 = dst + i * n;
        float* d1 = d0 + n;
        float* d2 = d1 + n;
        float* d3 = d2 + n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* arow = a + kk * m + i;
            const float* brow = b + kk * n;
            const __m256 av0 = _mm256_set1_ps(arow[0]);
            const __m256 av1 = _mm256_set1_ps(arow[1]);
            const __m256 av2 = _mm256_set1_ps(arow[2]);
            const __m256 av3 = _mm256_set1_ps(arow[3]);
            for (std::size_t j = 0; j < n8; j += 8) {
                const __m256 bv = _mm256_loadu_ps(brow + j);
                _mm256_storeu_ps(d0 + j, _mm256_fmadd_ps(av0, bv, _mm256_loadu_ps(d0 + j)));
                _mm256_storeu_ps(d1 + j, _mm256_fmadd_ps(av1, bv, _mm256_loadu_ps(d1 + j)));
                _mm256_storeu_ps(d2 + j, _mm256_fmadd_ps(av2, bv, _mm256_loadu_ps(d2 + j)));
                _mm256_storeu_ps(d3 + j, _mm256_fmadd_ps(av3, bv, _mm256_loadu_ps(d3 + j)));
            }
            if (rem) {
                const __m256 bv = _mm256_maskload_ps(brow + n8, mask);
                _mm256_maskstore_ps(d0 + n8, mask,
                                    _mm256_fmadd_ps(av0, bv,
                                                    _mm256_maskload_ps(d0 + n8, mask)));
                _mm256_maskstore_ps(d1 + n8, mask,
                                    _mm256_fmadd_ps(av1, bv,
                                                    _mm256_maskload_ps(d1 + n8, mask)));
                _mm256_maskstore_ps(d2 + n8, mask,
                                    _mm256_fmadd_ps(av2, bv,
                                                    _mm256_maskload_ps(d2 + n8, mask)));
                _mm256_maskstore_ps(d3 + n8, mask,
                                    _mm256_fmadd_ps(av3, bv,
                                                    _mm256_maskload_ps(d3 + n8, mask)));
            }
        }
    }
    for (; i < i1; ++i) {
        float* di = dst + i * n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* brow = b + kk * n;
            const __m256 av = _mm256_set1_ps(a[kk * m + i]);
            for (std::size_t j = 0; j < n8; j += 8) {
                const __m256 bv = _mm256_loadu_ps(brow + j);
                _mm256_storeu_ps(di + j, _mm256_fmadd_ps(av, bv, _mm256_loadu_ps(di + j)));
            }
            if (rem) {
                const __m256 bv = _mm256_maskload_ps(brow + n8, mask);
                _mm256_maskstore_ps(di + n8, mask,
                                    _mm256_fmadd_ps(av, bv,
                                                    _mm256_maskload_ps(di + n8, mask)));
            }
        }
    }
}

__attribute__((target("avx512f"))) void rank1_accumulate_avx512(
    float* dst, const float* a, const float* b, std::size_t k0, std::size_t k1,
    std::size_t i0, std::size_t i1, std::size_t m, std::size_t n) {
    const std::size_t n16 = n - n % 16;
    const std::size_t rem = n - n16;
    const __mmask16 mask = rem ? static_cast<__mmask16>((1u << rem) - 1u) : 0;
    std::size_t i = i0;
    for (; i + k_mr <= i1; i += k_mr) {
        float* d0 = dst + i * n;
        float* d1 = d0 + n;
        float* d2 = d1 + n;
        float* d3 = d2 + n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* arow = a + kk * m + i;
            const float* brow = b + kk * n;
            const __m512 av0 = _mm512_set1_ps(arow[0]);
            const __m512 av1 = _mm512_set1_ps(arow[1]);
            const __m512 av2 = _mm512_set1_ps(arow[2]);
            const __m512 av3 = _mm512_set1_ps(arow[3]);
            for (std::size_t j = 0; j < n16; j += 16) {
                const __m512 bv = _mm512_loadu_ps(brow + j);
                _mm512_storeu_ps(d0 + j, _mm512_fmadd_ps(av0, bv, _mm512_loadu_ps(d0 + j)));
                _mm512_storeu_ps(d1 + j, _mm512_fmadd_ps(av1, bv, _mm512_loadu_ps(d1 + j)));
                _mm512_storeu_ps(d2 + j, _mm512_fmadd_ps(av2, bv, _mm512_loadu_ps(d2 + j)));
                _mm512_storeu_ps(d3 + j, _mm512_fmadd_ps(av3, bv, _mm512_loadu_ps(d3 + j)));
            }
            if (rem) {
                const __m512 bv = _mm512_maskz_loadu_ps(mask, brow + n16);
                _mm512_mask_storeu_ps(
                    d0 + n16, mask,
                    _mm512_fmadd_ps(av0, bv, _mm512_maskz_loadu_ps(mask, d0 + n16)));
                _mm512_mask_storeu_ps(
                    d1 + n16, mask,
                    _mm512_fmadd_ps(av1, bv, _mm512_maskz_loadu_ps(mask, d1 + n16)));
                _mm512_mask_storeu_ps(
                    d2 + n16, mask,
                    _mm512_fmadd_ps(av2, bv, _mm512_maskz_loadu_ps(mask, d2 + n16)));
                _mm512_mask_storeu_ps(
                    d3 + n16, mask,
                    _mm512_fmadd_ps(av3, bv, _mm512_maskz_loadu_ps(mask, d3 + n16)));
            }
        }
    }
    for (; i < i1; ++i) {
        float* di = dst + i * n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* brow = b + kk * n;
            const __m512 av = _mm512_set1_ps(a[kk * m + i]);
            for (std::size_t j = 0; j < n16; j += 16) {
                const __m512 bv = _mm512_loadu_ps(brow + j);
                _mm512_storeu_ps(di + j, _mm512_fmadd_ps(av, bv, _mm512_loadu_ps(di + j)));
            }
            if (rem) {
                const __m512 bv = _mm512_maskz_loadu_ps(mask, brow + n16);
                _mm512_mask_storeu_ps(
                    di + n16, mask,
                    _mm512_fmadd_ps(av, bv, _mm512_maskz_loadu_ps(mask, di + n16)));
            }
        }
    }
}

#elif defined(FALLSENSE_SIMD_NEON)

void rank1_accumulate_neon(float* dst, const float* a, const float* b, std::size_t k0,
                           std::size_t k1, std::size_t i0, std::size_t i1, std::size_t m,
                           std::size_t n) {
    const std::size_t n4 = n - n % 4;
    std::size_t i = i0;
    for (; i + k_mr <= i1; i += k_mr) {
        float* d0 = dst + i * n;
        float* d1 = d0 + n;
        float* d2 = d1 + n;
        float* d3 = d2 + n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float* arow = a + kk * m + i;
            const float* brow = b + kk * n;
            const float32x4_t av0 = vdupq_n_f32(arow[0]);
            const float32x4_t av1 = vdupq_n_f32(arow[1]);
            const float32x4_t av2 = vdupq_n_f32(arow[2]);
            const float32x4_t av3 = vdupq_n_f32(arow[3]);
            for (std::size_t j = 0; j < n4; j += 4) {
                const float32x4_t bv = vld1q_f32(brow + j);
                vst1q_f32(d0 + j, vfmaq_f32(vld1q_f32(d0 + j), av0, bv));
                vst1q_f32(d1 + j, vfmaq_f32(vld1q_f32(d1 + j), av1, bv));
                vst1q_f32(d2 + j, vfmaq_f32(vld1q_f32(d2 + j), av2, bv));
                vst1q_f32(d3 + j, vfmaq_f32(vld1q_f32(d3 + j), av3, bv));
            }
            for (std::size_t j = n4; j < n; ++j) {
                const float bv = brow[j];
                d0[j] = std::fmaf(arow[0], bv, d0[j]);
                d1[j] = std::fmaf(arow[1], bv, d1[j]);
                d2[j] = std::fmaf(arow[2], bv, d2[j]);
                d3[j] = std::fmaf(arow[3], bv, d3[j]);
            }
        }
    }
    for (; i < i1; ++i) {
        float* di = dst + i * n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float av = a[kk * m + i];
            const float* brow = b + kk * n;
            const float32x4_t avv = vdupq_n_f32(av);
            for (std::size_t j = 0; j < n4; j += 4) {
                const float32x4_t bv = vld1q_f32(brow + j);
                vst1q_f32(di + j, vfmaq_f32(vld1q_f32(di + j), avv, bv));
            }
            for (std::size_t j = n4; j < n; ++j) di[j] = std::fmaf(av, brow[j], di[j]);
        }
    }
}

#endif  // FALLSENSE_SIMD_X86 / FALLSENSE_SIMD_NEON

using rank1_fn = void (*)(float*, const float*, const float*, std::size_t, std::size_t,
                          std::size_t, std::size_t, std::size_t, std::size_t);

rank1_fn rank1_kernel(simd_backend backend) {
#if defined(FALLSENSE_SIMD_X86)
    if (backend == simd_backend::avx512) return &rank1_accumulate_avx512;
    if (backend == simd_backend::avx2_fma) return &rank1_accumulate_avx2;
#elif defined(FALLSENSE_SIMD_NEON)
    if (backend == simd_backend::neon) return &rank1_accumulate_neon;
#else
    (void)backend;
#endif
    return &rank1_accumulate;
}

/// Per-thread partial buffer for gemm_tn_acc, grown to its high-water
/// mark once: steady-state training steps allocate nothing here.
std::vector<float>& tn_acc_scratch() {
    static thread_local std::vector<float> scratch;
    return scratch;
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
             float* c, bool accumulate) {
    if (m == 0 || n == 0) return;
    const gemm_ctx ctx{n,          k, a, b, c, /*bias=*/nullptr,
                       accumulate, fused_act::none, active_simd_backend()};
    gemm_nn_dispatch(m, ctx);
}

void gemm_nn_bias_act(std::size_t m, std::size_t n, std::size_t k, const float* a,
                      const float* b, const float* bias, fused_act act, float* c) {
    if (m == 0 || n == 0) return;
    const gemm_ctx ctx{n,     k, a, b, c, bias,
                       false, act, active_simd_backend()};
    gemm_nn_dispatch(m, ctx);
}

void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                 float* c) {
    if (m == 0 || n == 0 || k == 0) return;
    const rank1_fn rank1 = rank1_kernel(active_simd_backend());
    const std::size_t min_chunk = (k + k_max_reduce_chunks - 1) / k_max_reduce_chunks;
    const std::size_t chunk = std::max(k_reduce_grain, min_chunk);
    const std::size_t chunks = (k + chunk - 1) / chunk;
    if (chunks == 1) {
        rank1(c, a, b, 0, k, 0, m, m, n);
        return;
    }
    std::vector<float>& scratch = tn_acc_scratch();
    scratch.assign(chunks * m * n, 0.0f);
    // Single-reference capture keeps the dispatch closure inside the
    // std::function small-buffer store — steady-state training steps must
    // not heap-allocate here (tests/serve/alloc_test.cpp).
    struct tn_ctx {
        float* scratch;
        const float* a;
        const float* b;
        rank1_fn rank1;
        std::size_t m, n;
    };
    const tn_ctx ctx{scratch.data(), a, b, rank1, m, n};
    util::parallel_for_chunks(0, k, chunk,
                              [&ctx](std::size_t ci, std::size_t lo, std::size_t hi) {
                                  ctx.rank1(ctx.scratch + ci * ctx.m * ctx.n, ctx.a, ctx.b,
                                            lo, hi, 0, ctx.m, ctx.m, ctx.n);
                              });
    // Fixed chunk-index reduction order: bit-identical for any thread count.
    for (std::size_t ci = 0; ci < chunks; ++ci) {
        const float* part = scratch.data() + ci * m * n;
        for (std::size_t idx = 0; idx < m * n; ++idx) c[idx] += part[idx];
    }
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) {
    for (std::size_t i = 0; i < rows; ++i) {
        const float* s = src + i * cols;
        for (std::size_t j = 0; j < cols; ++j) dst[j * rows + i] = s[j];
    }
}

void im2col(const float* x, std::size_t batch, std::size_t time, std::size_t ch,
            std::size_t kernel, float* col) {
    // A valid stride-1 patch over [time, ch] is contiguous in memory, so
    // each col row is one memcpy.  Single-reference capture keeps the
    // dispatch std::function in its small-buffer store (inference path).
    struct im2col_ctx {
        const float* x;
        float* col;
        std::size_t time, ch, out_time, patch;
    };
    const im2col_ctx ctx{x, col, time, ch, time - kernel + 1, kernel * ch};
    util::parallel_for(0, batch * ctx.out_time, 512, [&ctx](std::size_t r) {
        const std::size_t n = r / ctx.out_time;
        const std::size_t t = r % ctx.out_time;
        std::memcpy(ctx.col + r * ctx.patch, ctx.x + (n * ctx.time + t) * ctx.ch,
                    ctx.patch * sizeof(float));
    });
}

void col2im_acc(const float* gcol, std::size_t batch, std::size_t time, std::size_t ch,
                std::size_t kernel, float* gx) {
    const std::size_t out_time = time - kernel + 1;
    const std::size_t patch = kernel * ch;
    // Patches overlap along time, so accumulation is serial per batch entry
    // (ascending t, matching the legacy loop order) and parallel across the
    // batch, whose slices are disjoint.  Single-reference capture keeps the
    // closure in the std::function small-buffer store (training hot path).
    struct col2im_ctx {
        const float* gcol;
        float* gx;
        std::size_t time, ch, out_time, patch;
    };
    const col2im_ctx ctx{gcol, gx, time, ch, out_time, patch};
    util::parallel_for(0, batch, 1, [&ctx](std::size_t n) {
        float* gxn = ctx.gx + n * ctx.time * ctx.ch;
        const float* gcn = ctx.gcol + n * ctx.out_time * ctx.patch;
        for (std::size_t t = 0; t < ctx.out_time; ++t) {
            const float* row = gcn + t * ctx.patch;
            float* dst = gxn + t * ctx.ch;
            for (std::size_t i = 0; i < ctx.patch; ++i) dst[i] += row[i];
        }
    });
}

namespace reference {

void conv1d_forward(const float* x, const float* w, const float* b, std::size_t batch,
                    std::size_t time, std::size_t in_ch, std::size_t out_ch,
                    std::size_t kernel, float* y) {
    const std::size_t out_time = time - kernel + 1;
    for (std::size_t n = 0; n < batch; ++n) {
        const float* xn = x + n * time * in_ch;
        float* yn = y + n * out_time * out_ch;
        for (std::size_t t = 0; t < out_time; ++t) {
            float* yt = yn + t * out_ch;
            for (std::size_t o = 0; o < out_ch; ++o) yt[o] = b[o];
            for (std::size_t k = 0; k < kernel; ++k) {
                const float* xt = xn + (t + k) * in_ch;
                const float* wk = w + k * in_ch * out_ch;
                for (std::size_t c = 0; c < in_ch; ++c) {
                    const float xv = xt[c];
                    const float* wc = wk + c * out_ch;
                    for (std::size_t o = 0; o < out_ch; ++o) yt[o] += xv * wc[o];
                }
            }
        }
    }
}

void conv1d_backward(const float* x, const float* w, const float* gy, std::size_t batch,
                     std::size_t time, std::size_t in_ch, std::size_t out_ch,
                     std::size_t kernel, float* gx, float* gw, float* gb) {
    const std::size_t out_time = time - kernel + 1;
    for (std::size_t n = 0; n < batch; ++n) {
        const float* xn = x + n * time * in_ch;
        const float* gyn = gy + n * out_time * out_ch;
        float* gxn = gx + n * time * in_ch;
        for (std::size_t t = 0; t < out_time; ++t) {
            const float* gyt = gyn + t * out_ch;
            for (std::size_t o = 0; o < out_ch; ++o) gb[o] += gyt[o];
            for (std::size_t k = 0; k < kernel; ++k) {
                const float* xt = xn + (t + k) * in_ch;
                float* gxt = gxn + (t + k) * in_ch;
                const float* wk = w + k * in_ch * out_ch;
                float* gwk = gw + k * in_ch * out_ch;
                for (std::size_t c = 0; c < in_ch; ++c) {
                    const float xv = xt[c];
                    const float* wc = wk + c * out_ch;
                    float* gwc = gwk + c * out_ch;
                    float acc = 0.0f;
                    for (std::size_t o = 0; o < out_ch; ++o) {
                        acc += wc[o] * gyt[o];
                        gwc[o] += xv * gyt[o];
                    }
                    gxt[c] += acc;
                }
            }
        }
    }
}

void dense_forward(const float* x, const float* w, const float* b, std::size_t batch,
                   std::size_t in, std::size_t out, float* y) {
    for (std::size_t n = 0; n < batch; ++n) {
        const float* xn = x + n * in;
        float* yn = y + n * out;
        for (std::size_t o = 0; o < out; ++o) yn[o] = b[o];
        for (std::size_t i = 0; i < in; ++i) {
            const float xi = xn[i];
            if (xi == 0.0f) continue;
            const float* wrow = w + i * out;
            for (std::size_t o = 0; o < out; ++o) yn[o] += xi * wrow[o];
        }
    }
}

void dense_backward(const float* x, const float* w, const float* gy, std::size_t batch,
                    std::size_t in, std::size_t out, float* gx, float* gw, float* gb) {
    for (std::size_t n = 0; n < batch; ++n) {
        const float* xn = x + n * in;
        const float* gyn = gy + n * out;
        float* gxn = gx + n * in;
        for (std::size_t o = 0; o < out; ++o) gb[o] += gyn[o];
        for (std::size_t i = 0; i < in; ++i) {
            const float* wrow = w + i * out;
            float* gwrow = gw + i * out;
            const float xi = xn[i];
            float acc = 0.0f;
            for (std::size_t o = 0; o < out; ++o) {
                acc += wrow[o] * gyn[o];
                gwrow[o] += xi * gyn[o];
            }
            gxn[i] = acc;
        }
    }
}

}  // namespace reference

}  // namespace fallsense::nn
