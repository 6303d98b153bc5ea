#include "nn/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/simd.hpp"
#include "util/check.hpp"
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

// gemm_tn_acc reduction chunking: at least this many reduction rows per
// chunk, at most this many chunks.  Both are shape-only constants so chunk
// boundaries — and therefore the floating-point summation tree — never
// depend on the thread count.
constexpr std::size_t k_reduce_grain = 256;
constexpr std::size_t k_max_reduce_chunks = 16;

// Full tiles per gemm_nn row task: the row grain is a multiple of the
// tier's tile height, so only the matrix's last rows form a short tile.
constexpr std::size_t k_tiles_per_task = 8;

// Windows per conv1d_direct task (dispatch granularity only).
constexpr std::size_t k_window_grain = 8;

/// How a tile walks its operands.  A element (row r, reduction step kk)
/// sits at a[r·lda + (kk / seg)·seg_stride + (kk % seg)·step]: one segment
/// with step 1 for gemm_nn, step m for the transposed A of gemm_tn_acc, and
/// for a direct conv one segment per kernel tap, seg_stride apart, over the
/// tap's in_ch contiguous channels.  B row kk is at b + kk·ldb.
struct tile_op {
    std::size_t k;
    std::size_t lda;
    std::size_t seg;
    std::size_t seg_stride;
    std::size_t step;
    std::size_t ldb;
    std::size_t ldc;
    bool accumulate;  ///< seed with the prior C instead of +0 (no bias)
    fused_act act;
};

/// A direct conv over a batch of windows: `rows` conv rows per window
/// (a multiple of `pool`), each window's A at x + w·x_window_stride and its
/// pooled output at y + w·y_window_stride.
struct conv_job {
    tile_op op;
    const float* x;
    std::size_t x_window_stride;
    const float* weight;
    const float* bias;
    float* y;
    std::size_t y_window_stride;
    std::size_t rows;
    std::size_t n;
    std::size_t pool;
};

/// One lane tier's entry points (gemm_tile.inl).
struct kernel_set {
    void (*gemm)(const tile_op& op, std::size_t rows, std::size_t n, const float* a,
                 const float* b, const float* bias, float* c);
    void (*conv)(const conv_job& job, std::size_t w0, std::size_t w1);
    std::size_t mr;  ///< rows per full tile
};

// Lane tiers.  Each declares `lanes`: the vector type, its width, the tile
// shape (mr rows by up to nv vectors, sized so mr·nv accumulators plus nv
// B vectors and one broadcast fit the register file) and the primitives.
// `max(a, b)` is `a > b ? a : b` per lane on every tier — so max(v, 0) is
// the relu layer's ternary and max(v, best) the pooling layer's compare,
// NaN and signed zeros included.

#if defined(FALLSENSE_SIMD_NEON)

/// NEON lanes shared by the reference and neon tiers, which differ only in
/// fmadd.  NEON has no masked load, so a partial vector goes through a
/// small stack copy.
struct neon_lanes {
    using vec = float32x4_t;
    using mask = std::size_t;  ///< active lanes of a partial vector
    static constexpr std::size_t width = 4, mr = 6, nv = 4;
    static mask tail_mask(std::size_t rem) { return rem; }
    static vec load(const float* p) { return vld1q_f32(p); }
    static vec load_part(const float* p, mask m) {
        float t[4] = {};
        for (std::size_t i = 0; i < m; ++i) t[i] = p[i];
        return vld1q_f32(t);
    }
    static void store(float* p, vec v) { vst1q_f32(p, v); }
    static void store_part(float* p, vec v, mask m) {
        float t[4];
        vst1q_f32(t, v);
        for (std::size_t i = 0; i < m; ++i) p[i] = t[i];
    }
    static vec set1(float x) { return vdupq_n_f32(x); }
    static vec zero() { return vdupq_n_f32(0.0f); }
    static vec max(vec a, vec b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
};

#endif

// The reference tier runs scalar mode: separate multiply and add, one
// rounding each, exactly `c += a * b` — the scalar-mode bits.
namespace ref_tier {

#if defined(FALLSENSE_SIMD_X86)

struct lanes {
    using vec = __m128;
    using mask = std::size_t;  ///< active lanes of a partial vector
    static constexpr std::size_t width = 4, mr = 6, nv = 2;
    static mask tail_mask(std::size_t rem) { return rem; }
    static vec load(const float* p) { return _mm_loadu_ps(p); }
    static vec load_part(const float* p, mask m) {
        float t[4] = {};
        for (std::size_t i = 0; i < m; ++i) t[i] = p[i];
        return _mm_loadu_ps(t);
    }
    static void store(float* p, vec v) { _mm_storeu_ps(p, v); }
    static void store_part(float* p, vec v, mask m) {
        float t[4];
        _mm_storeu_ps(t, v);
        for (std::size_t i = 0; i < m; ++i) p[i] = t[i];
    }
    static vec set1(float x) { return _mm_set1_ps(x); }
    static vec zero() { return _mm_setzero_ps(); }
    static vec fmadd(vec a, vec b, vec c) { return _mm_add_ps(c, _mm_mul_ps(a, b)); }
    static vec max(vec a, vec b) { return _mm_max_ps(a, b); }
};

#elif defined(FALLSENSE_SIMD_NEON)

struct lanes : neon_lanes {
    static vec fmadd(vec a, vec b, vec c) { return vaddq_f32(c, vmulq_f32(a, b)); }
};

#else

struct lanes {
    using vec = float;
    using mask = std::size_t;
    static constexpr std::size_t width = 1, mr = 4, nv = 4;
    static mask tail_mask(std::size_t rem) { return rem; }
    static vec load(const float* p) { return *p; }
    static vec load_part(const float* p, mask) { return *p; }
    static void store(float* p, vec v) { *p = v; }
    static void store_part(float* p, vec v, mask) { *p = v; }
    static vec set1(float x) { return x; }
    static vec zero() { return 0.0f; }
    static vec fmadd(vec a, vec b, vec c) { return c + a * b; }
    static vec max(vec a, vec b) { return a > b ? a : b; }
};

#endif

#include "nn/gemm_tile.inl"

}  // namespace ref_tier

// The vector tiers run native mode: one fused multiply-add per step.  All
// issue the same per-element sequence, so they agree bit for bit.
#if defined(FALLSENSE_SIMD_X86)

// Each x86 tier compiles its copy of the tile for its ISA.  GCC takes the
// target from the pragma; clang applies it as a function attribute.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2,fma"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#endif
namespace avx2_tier {

struct lanes {
    using vec = __m256;
    using mask = __m256i;
    static constexpr std::size_t width = 8, mr = 6, nv = 2;
    static mask tail_mask(std::size_t rem) {
        alignas(32) static constexpr std::int32_t k_lanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                                 0,  0,  0,  0,  0,  0,  0,  0};
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k_lanes + 8 - rem));
    }
    static vec load(const float* p) { return _mm256_loadu_ps(p); }
    static vec load_part(const float* p, mask m) { return _mm256_maskload_ps(p, m); }
    static void store(float* p, vec v) { _mm256_storeu_ps(p, v); }
    static void store_part(float* p, vec v, mask m) { _mm256_maskstore_ps(p, m, v); }
    static vec set1(float x) { return _mm256_set1_ps(x); }
    static vec zero() { return _mm256_setzero_ps(); }
    static vec fmadd(vec a, vec b, vec c) { return _mm256_fmadd_ps(a, b, c); }
    static vec max(vec a, vec b) { return _mm256_max_ps(a, b); }
};

#include "nn/gemm_tile.inl"

}  // namespace avx2_tier
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

// GCC 12's avx512fintrin.h seeds the pass-through operand of unmasked
// intrinsics from itself, which trips -Wuninitialized at every call site.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f"))), apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f")
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
namespace avx512_tier {

struct lanes {
    using vec = __m512;
    using mask = __mmask16;
    static constexpr std::size_t width = 16, mr = 6, nv = 4;
    static mask tail_mask(std::size_t rem) {
        return static_cast<mask>((1u << rem) - 1u);
    }
    static vec load(const float* p) { return _mm512_loadu_ps(p); }
    static vec load_part(const float* p, mask m) { return _mm512_maskz_loadu_ps(m, p); }
    static void store(float* p, vec v) { _mm512_storeu_ps(p, v); }
    static void store_part(float* p, vec v, mask m) { _mm512_mask_storeu_ps(p, m, v); }
    static vec set1(float x) { return _mm512_set1_ps(x); }
    static vec zero() { return _mm512_setzero_ps(); }
    static vec fmadd(vec a, vec b, vec c) { return _mm512_fmadd_ps(a, b, c); }
    static vec max(vec a, vec b) { return _mm512_max_ps(a, b); }
};

#include "nn/gemm_tile.inl"

}  // namespace avx512_tier
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif

#elif defined(FALLSENSE_SIMD_NEON)

namespace neon_tier {

struct lanes : neon_lanes {
    static vec fmadd(vec a, vec b, vec c) { return vfmaq_f32(c, a, b); }
};

#include "nn/gemm_tile.inl"

}  // namespace neon_tier

#endif  // FALLSENSE_SIMD_X86 / FALLSENSE_SIMD_NEON

const kernel_set& kernels(simd_backend backend) {
#if defined(FALLSENSE_SIMD_X86)
    if (backend == simd_backend::avx512) return avx512_tier::k_kernels;
    if (backend == simd_backend::avx2_fma) return avx2_tier::k_kernels;
#elif defined(FALLSENSE_SIMD_NEON)
    if (backend == simd_backend::neon) return neon_tier::k_kernels;
#else
    (void)backend;
#endif
    return ref_tier::k_kernels;
}

/// Everything one gemm call's row tasks need.  The parallel dispatch
/// lambda captures a single reference to this so the std::function stays
/// in its small-buffer store — no heap allocation on the inference path.
struct gemm_ctx {
    const kernel_set* kernels;  ///< resolved once per call, shared by every task
    tile_op op;
    std::size_t n;
    const float* a;
    const float* b;
    const float* bias;
    float* c;
};

void gemm_nn_dispatch(std::size_t m, const gemm_ctx& ctx) {
    util::parallel_for_chunks(0, m, k_tiles_per_task * ctx.kernels->mr,
                              [&ctx](std::size_t, std::size_t lo, std::size_t hi) {
                                  ctx.kernels->gemm(ctx.op, hi - lo, ctx.n,
                                                    ctx.a + lo * ctx.op.lda, ctx.b, ctx.bias,
                                                    ctx.c + lo * ctx.op.ldc);
                              });
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
    const tile_op op{k, k, k, 0, 1, n, n, accumulate, fused_act::none};
    const gemm_ctx ctx{&kernels(active_simd_backend()), op, n, a, b, nullptr, c};
    gemm_nn_dispatch(m, ctx);
}

void gemm_nn_bias_act(std::size_t m, std::size_t n, std::size_t k, const float* a,
                      const float* b, const float* bias, fused_act act, float* c) {
    if (m == 0 || n == 0) return;
    const tile_op op{k, k, k, 0, 1, n, n, false, act};
    const gemm_ctx ctx{&kernels(active_simd_backend()), op, n, a, b, bias, c};
    gemm_nn_dispatch(m, ctx);
}

void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                 float* c) {
    if (m == 0 || n == 0 || k == 0) return;
    const kernel_set& ks = kernels(active_simd_backend());
    const std::size_t min_chunk = (k + k_max_reduce_chunks - 1) / k_max_reduce_chunks;
    const std::size_t chunk = std::max(k_reduce_grain, min_chunk);
    const std::size_t chunks = (k + chunk - 1) / chunk;
    // Row i of the product is column i of A: tile rows 1 apart, reduction
    // steps m apart.
    if (chunks == 1) {
        const tile_op op{k, 1, k, 0, m, n, n, /*accumulate=*/true, fused_act::none};
        ks.gemm(op, m, n, a, b, nullptr, c);
        return;
    }
    std::vector<float>& scratch = tn_acc_scratch();
    scratch.resize(chunks * m * n);
    // Single-reference capture keeps the dispatch closure inside the
    // std::function small-buffer store — steady-state training steps must
    // not heap-allocate here (tests/serve/alloc_test.cpp).  Each chunk's
    // partial starts from +0, as the zero-filled partials always did.
    struct tn_ctx {
        const kernel_set* kernels;
        float* scratch;
        const float* a;
        const float* b;
        std::size_t m, n;
    };
    const tn_ctx ctx{&ks, scratch.data(), a, b, m, n};
    util::parallel_for_chunks(0, k, chunk,
                              [&ctx](std::size_t ci, std::size_t lo, std::size_t hi) {
                                  const std::size_t len = hi - lo;
                                  const tile_op op{len, 1, len, 0, ctx.m, ctx.n, ctx.n,
                                                   false, fused_act::none};
                                  ctx.kernels->gemm(op, ctx.m, ctx.n, ctx.a + lo * ctx.m,
                                                    ctx.b + lo * ctx.n, nullptr,
                                                    ctx.scratch + ci * ctx.m * ctx.n);
                              });
    // Fixed chunk-index reduction order: bit-identical for any thread count.
    for (std::size_t ci = 0; ci < chunks; ++ci) {
        const float* part = scratch.data() + ci * m * n;
        for (std::size_t idx = 0; idx < m * n; ++idx) c[idx] += part[idx];
    }
}

void conv1d_direct(std::size_t batch, const conv1d_direct_args& args) {
    FS_ARG_CHECK(args.time >= args.kernel && args.kernel > 0 && args.in_ch > 0 &&
                     args.in_ch <= args.x_row_stride,
                 "conv1d_direct: bad shape");
    FS_ARG_CHECK(args.pool == 1 || (args.pool == 2 && args.act != fused_act::sigmoid),
                 "conv1d_direct: pool must be 1, or 2 without a sigmoid epilogue");
    const std::size_t out_time = args.time - args.kernel + 1;
    const std::size_t rows = out_time / args.pool * args.pool;
    if (batch == 0 || args.out_ch == 0 || rows == 0) return;
    const conv_job job{
        tile_op{args.kernel * args.in_ch, args.x_row_stride, args.in_ch, args.x_row_stride, 1,
                args.out_ch, args.out_ch, false, args.act},
        args.x,
        args.x_window_stride,
        args.weight,
        args.bias,
        args.y,
        args.y_window_stride,
        rows,
        args.out_ch,
        args.pool};
    struct conv_ctx {
        const kernel_set* kernels;
        const conv_job* job;
    };
    const conv_ctx ctx{&kernels(active_simd_backend()), &job};
    util::parallel_for_chunks(0, batch, k_window_grain,
                              [&ctx](std::size_t, std::size_t lo, std::size_t hi) {
                                  ctx.kernels->conv(*ctx.job, lo, hi);
                              });
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
    // dispatch std::function in its small-buffer store (training hot path).
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
