// Row-major single-precision GEMM micro-kernels and the im2col/col2im
// lowering that turns conv1d into matrix multiplication.
//
// The training layers (conv1d, dense) route their forward and backward
// passes through these kernels.  Two properties are guaranteed:
//
//   * Every output element is a serial sum over the reduction dimension in
//     ascending index order (register blocking tiles rows x columns, never
//     the reduction), so forward results are bit-identical to the legacy
//     naive loops.
//   * The gradient reduction `gemm_tn_acc` splits the reduction dimension
//     into fixed-size chunks (a function of the problem shape only), has
//     each chunk produce a partial in private scratch, and adds partials in
//     chunk-index order — bit-identical results for any thread count.
//
// Layouts match the layers: conv1d weights are [kernel, in_ch, out_ch]
// (flattened [kernel*in_ch, out_ch]), dense weights [in, out], activations
// row-major with the batch outermost.
//
// gemm_nn and gemm_nn_bias_act dispatch per call between the scalar loops
// and vectorized row kernels (nn/simd.hpp: avx512 / avx2-fma / neon).
// Scalar mode reproduces the legacy results bit for bit; native mode keeps
// the same serial ascending-k order per element but fuses multiply-add
// (FMA), so float results agree to rounding, not bits.  Every vector
// backend issues the identical per-(row, j) fmadd sequence, so native
// results are bit-identical ACROSS backends.  Within one mode, results
// stay independent of thread count and of where a row sits in the batch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fallsense::nn {

/// Activation a fused GEMM epilogue applies while the output tile is hot.
/// `relu` and `sigmoid` reproduce the standalone activation layers'
/// element operations exactly: relu is `x > 0 ? x : 0` in scalar mode and
/// max(x, 0) in vector mode (identical on all non-NaN inputs and across
/// vector backends); sigmoid always runs sigmoid_scalar per element, in
/// every mode, so fusing it never changes a probability.
enum class fused_act : std::uint8_t {
    none,
    relu,
    sigmoid,
};

const char* fused_act_name(fused_act act);

/// C[m x n] = A[m x k] · B[k x n], plus C's prior contents when
/// `accumulate`.  Parallel over row blocks; each element is a serial
/// ascending-k sum seeded with the prior C value.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
             float* c, bool accumulate);

/// Fused-epilogue GEMM: C[m x n] = act(A[m x k] · B[k x n] + bias[n]),
/// with the bias broadcast across rows and the activation applied while
/// each row block is still hot.  Per element this is exactly the unfused
/// sequence — bias seed, ascending-k accumulation, activation — executed
/// by the row task that owns the block, so scalar-mode results are
/// bit-identical to (bias prefill; gemm_nn accumulate; activation pass)
/// and native-mode results are bit-identical to the unfused native path.
void gemm_nn_bias_act(std::size_t m, std::size_t n, std::size_t k, const float* a,
                      const float* b, const float* bias, fused_act act, float* c);

/// C[m x n] += A[k x m]ᵀ · B[k x n] — the weight-gradient product (reduction
/// over the batch·time dimension k).  Deterministic chunked reduction; see
/// the file comment.  Dispatches like gemm_nn: scalar mode reproduces the
/// legacy gradient bits, native mode uses per-backend fmadd rank-1 updates
/// with the same chunk boundaries and reduction order, so gradients are
/// bit-identical across thread counts per backend (and across vector
/// backends).  Reuses a thread-local partial buffer: steady-state training
/// steps perform no allocation here.
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                 float* c);

/// Transpose src[rows x cols] into dst[cols x rows].
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst);

/// Valid-padding stride-1 im2col for [batch, time, ch] inputs: row
/// (n·out_time + t) of `col` is the contiguous slice x[n, t .. t+kernel-1, :]
/// of length kernel·ch.  `col` must hold batch·out_time·kernel·ch floats.
void im2col(const float* x, std::size_t batch, std::size_t time, std::size_t ch,
            std::size_t kernel, float* col);

/// Scatter-accumulate the inverse of im2col: gx[n, t+k, c] += gcol row
/// segments.  gx must be zero-initialized (or hold a prior gradient);
/// parallel over the batch, serial over overlapping time steps.
void col2im_acc(const float* gcol, std::size_t batch, std::size_t time, std::size_t ch,
                std::size_t kernel, float* gx);

/// Reference kernels: the pre-GEMM naive loops, kept verbatim as the ground
/// truth for tests (1e-5 agreement) and the baseline for the GEMM-vs-naive
/// micro-benchmarks.  Single-threaded by construction.
namespace reference {

/// y[batch, out_time, out_ch] from x[batch, time, in_ch], w[kernel, in_ch,
/// out_ch], b[out_ch]; out_time = time - kernel + 1.
void conv1d_forward(const float* x, const float* w, const float* b, std::size_t batch,
                    std::size_t time, std::size_t in_ch, std::size_t out_ch,
                    std::size_t kernel, float* y);

/// Accumulates gw/gb and writes gx (gx must be zero on entry).
void conv1d_backward(const float* x, const float* w, const float* gy, std::size_t batch,
                     std::size_t time, std::size_t in_ch, std::size_t out_ch,
                     std::size_t kernel, float* gx, float* gw, float* gb);

/// y[batch, out] from x[batch, in], w[in, out], b[out].
void dense_forward(const float* x, const float* w, const float* b, std::size_t batch,
                   std::size_t in, std::size_t out, float* y);

/// Accumulates gw/gb and writes gx.
void dense_backward(const float* x, const float* w, const float* gy, std::size_t batch,
                    std::size_t in, std::size_t out, float* gx, float* gw, float* gb);

}  // namespace reference

}  // namespace fallsense::nn
