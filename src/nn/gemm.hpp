// Row-major single-precision GEMM kernels, the direct conv1d used for
// inference, and the im2col/col2im lowering the conv1d training passes use.
//
// Every kernel here runs one register tile (nn/gemm_tile.inl), written once
// over a small lane-traits struct and compiled per tier: the reference tier
// (separate multiply and add) for scalar mode, and avx512 (16 lanes),
// avx2-fma (8) or neon (4) with fused multiply-add for native mode
// (nn/simd.hpp).  A tile holds an MR-row by NR-column block of C in
// registers for the whole reduction: it seeds from the bias, zero or the
// prior C, runs the ascending-k loop, applies ReLU (and a max-pool over row
// pairs for conv1d_direct) in registers and stores once.  Two properties
// are guaranteed:
//
//   * Every output element is a serial sum over the reduction dimension in
//     ascending index order (tiles split rows and columns, never the
//     reduction).  Scalar mode reproduces the legacy naive loops bit for
//     bit; native mode fuses each multiply-add, so it agrees with scalar to
//     rounding, not bits — but every vector tier issues the identical
//     per-element fmadd sequence, so native results are bit-identical
//     ACROSS backends.  Within one mode, results are independent of thread
//     count, tile shape, and where a row sits in the batch.
//   * The gradient reduction `gemm_tn_acc` splits the reduction dimension
//     into fixed-size chunks (a function of the problem shape only), has
//     each chunk produce a partial in private scratch, and adds partials in
//     chunk-index order — bit-identical results for any thread count.
//
// Layouts match the layers: conv1d weights are [kernel, in_ch, out_ch]
// (flattened [kernel*in_ch, out_ch]), dense weights [in, out], activations
// row-major with the batch outermost.  Tiles read these layouts directly;
// there is no packed weight copy.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fallsense::nn {

/// Activation a fused GEMM epilogue applies while the output tile is hot.
/// `relu` and `sigmoid` reproduce the standalone activation layers'
/// element operations exactly: relu is `x > 0 ? x : 0` on every tier (a
/// lane max with that exact semantics, NaN and -0 included); sigmoid
/// always runs sigmoid_scalar per element, in every mode, so fusing it
/// never changes a probability.
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
/// the file comment.  Each chunk runs the same register tile as gemm_nn with
/// A read transposed in place (tile rows 1 apart, reduction steps m apart):
/// scalar mode reproduces the legacy gradient bits, native mode fuses the
/// multiply-adds with the same chunk boundaries and reduction order, so
/// gradients are bit-identical across thread counts per backend (and
/// across vector backends).  Reuses a thread-local partial buffer: steady-state training
/// steps perform no allocation here.
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                 float* c);

/// One direct, valid-padding, stride-1 conv1d over a batch of windows,
/// with its fused epilogue — the inference path's conv (training lowers
/// through im2col instead, whose columns backward needs).  A is read in
/// place: `x` points at window 0, time 0, the conv's first input channel,
/// so a conv over a channel group of a wider window needs no slice copy.
struct conv1d_direct_args {
    const float* x;
    std::size_t x_window_stride;  ///< floats between consecutive windows
    std::size_t x_row_stride;     ///< floats between time steps (the window's channels)
    std::size_t time;             ///< time steps per window
    std::size_t in_ch;            ///< channels the conv reads per time step
    std::size_t kernel;
    std::size_t out_ch;
    const float* weight;          ///< [kernel·in_ch, out_ch]
    const float* bias;            ///< [out_ch]
    fused_act act;                ///< relu or none with pool 2; any with pool 1
    std::size_t pool;             ///< 1, or 2: max over row pairs, odd last row dropped
    float* y;                     ///< window 0's [out_time / pool, out_ch] output
    std::size_t y_window_stride;  ///< floats between windows' outputs
};

/// Per element exactly conv1d::forward, then the activation layer, then
/// maxpool1d (pool 2 folds rows t and t+1 as `v > best ? v : best`), so
/// the result is bit-identical to running those layers one by one.
/// Parallel over windows.
void conv1d_direct(std::size_t batch, const conv1d_direct_args& args);

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
