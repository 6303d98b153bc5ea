// Kernels of the batched int8 executor behind quant::quantized_cnn.
//
// Every int8 layer of the deployment graph — each branch's conv1d and each
// trunk dense layer — runs as one GEMM with a requantizing epilogue:
//
//   C[m x n] = clamp(requant(bias + A[m x k] · W[k x n]))
//
// A holds activations already offset by their zero point, (x − zp) as
// int16 (|x − zp| <= 255), row r at `a + r·lda`.  A dense row is one
// window's input vector; a conv row is the contiguous kernel×cin patch of
// the branch's input at stride cin (valid-padding im2col without the copy).
// W is the layer's [k, n] int8 weight.  The epilogue is TFLite's
// fixed-point requantize plus the clamp (fused ReLU raises its floor to
// the output zero point), and stores (q − zp_out) as int16: exactly the A
// operand the next layer reads, so activations stay offset int16 from the
// conv output to the logit.
//
// Int32 accumulation is exact (quantized_cnn rejects any layer whose
// worst-case sum could overflow), so every tier computes the same bits:
//
//   scalar  — the reference: serial loops over the original int8 weights
//             and quant::requantize per output.
//   avx2,   — one register tile, GEMM loop and quantizer loop
//   avx512    (q8_tile.inl), compiled once per tier over that tier's
//             `lanes`: the ISA primitives and the tile shape, 4 rows x 2
//             vectors of 8 int32 (avx2) or 4 rows x 4 vectors of 16
//             (avx512, needs AVX-512BW).  The tile seeds each accumulator
//             with the bias, adds one madd_epi16 per input pair, and
//             stores once through the vectorized requantize.
//
// aarch64 runs the scalar tier.  The vector tiers read the layer's packed
// copy (`q8_layer`): weights widened to int16 and interleaved by input
// pair once, at model construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/simd.hpp"
#include "quant/qparams.hpp"

namespace fallsense::quant {

/// Host packing of one int8 layer: everything the GEMM needs besides the
/// original weights.
struct q8_layer {
    std::size_t k = 0;      ///< reduction length (conv taps or input features)
    std::size_t n = 0;      ///< outputs
    std::size_t n_pad = 0;  ///< n rounded up to 16: the packed row width
    /// [ceil(k/2)][n_pad][2]: entry (p, o) is the pair (w[2p][o], w[2p+1][o]),
    /// zero past k and past n.
    std::vector<std::int16_t> weight;
    std::vector<std::int32_t> bias;  ///< [n_pad], zero past n
    quantized_multiplier requant;
    std::int32_t zero_point = 0;  ///< output zero point
    std::int32_t clamp_min = -128;  ///< output floor before the offset (ReLU: zero_point)
};

/// Pack a [k, n] int8 weight and its int32 bias.
q8_layer pack_q8_layer(std::span<const std::int8_t> weight, std::span<const std::int32_t> bias,
                       std::size_t k, std::size_t n, const quantized_multiplier& requant,
                       std::int32_t zero_point, std::int32_t clamp_min);

/// Columns a GEMM stores per row: n rounded up to even.  The padding
/// column comes out 0 (zero weights and bias), so a row of C is a
/// complete A row of the next layer.
constexpr std::size_t q8_row_width(std::size_t n) { return n + (n & 1); }

/// One GEMM call.  Every A row must have q8_row_width(k) readable values
/// (the vector tiers read the padding column; its weight is zero).
struct q8_gemm_args {
    std::size_t m = 0;
    const std::int16_t* a = nullptr;
    std::size_t lda = 0;
    const std::int8_t* weight = nullptr;  ///< original [k, n] weights (scalar tier)
    const q8_layer* layer = nullptr;
    std::int16_t* c = nullptr;  ///< row r at c + r·ldc, q8_row_width(n) values
    std::size_t ldc = 0;
};

/// The kernels of one tier.
struct q8_kernels {
    /// out[i] = quantize_value(real[i], qp), bit for bit, NaN and
    /// infinities included.
    void (*quantize)(const float* real, std::size_t count, const qparams& qp, std::int8_t* out);
    void (*gemm)(const q8_gemm_args& args);
};

/// Kernels for `backend` (aarch64's neon resolves to the scalar tier).
const q8_kernels& q8_kernels_for(nn::simd_backend backend);

}  // namespace fallsense::quant
