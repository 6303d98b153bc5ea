// Affine quantization parameters and scalar quantize/dequantize helpers.
//
// Scheme (matching TFLite's reference int8 kernels, which is what
// STM32Cube.AI / TFLite-Micro run on the paper's STM32F722):
//   real = scale * (q - zero_point)
// Activations: asymmetric int8 calibrated from observed min/max.
// Weights: symmetric int8 (zero_point = 0).
// Accumulators: int32; bias stored as int32 with scale = s_in * s_w.
// Requantization: 64-bit fixed-point multiply (quantized multiplier +
// right shift) with round-to-nearest, exactly TFLite's
// MultiplyByQuantizedMultiplier.
#pragma once

#include <cstdint>

namespace fallsense::quant {

struct qparams {
    float scale = 1.0f;
    std::int32_t zero_point = 0;
};

/// Asymmetric int8 params covering [min_value, max_value] (range is widened
/// to include 0 so zero is exactly representable).
qparams choose_activation_qparams(float min_value, float max_value);

/// Symmetric int8 params for weights with |w| <= max_abs.
qparams choose_weight_qparams(float max_abs);

/// round(real / scale) + zero_point, rounded half away from zero and
/// clamped to int8.  Defined for every input: ±inf and any |real / scale|
/// past 2^31 saturate, and NaN quantizes like −inf (to −128 for every
/// valid zero point).  The int8 executor's vector input pass
/// (quant/q8_kernels.hpp) reproduces it bit for bit.
std::int8_t quantize_value(float real, const qparams& qp);
float dequantize_value(std::int8_t q, const qparams& qp);

/// Fixed-point representation of a positive real multiplier < 1:
/// multiplier ~= m_fixed * 2^-31 * 2^-shift with m_fixed in [2^30, 2^31).
struct quantized_multiplier {
    std::int32_t mantissa = 0;
    int right_shift = 0;  ///< total right shift applied after the fixed mul
};

/// Encode `real_multiplier` (must be in (0, 1)).
quantized_multiplier encode_multiplier(double real_multiplier);

/// acc * multiplier with round-to-nearest — TFLite semantics.
std::int32_t multiply_by_quantized_multiplier(std::int32_t acc,
                                              const quantized_multiplier& mult);

/// Requantize an int32 accumulator to int8: apply the multiplier, add the
/// output zero point, clamp to [clamp_min, clamp_max] (fused ReLU raises
/// clamp_min to the zero point).
std::int8_t requantize(std::int32_t acc, const quantized_multiplier& mult,
                       std::int32_t output_zero_point, std::int32_t clamp_min = -128,
                       std::int32_t clamp_max = 127);

}  // namespace fallsense::quant
