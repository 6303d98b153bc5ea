#include "quant/qparams.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace fallsense::quant {

qparams choose_activation_qparams(float min_value, float max_value) {
    FS_ARG_CHECK(min_value <= max_value, "inverted activation range");
    // Widen to include zero so padding/ReLU zeros are exact.
    min_value = std::min(min_value, 0.0f);
    max_value = std::max(max_value, 0.0f);
    if (max_value == min_value) max_value = min_value + 1e-6f;
    qparams qp;
    qp.scale = (max_value - min_value) / 255.0f;
    const double zp = -128.0 - static_cast<double>(min_value) / qp.scale;
    qp.zero_point = static_cast<std::int32_t>(
        std::clamp(std::lround(zp), long{-128}, long{127}));
    return qp;
}

qparams choose_weight_qparams(float max_abs) {
    FS_ARG_CHECK(max_abs >= 0.0f, "negative weight magnitude");
    if (max_abs == 0.0f) max_abs = 1e-6f;
    qparams qp;
    qp.scale = max_abs / 127.0f;
    qp.zero_point = 0;
    return qp;
}

std::int8_t quantize_value(float real, const qparams& qp) {
    // lround is unspecified for NaN and for values beyond the range of long,
    // so saturate first: every input gets one defined code.
    constexpr double k_sat = 2147483648.0;  // 2^31
    double scaled = static_cast<double>(real) / qp.scale;
    if (std::isnan(scaled)) scaled = -k_sat;
    const long q = std::lround(std::clamp(scaled, -k_sat, k_sat)) + qp.zero_point;
    return static_cast<std::int8_t>(std::clamp(q, long{-128}, long{127}));
}

float dequantize_value(std::int8_t q, const qparams& qp) {
    return qp.scale * static_cast<float>(static_cast<std::int32_t>(q) - qp.zero_point);
}

quantized_multiplier encode_multiplier(double real_multiplier) {
    FS_ARG_CHECK(real_multiplier > 0.0, "multiplier must be positive");
    FS_ARG_CHECK(real_multiplier < 1.0, "multiplier must be below 1 for these layers");
    quantized_multiplier out;
    int exponent = 0;
    const double mantissa = std::frexp(real_multiplier, &exponent);  // in [0.5, 1)
    auto fixed = static_cast<std::int64_t>(std::llround(mantissa * (1LL << 31)));
    if (fixed == (1LL << 31)) {  // rounding overflow: 1.0 * 2^exponent
        fixed /= 2;
        ++exponent;
    }
    out.mantissa = static_cast<std::int32_t>(fixed);
    out.right_shift = -exponent;  // exponent <= 0 since multiplier < 1
    FS_CHECK(out.right_shift >= 0, "unexpected left shift for sub-unit multiplier");
    return out;
}

std::int32_t multiply_by_quantized_multiplier(std::int32_t acc,
                                              const quantized_multiplier& mult) {
    // Saturating doubling high multiply (TFLite SaturatingRoundingDoublingHighMul)
    // followed by rounding right shift.
    const std::int64_t product = static_cast<std::int64_t>(acc) * mult.mantissa;
    const std::int64_t nudge = (product >= 0) ? (1LL << 30) : (1 - (1LL << 30));
    std::int32_t high = static_cast<std::int32_t>((product + nudge) >> 31);
    const int shift = mult.right_shift;
    if (shift == 0) return high;
    const std::int32_t mask = static_cast<std::int32_t>((1LL << shift) - 1);
    const std::int32_t remainder = high & mask;
    std::int32_t result = high >> shift;
    // Round half away from zero.
    std::int32_t threshold = (mask >> 1) + ((high < 0) ? 1 : 0);
    if (remainder > threshold) ++result;
    return result;
}

std::int8_t requantize(std::int32_t acc, const quantized_multiplier& mult,
                       std::int32_t output_zero_point, std::int32_t clamp_min,
                       std::int32_t clamp_max) {
    // Offset in 64 bits: a result near the int32 limit must clamp, not wrap.
    const std::int64_t scaled =
        static_cast<std::int64_t>(multiply_by_quantized_multiplier(acc, mult)) +
        output_zero_point;
    return static_cast<std::int8_t>(std::clamp<std::int64_t>(scaled, clamp_min, clamp_max));
}

}  // namespace fallsense::quant
