#include "quant/qparams.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "nn/simd.hpp"
#include "quant/q8_kernels.hpp"

namespace fallsense::quant {
namespace {

TEST(QparamsTest, ActivationRangeCovered) {
    const qparams qp = choose_activation_qparams(-2.0f, 6.0f);
    // Both endpoints must be representable within one step.
    const float lo = dequantize_value(-128, qp);
    const float hi = dequantize_value(127, qp);
    EXPECT_LE(lo, -2.0f + qp.scale);
    EXPECT_GE(hi, 6.0f - qp.scale);
}

TEST(QparamsTest, ZeroIsExactlyRepresentable) {
    for (const auto& [lo, hi] : {std::pair{-3.0f, 5.0f}, {0.5f, 9.0f}, {-7.0f, -1.0f}}) {
        const qparams qp = choose_activation_qparams(lo, hi);
        const std::int8_t zq = quantize_value(0.0f, qp);
        EXPECT_FLOAT_EQ(dequantize_value(zq, qp), 0.0f);
    }
}

TEST(QparamsTest, DegenerateRangeHandled) {
    const qparams qp = choose_activation_qparams(0.0f, 0.0f);
    EXPECT_GT(qp.scale, 0.0f);
    EXPECT_THROW(choose_activation_qparams(1.0f, -1.0f), std::invalid_argument);
}

TEST(QparamsTest, WeightQuantizationSymmetric) {
    const qparams qp = choose_weight_qparams(0.5f);
    EXPECT_EQ(qp.zero_point, 0);
    EXPECT_EQ(quantize_value(0.5f, qp), 127);
    EXPECT_EQ(quantize_value(-0.5f, qp), -127);
}

TEST(QparamsTest, QuantizeDequantizeRoundTripError) {
    const qparams qp = choose_activation_qparams(-1.0f, 1.0f);
    for (float v = -1.0f; v <= 1.0f; v += 0.05f) {
        const float back = dequantize_value(quantize_value(v, qp), qp);
        EXPECT_NEAR(back, v, qp.scale * 0.51f);
    }
}

TEST(QparamsTest, QuantizeClampsOutOfRange) {
    const qparams qp = choose_activation_qparams(-1.0f, 1.0f);
    EXPECT_EQ(quantize_value(100.0f, qp), 127);
    EXPECT_EQ(quantize_value(-100.0f, qp), -128);
}

TEST(QparamsTest, QuantizeSaturatesNonFiniteInputs) {
    // Defined for every float: infinities saturate by sign, NaN quantizes
    // like -inf, and the zero point never wraps a saturated value.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const std::int32_t zp : {-128, -5, 0, 5, 127}) {
        const qparams qp{0.01f, zp};
        EXPECT_EQ(quantize_value(inf, qp), 127) << zp;
        EXPECT_EQ(quantize_value(1e30f, qp), 127) << zp;
        EXPECT_EQ(quantize_value(-inf, qp), -128) << zp;
        EXPECT_EQ(quantize_value(-1e30f, qp), -128) << zp;
        EXPECT_EQ(quantize_value(nan, qp), -128) << zp;
        EXPECT_EQ(quantize_value(-0.0f, qp), zp) << zp;
    }
}

TEST(QparamsTest, VectorQuantizerMatchesScalarOnEdgeInputs) {
    // The executor's vector input pass (q8_kernels::quantize) must reproduce
    // quantize_value bit for bit on every tier: exact rounding ties, signed
    // zero, subnormals, both saturation edges and non-finite inputs.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float sub = std::numeric_limits<float>::denorm_min();
    for (const qparams qp : {qparams{0.25f, 0}, qparams{0.25f, -3}, qparams{0.1f, 17},
                             qparams{1.0f, -128}, qparams{1.0f, 127}}) {
        std::vector<float> values;
        for (const float tie : {0.5f, 1.5f, 2.5f}) {
            values.push_back(tie * qp.scale);
            values.push_back(-tie * qp.scale);
        }
        for (const float v : {0.0f, -0.0f, sub, -sub, 1e-40f, -1e-40f, 1e30f, -1e30f, inf,
                              -inf, nan, -nan}) {
            values.push_back(v);
        }
        // One step either side of both saturation edges.
        for (const float q : {-129.0f, -128.0f, -127.0f, 126.0f, 127.0f, 128.0f}) {
            values.push_back((q - static_cast<float>(qp.zero_point)) * qp.scale);
            values.push_back((q - static_cast<float>(qp.zero_point) + 0.5f) * qp.scale);
        }
        // Enough copies that every edge input lands in the vector body and
        // in the scalar tail at every lane position.
        std::vector<float> input;
        for (std::size_t rep = 0; rep < 17; ++rep) {
            input.insert(input.end(), values.begin() + static_cast<std::ptrdiff_t>(rep % 3),
                         values.end());
        }
        std::vector<std::int8_t> expected(input.size());
        for (std::size_t i = 0; i < input.size(); ++i) expected[i] = quantize_value(input[i], qp);

        for (const nn::simd_backend backend : nn::available_simd_backends()) {
            std::vector<std::int8_t> got(input.size());
            q8_kernels_for(backend).quantize(input.data(), input.size(), qp, got.data());
            for (std::size_t i = 0; i < input.size(); ++i) {
                ASSERT_EQ(got[i], expected[i])
                    << nn::simd_backend_label(backend) << " input " << input[i] << " scale "
                    << qp.scale << " zp " << qp.zero_point;
            }
        }
    }
}

TEST(MultiplierTest, EncodesSubUnitValues) {
    for (const double m : {0.5, 0.25, 0.1, 0.0123, 0.9999}) {
        const quantized_multiplier qm = encode_multiplier(m);
        EXPECT_GE(qm.mantissa, 1 << 30);
        EXPECT_GE(qm.right_shift, 0);
        // Reconstruct: mantissa * 2^-31 * 2^-shift ~ m.
        const double reconstructed =
            static_cast<double>(qm.mantissa) / (1ULL << 31) / (1ULL << qm.right_shift);
        EXPECT_NEAR(reconstructed, m, m * 1e-6);
    }
}

TEST(MultiplierTest, RejectsOutOfDomain) {
    EXPECT_THROW(encode_multiplier(0.0), std::invalid_argument);
    EXPECT_THROW(encode_multiplier(1.0), std::invalid_argument);
    EXPECT_THROW(encode_multiplier(-0.5), std::invalid_argument);
}

TEST(MultiplierTest, FixedPointMatchesFloatWithin1) {
    const quantized_multiplier qm = encode_multiplier(0.0037);
    for (const std::int32_t acc : {0, 1, -1, 100, -100, 12345, -54321, 1'000'000}) {
        const std::int32_t fixed = multiply_by_quantized_multiplier(acc, qm);
        const double exact = 0.0037 * acc;
        EXPECT_NEAR(static_cast<double>(fixed), exact, 1.0) << acc;
    }
}

TEST(MultiplierTest, RoundsToNearest) {
    const quantized_multiplier half = encode_multiplier(0.5);
    EXPECT_EQ(multiply_by_quantized_multiplier(7, half), 4);   // 3.5 -> 4
    EXPECT_EQ(multiply_by_quantized_multiplier(-7, half), -4); // -3.5 -> -4 (away from 0)
    EXPECT_EQ(multiply_by_quantized_multiplier(6, half), 3);
}

TEST(RequantizeTest, ClampsAndAppliesZeroPoint) {
    const quantized_multiplier qm = encode_multiplier(0.5);
    EXPECT_EQ(requantize(10, qm, 5), 10);          // 5 + 5
    EXPECT_EQ(requantize(1000, qm, 0), 127);       // clamp high
    EXPECT_EQ(requantize(-1000, qm, 0), -128);     // clamp low
    // Fused ReLU: clamp_min at zero point.
    EXPECT_EQ(requantize(-50, qm, -10, -10), -10);
}

}  // namespace
}  // namespace fallsense::quant
