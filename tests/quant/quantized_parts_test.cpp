// Validation tests for the firmware-loading constructor of quantized_cnn:
// a flashed image must be structurally consistent before it is allowed to
// execute.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/models.hpp"
#include "mcu/deployment.hpp"
#include "nn/activations.hpp"
#include "nn/simd.hpp"
#include "quant/quantized_cnn.hpp"
#include "util/rng.hpp"

namespace fallsense::quant {
namespace {

quantized_cnn make_model(std::uint64_t seed) {
    auto net = core::build_fallsense_cnn(20, seed);
    const cnn_spec spec = extract_cnn_spec(*net, 20);
    util::rng gen(seed + 1);
    nn::tensor calibration({16, 20, 9});
    for (float& v : calibration.values()) v = static_cast<float>(gen.normal());
    return quantized_cnn(spec, calibration);
}

/// Round-trip through the blob to obtain mutable parts.
quantized_cnn_parts make_parts(std::uint64_t seed) {
    const quantized_cnn model = make_model(seed);
    quantized_cnn_parts parts;
    parts.time_steps = model.time_steps();
    parts.input_q = model.input_q();
    parts.concat_q = model.concat_q();
    parts.branches.assign(model.branches().begin(), model.branches().end());
    parts.trunk.assign(model.trunk().begin(), model.trunk().end());
    return parts;
}

TEST(QuantizedPartsTest, ValidPartsConstruct) {
    EXPECT_NO_THROW(quantized_cnn{make_parts(1)});
}

TEST(QuantizedPartsTest, PartsModelMatchesOriginal) {
    const quantized_cnn original = make_model(2);
    const quantized_cnn rebuilt{make_parts(2)};
    util::rng gen(9);
    nn::tensor seg({20, 9});
    for (float& v : seg.values()) v = static_cast<float>(gen.normal());
    EXPECT_FLOAT_EQ(rebuilt.predict_logit(seg.values()),
                    original.predict_logit(seg.values()));
}

TEST(QuantizedPartsTest, RejectsEmptyBranches) {
    quantized_cnn_parts parts = make_parts(3);
    parts.branches.clear();
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsZeroTimeSteps) {
    quantized_cnn_parts parts = make_parts(4);
    parts.time_steps = 0;
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsWeightSizeMismatch) {
    quantized_cnn_parts parts = make_parts(5);
    parts.branches[0].weight.pop_back();
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsBrokenTrunkChain) {
    quantized_cnn_parts parts = make_parts(6);
    parts.trunk[1].in_features += 1;
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsMultiLogitOutput) {
    quantized_cnn_parts parts = make_parts(7);
    parts.trunk.pop_back();  // now ends with the 32-wide hidden layer
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsKernelLongerThanWindow) {
    quantized_cnn_parts parts = make_parts(8);
    parts.time_steps = 2;  // kernel is 3
    EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument);
}

TEST(QuantizedPartsTest, RejectsUnexecutableQuantization) {
    // Values a corrupt or hostile blob can carry that would break the int8
    // arithmetic: shifts by the type width, zero points the int16 (x - zp)
    // operands cannot hold, division by a zero or non-finite scale,
    // mantissas outside the fixed-point domain, and accumulators that
    // could overflow int32.
    const auto rejects = [](const char* what, auto mutate) {
        quantized_cnn_parts parts = make_parts(9);
        mutate(parts);
        EXPECT_THROW(quantized_cnn{std::move(parts)}, std::invalid_argument) << what;
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    rejects("shift 32", [](quantized_cnn_parts& p) { p.branches[0].requant.right_shift = 32; });
    rejects("shift -1", [](quantized_cnn_parts& p) { p.trunk[1].requant.right_shift = -1; });
    rejects("small mantissa",
            [](quantized_cnn_parts& p) { p.trunk[0].requant.mantissa = (1 << 30) - 1; });
    rejects("negative mantissa",
            [](quantized_cnn_parts& p) { p.branches[2].requant.mantissa = -(1 << 30); });
    rejects("input zp 128", [](quantized_cnn_parts& p) { p.input_q.zero_point = 128; });
    rejects("concat zp -129", [](quantized_cnn_parts& p) { p.concat_q.zero_point = -129; });
    rejects("output zp 200", [](quantized_cnn_parts& p) { p.trunk[0].output_q.zero_point = 200; });
    rejects("zero scale", [](quantized_cnn_parts& p) { p.input_q.scale = 0.0f; });
    rejects("negative scale", [](quantized_cnn_parts& p) { p.concat_q.scale = -0.5f; });
    rejects("nan scale", [nan](quantized_cnn_parts& p) { p.trunk[2].output_q.scale = nan; });
    rejects("inf scale", [inf](quantized_cnn_parts& p) { p.branches[1].weight_q.scale = inf; });
    rejects("asymmetric weights",
            [](quantized_cnn_parts& p) { p.trunk[1].weight_q.zero_point = 3; });
    rejects("bias near int32 max", [](quantized_cnn_parts& p) {
        p.trunk[0].bias[0] = std::numeric_limits<std::int32_t>::max() - 10;
    });
    rejects("bias int32 min", [](quantized_cnn_parts& p) {
        p.branches[0].bias[3] = std::numeric_limits<std::int32_t>::min();
    });
}

TEST(QuantizedPartsTest, AccumulatorBoundIsInclusive) {
    // The logit layer's worst case sum|w|·255 + |bias| may reach INT32_MAX
    // exactly, not one past it.
    quantized_cnn_parts parts = make_parts(10);
    q_dense& logit = parts.trunk.back();
    std::fill(logit.weight.begin(), logit.weight.end(), std::int8_t{-127});
    const std::int64_t sum = static_cast<std::int64_t>(logit.in_features) * 127 * 255;
    logit.bias[0] = static_cast<std::int32_t>(std::numeric_limits<std::int32_t>::max() - sum);
    quantized_cnn_parts over = parts;
    over.trunk.back().bias[0] += 1;
    EXPECT_NO_THROW(quantized_cnn{std::move(parts)});
    EXPECT_THROW(quantized_cnn{std::move(over)}, std::invalid_argument);
}

/// Restores the dispatch mode and backend cap on scope exit.
struct simd_backend_scope {
    nn::simd_mode saved = nn::active_simd_mode();
    explicit simd_backend_scope(nn::simd_backend backend) {
        nn::set_simd_mode(backend == nn::simd_backend::scalar ? nn::simd_mode::scalar
                                                              : nn::simd_mode::native);
        nn::set_simd_backend_cap(backend);
    }
    ~simd_backend_scope() {
        nn::set_simd_mode(saved);
        nn::set_simd_backend_cap(nn::simd_backend::avx512);
    }
};

/// A model no trained network produces: odd and tile-ragged widths
/// everywhere (conv taps 2/12/10, channels 5/17/33, concat 397, hidden 70
/// and 3), pools of 4, 2 and 1, and nonzero zero points.
quantized_cnn_parts ragged_parts() {
    util::rng gen(21);
    const auto weights = [&gen](std::size_t count) {
        std::vector<std::int8_t> w(count);
        for (auto& v : w) v = static_cast<std::int8_t>(gen.uniform_int(-127, 127));
        return w;
    };
    const auto biases = [&gen](std::size_t count) {
        std::vector<std::int32_t> b(count);
        for (auto& v : b) v = static_cast<std::int32_t>(gen.uniform_int(-4000, 4000));
        return b;
    };
    // Keeps a typical accumulator (~sqrt(k)·100·64) near 40 output steps.
    const auto multiplier = [](std::size_t k) {
        return encode_multiplier(40.0 / (std::sqrt(static_cast<double>(k)) * 6400.0));
    };
    quantized_cnn_parts parts;
    parts.time_steps = 13;
    parts.input_q = {0.05f, -7};
    parts.concat_q = {0.1f, 5};
    const std::size_t shapes[3][4] = {{2, 1, 5, 4}, {3, 4, 17, 2}, {5, 2, 33, 1}};
    for (const auto& s : shapes) {
        q_conv_branch b;
        b.kernel = s[0];
        b.in_channels = s[1];
        b.out_channels = s[2];
        b.pool = s[3];
        b.weight_q = {0.01f, 0};
        b.weight = weights(b.kernel * b.in_channels * b.out_channels);
        b.bias = biases(b.out_channels);
        b.requant = multiplier(b.kernel * b.in_channels);
        parts.branches.push_back(std::move(b));
    }
    const std::size_t widths[4] = {397, 70, 3, 1};
    const std::int32_t zero_points[3] = {-20, 3, 11};
    for (std::size_t li = 0; li < 3; ++li) {
        q_dense d;
        d.in_features = widths[li];
        d.out_features = widths[li + 1];
        d.relu = li < 2;
        d.weight_q = {0.01f, 0};
        d.output_q = {0.2f, zero_points[li]};
        d.weight = weights(d.in_features * d.out_features);
        d.bias = biases(d.out_features);
        d.requant = multiplier(d.in_features);
        parts.trunk.push_back(std::move(d));
    }
    return parts;
}

/// The int8 graph executed the plain way: one window, int8 activations,
/// quantize_value and requantize per element, accumulators in serial
/// loops over the original [kernel, cin, cout] / [in, out] weights.
float reference_logit(const quantized_cnn& model, std::span<const float> segment) {
    const std::size_t channels = model.input_channels();
    std::vector<std::int8_t> x(segment.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = quantize_value(segment[i], model.input_q());
    const std::int32_t in_zp = model.input_q().zero_point;
    const std::int32_t concat_zp = model.concat_q().zero_point;
    std::vector<std::int8_t> act;
    std::size_t base = 0;
    for (const q_conv_branch& b : model.branches()) {
        const std::size_t conv_time = model.time_steps() - b.kernel + 1;
        std::vector<std::int8_t> conv(conv_time * b.out_channels);
        for (std::size_t t = 0; t < conv_time; ++t) {
            for (std::size_t o = 0; o < b.out_channels; ++o) {
                std::int32_t acc = b.bias[o];
                for (std::size_t k = 0; k < b.kernel; ++k) {
                    for (std::size_t c = 0; c < b.in_channels; ++c) {
                        acc += (x[(t + k) * channels + base + c] - in_zp) *
                               b.weight[(k * b.in_channels + c) * b.out_channels + o];
                    }
                }
                conv[t * b.out_channels + o] =
                    requantize(acc, b.requant, concat_zp, concat_zp, 127);
            }
        }
        for (std::size_t t = 0; t < conv_time / b.pool; ++t) {
            for (std::size_t o = 0; o < b.out_channels; ++o) {
                std::int8_t best = -128;
                for (std::size_t p = 0; p < b.pool; ++p) {
                    best = std::max(best, conv[(t * b.pool + p) * b.out_channels + o]);
                }
                act.push_back(best);
            }
        }
        base += b.in_channels;
    }
    qparams act_q = model.concat_q();
    for (const q_dense& d : model.trunk()) {
        std::vector<std::int8_t> next(d.out_features);
        for (std::size_t o = 0; o < d.out_features; ++o) {
            std::int32_t acc = d.bias[o];
            for (std::size_t i = 0; i < d.in_features; ++i) {
                acc += (act[i] - act_q.zero_point) * d.weight[i * d.out_features + o];
            }
            next[o] = requantize(acc, d.requant, d.output_q.zero_point,
                                 d.relu ? d.output_q.zero_point : -128, 127);
        }
        act = std::move(next);
        act_q = d.output_q;
    }
    return dequantize_value(act[0], act_q);
}

TEST(QuantizedPartsTest, RaggedShapesMatchReferenceOnEveryTier) {
    // Every shape the parts constructor accepts must execute exactly: the
    // batched executor's tile tails (rows, outputs, odd reductions) on
    // every available tier reproduce the plain per-window int8 graph.
    const quantized_cnn model{ragged_parts()};
    const std::size_t elems = model.time_steps() * model.input_channels();
    constexpr std::size_t k_count = 21;
    util::rng gen(22);
    std::vector<float> segments(k_count * elems);
    for (float& v : segments) v = static_cast<float>(3.0 * gen.normal());
    std::vector<float> expected(k_count);
    for (std::size_t i = 0; i < k_count; ++i) {
        expected[i] = reference_logit(model, {segments.data() + i * elems, elems});
    }
    for (const nn::simd_backend backend : nn::available_simd_backends()) {
        const simd_backend_scope scope(backend);
        for (const std::size_t count : {std::size_t{1}, std::size_t{6}, k_count}) {
            std::vector<float> probs(count);
            model.predict_proba_batch({segments.data(), count * elems}, count, probs);
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(probs[i], nn::sigmoid_scalar(expected[i]))
                    << nn::simd_backend_label(backend) << " count " << count << " row " << i;
            }
        }
        EXPECT_EQ(model.predict_logit({segments.data(), elems}), expected[0])
            << nn::simd_backend_label(backend);
    }
}

}  // namespace
}  // namespace fallsense::quant
