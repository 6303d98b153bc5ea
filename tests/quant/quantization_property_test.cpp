// Property-style sweeps (TEST_P) over the quantization stack: for every
// window size the paper explores, the int8 executor must track the float
// reference within a bounded logit error, never produce non-finite output,
// and preserve footprint monotonicity.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/models.hpp"
#include "quant/quantized_cnn.hpp"
#include "util/rng.hpp"

namespace fallsense::quant {
namespace {

class QuantizationSweep : public ::testing::TestWithParam<std::size_t> {
protected:
    void SetUp() override {
        window_ = GetParam();
        net_ = core::build_fallsense_cnn(window_, 1000 + window_);
        spec_ = extract_cnn_spec(*net_, window_);
        util::rng gen(2000 + window_);
        calibration_ = nn::tensor({48, window_, 9});
        for (float& v : calibration_.values()) v = static_cast<float>(gen.normal());
        qmodel_.emplace(spec_, calibration_);
    }

    std::size_t window_ = 0;
    std::unique_ptr<nn::multi_branch_network> net_;
    cnn_spec spec_;
    nn::tensor calibration_;
    std::optional<quantized_cnn> qmodel_;
};

TEST_P(QuantizationSweep, LogitErrorBounded) {
    util::rng gen(3000 + window_);
    double max_err = 0.0;
    for (int trial = 0; trial < 24; ++trial) {
        nn::tensor seg({window_, 9});
        for (float& v : seg.values()) v = static_cast<float>(gen.normal());
        const float fl = spec_.forward_logit(seg.values());
        const float ql = qmodel_->predict_logit(seg.values());
        EXPECT_TRUE(std::isfinite(ql));
        max_err = std::max(max_err, std::abs(static_cast<double>(fl) - ql));
    }
    EXPECT_LT(max_err, 0.8) << "window " << window_;
}

TEST_P(QuantizationSweep, ProbabilitiesInUnitInterval) {
    util::rng gen(4000 + window_);
    for (int trial = 0; trial < 16; ++trial) {
        nn::tensor seg({window_, 9});
        for (float& v : seg.values()) v = static_cast<float>(gen.normal(0.0, 3.0));
        const float p = qmodel_->predict_proba(seg.values());
        EXPECT_GE(p, 0.0f);
        EXPECT_LE(p, 1.0f);
    }
}

TEST_P(QuantizationSweep, OutOfCalibrationInputsStillFinite) {
    // Inputs far outside the calibrated range saturate, never overflow.
    nn::tensor seg = nn::tensor::full({window_, 9}, 100.0f);
    EXPECT_TRUE(std::isfinite(qmodel_->predict_logit(seg.values())));
    seg.fill(-100.0f);
    EXPECT_TRUE(std::isfinite(qmodel_->predict_logit(seg.values())));
}

TEST_P(QuantizationSweep, WeightBytesEqualParameterWeights) {
    std::size_t expected = 0;
    for (const conv_branch_spec& b : spec_.branches) expected += b.conv_weight.size();
    for (const dense_spec& d : spec_.trunk) expected += d.weight.size();
    EXPECT_EQ(qmodel_->weight_bytes(), expected);
}

TEST_P(QuantizationSweep, MacCountScalesWithWindow) {
    const op_counts ops = qmodel_->count_ops();
    // Conv MACs grow linearly in conv output length; dense dominates.
    EXPECT_GT(ops.macs, 10'000u);
    EXPECT_LT(ops.macs, 200'000u);
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, QuantizationSweep,
                         ::testing::Values(std::size_t{10}, std::size_t{20},
                                           std::size_t{30}, std::size_t{40}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             std::string name = "w";
                             name += std::to_string(info.param);
                             return name;
                         });

}  // namespace
}  // namespace fallsense::quant
