// Property sweep over Butterworth designs: for every (order, cutoff) pair
// the digital filter must keep the defining Butterworth properties — unity
// DC gain, -3 dB at the cutoff, monotone magnitude, and stability under a
// long noisy input.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dsp/biquad.hpp"
#include "util/rng.hpp"

namespace fallsense::dsp {
namespace {

struct design_params {
    std::size_t order;
    double cutoff_hz;
    double sample_rate_hz;
};

class ButterworthProperty : public ::testing::TestWithParam<design_params> {};

TEST_P(ButterworthProperty, UnityDcGain) {
    const auto [order, fc, fs] = GetParam();
    const butterworth_lowpass filter(order, fc, fs);
    EXPECT_NEAR(filter.magnitude_at(0.0), 1.0, 1e-9);
}

TEST_P(ButterworthProperty, Minus3dBAtCutoff) {
    const auto [order, fc, fs] = GetParam();
    const butterworth_lowpass filter(order, fc, fs);
    EXPECT_NEAR(filter.magnitude_at(fc), 1.0 / std::sqrt(2.0), 0.03);
}

TEST_P(ButterworthProperty, MonotoneMagnitude) {
    const auto [order, fc, fs] = GetParam();
    const butterworth_lowpass filter(order, fc, fs);
    double prev = filter.magnitude_at(fs * 0.001);
    for (double f = fs * 0.01; f < fs * 0.49; f += fs * 0.01) {
        const double mag = filter.magnitude_at(f);
        EXPECT_LE(mag, prev + 1e-9) << "at " << f << " Hz";
        prev = mag;
    }
}

TEST_P(ButterworthProperty, StableUnderNoise) {
    const auto [order, fc, fs] = GetParam();
    butterworth_lowpass filter(order, fc, fs);
    util::rng gen(order * 1000 + static_cast<std::uint64_t>(fc));
    double max_abs = 0.0;
    for (int i = 0; i < 20'000; ++i) {
        const float y = filter.process(static_cast<float>(gen.normal(0.0, 1.0)));
        ASSERT_TRUE(std::isfinite(y));
        max_abs = std::max(max_abs, std::abs(static_cast<double>(y)));
    }
    // A stable low-pass cannot blow up; output stays within a few sigma.
    EXPECT_LT(max_abs, 5.0);
}

TEST_P(ButterworthProperty, PrimeHoldsSteadyState) {
    const auto [order, fc, fs] = GetParam();
    butterworth_lowpass filter(order, fc, fs);
    filter.prime(1.3f);
    for (int i = 0; i < 16; ++i) EXPECT_NEAR(filter.process(1.3f), 1.3f, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ButterworthProperty,
    ::testing::Values(design_params{2, 5.0, 100.0}, design_params{4, 5.0, 100.0},
                      design_params{6, 5.0, 100.0}, design_params{4, 2.0, 100.0},
                      design_params{4, 10.0, 100.0}, design_params{4, 5.0, 200.0},
                      design_params{8, 20.0, 1000.0}),
    [](const ::testing::TestParamInfo<design_params>& info) {
        std::string name = "o";
        name += std::to_string(info.param.order);
        name += "_fc";
        name += std::to_string(static_cast<int>(info.param.cutoff_hz));
        name += "_fs";
        name += std::to_string(static_cast<int>(info.param.sample_rate_hz));
        return name;
    });

}  // namespace
}  // namespace fallsense::dsp
