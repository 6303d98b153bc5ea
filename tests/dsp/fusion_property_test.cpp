// Complementary-filter behavioural properties across its blend parameter.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "dsp/fusion.hpp"
#include "util/rng.hpp"

namespace fallsense::dsp {
namespace {

class FusionBlend : public ::testing::TestWithParam<double> {};

TEST_P(FusionBlend, TracksStaticAttitudeForAnyBlend) {
    fusion_config cfg;
    cfg.gyro_weight = GetParam();
    complementary_filter f(cfg);
    const double pitch = 0.4;
    const vec3 accel{-std::sin(pitch), 0.0, std::cos(pitch)};
    euler_angles a;
    for (int i = 0; i < 2000; ++i) a = f.update(accel, {0, 0, 0});
    if (cfg.gyro_weight < 1.0) {
        // Any accel contribution eventually pulls to the true attitude.
        EXPECT_NEAR(a.pitch, pitch, 0.01) << "blend " << cfg.gyro_weight;
    } else {
        // Pure gyro: stays at the bootstrap value (also the true attitude
        // here because the first sample initializes from accel).
        EXPECT_NEAR(a.pitch, pitch, 1e-9);
    }
}

TEST_P(FusionBlend, BoundedUnderNoisyInput) {
    fusion_config cfg;
    cfg.gyro_weight = GetParam();
    complementary_filter f(cfg);
    util::rng gen(7);
    for (int i = 0; i < 5000; ++i) {
        const euler_angles a = f.update(
            {gen.normal(0.0, 0.3), gen.normal(0.0, 0.3), 1.0 + gen.normal(0.0, 0.3)},
            {gen.normal(0.0, 0.5), gen.normal(0.0, 0.5), gen.normal(0.0, 0.5)});
        ASSERT_TRUE(std::isfinite(a.pitch));
        ASSERT_TRUE(std::isfinite(a.roll));
        // Pitch/roll are physically bounded by the accel reference for any
        // blend below 1 (yaw integrates freely and is excluded).
        if (cfg.gyro_weight < 1.0) {
            EXPECT_LT(std::abs(a.pitch), std::numbers::pi);
            EXPECT_LT(std::abs(a.roll), std::numbers::pi);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Blends, FusionBlend,
                         ::testing::Values(0.0, 0.5, 0.9, 0.98, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                             std::string name = "w";
                             name += std::to_string(static_cast<int>(info.param * 100));
                             return name;
                         });

}  // namespace
}  // namespace fallsense::dsp
