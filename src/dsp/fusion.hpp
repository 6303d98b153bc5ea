// On-edge sensor fusion: Euler angles (pitch, roll, yaw) from accelerometer
// and gyroscope, exactly the computation the paper's firmware performs every
// 10 ms before feeding the model (Section II-A).
//
// A complementary filter blends the gyro-integrated orientation (accurate
// over short horizons) with the accelerometer gravity estimate (drift-free
// but noisy during motion).  Yaw has no gravity reference and is pure gyro
// integration, as on the real board (no magnetometer on the PCB).
#pragma once

#include <cstddef>

#include "dsp/rotation.hpp"

namespace fallsense::dsp {

/// Euler angles in radians.
struct euler_angles {
    double pitch = 0.0;
    double roll = 0.0;
    double yaw = 0.0;
};

struct fusion_config {
    double sample_rate_hz = 100.0;
    /// Complementary-filter blend: fraction of the gyro path (close to 1).
    double gyro_weight = 0.98;
};

/// One fused estimate mid-stream: the attitude and whether the
/// accelerometer bootstrap has happened.
struct fusion_state {
    euler_angles attitude{};
    bool initialized = false;
};

class complementary_filter {
public:
    explicit complementary_filter(const fusion_config& config = {});

    /// Advance one step.  accel in g (gravity included), gyro in rad/s.
    /// Returns the fused Euler angles after this step.
    euler_angles update(const vec3& accel_g, const vec3& gyro_rad_s) {
        return step(state_, accel_g, gyro_rad_s);
    }
    /// The update formula on an external estimate, with this filter's
    /// config: what update() runs, for callers that keep many estimates in
    /// flat arrays (core::detector_table).
    euler_angles step(fusion_state& state, const vec3& accel_g, const vec3& gyro_rad_s) const;

    /// Current estimate without advancing.
    euler_angles current() const { return state_.attitude; }
    void reset() { state_ = {}; }

    /// Gravity-only attitude from one accelerometer sample (the
    /// accelerometer path of the filter); exposed for tests.
    static euler_angles accel_attitude(const vec3& accel_g);

private:
    fusion_config config_;
    fusion_state state_;
};

}  // namespace fallsense::dsp
