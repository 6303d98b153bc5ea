#include "dsp/fusion.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fallsense::dsp {

complementary_filter::complementary_filter(const fusion_config& config) : config_(config) {
    FS_ARG_CHECK(config_.sample_rate_hz > 0.0, "fusion sample rate must be positive");
    FS_ARG_CHECK(config_.gyro_weight >= 0.0 && config_.gyro_weight <= 1.0,
                 "gyro weight must be in [0, 1]");
}

euler_angles complementary_filter::accel_attitude(const vec3& accel_g) {
    euler_angles angles;
    // Sensor convention: +z out of the back of the jacket, +x forward.
    // pitch about y (forward lean positive), roll about x.
    angles.pitch = std::atan2(-accel_g.x, std::sqrt(accel_g.y * accel_g.y +
                                                    accel_g.z * accel_g.z));
    angles.roll = std::atan2(accel_g.y, accel_g.z);
    angles.yaw = 0.0;  // unobservable from gravity
    return angles;
}

euler_angles complementary_filter::step(fusion_state& state, const vec3& accel_g,
                                        const vec3& gyro_rad_s) const {
    const double dt = 1.0 / config_.sample_rate_hz;
    euler_angles& att = state.attitude;
    if (!state.initialized) {
        // Bootstrap from the first accelerometer sample so the filter does
        // not start with a large transient.
        att = accel_attitude(accel_g);
        state.initialized = true;
        return att;
    }
    const euler_angles from_accel = accel_attitude(accel_g);
    const double a = config_.gyro_weight;
    att.pitch = a * (att.pitch + gyro_rad_s.y * dt) + (1.0 - a) * from_accel.pitch;
    att.roll = a * (att.roll + gyro_rad_s.x * dt) + (1.0 - a) * from_accel.roll;
    att.yaw = att.yaw + gyro_rad_s.z * dt;  // pure integration
    return att;
}

}  // namespace fallsense::dsp
