// Second-order IIR sections and Butterworth low-pass design.
//
// The paper's preprocessing applies a 4th-order Butterworth low-pass at
// 5 Hz (100 Hz sampling) to every IMU channel.  A 2N-pole Butterworth
// factors into N second-order sections whose Q values come from the
// Butterworth pole angles; each section is realized as an RBJ-cookbook
// low-pass biquad (bilinear transform, direct form II transposed), which is
// also how the filter runs on the microcontroller.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fallsense::dsp {

/// Direct form II transposed delay line of one section: two doubles fully
/// describe a section mid-stream.
struct biquad_state {
    double s1 = 0.0;
    double s2 = 0.0;
};

/// One biquad: y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
/// (a0 normalized to 1).  Stateful: process() streams.
///
/// `step` and `prime` are the section's only formulas; they also run on an
/// external delay line, so a caller hosting many streams of one design
/// (core::detector_table) keeps the coefficients once and the states in
/// flat arrays.
class biquad {
public:
    biquad() = default;
    biquad(double b0, double b1, double b2, double a1, double a2);

    /// Process one sample (direct form II transposed).
    float process(float x) { return step(state_, x); }
    /// Process a buffer in place.
    void process_inplace(std::span<float> samples);
    /// Clear delay-line state.
    void reset() { state_ = {}; }
    /// Set the delay line to the steady state for a constant input — kills
    /// the startup transient when a stream begins mid-signal.
    void prime(float steady_input) { prime(state_, steady_input); }

    /// One DF2T step of `state` with this section's coefficients.
    float step(biquad_state& state, float x) const {
        const double y = b0_ * x + state.s1;
        state.s1 = b1_ * x - a1_ * y + state.s2;
        state.s2 = b2_ * x - a2_ * y;
        return static_cast<float>(y);
    }
    /// Steady state of `state` for a constant input x: y = G x with G the
    /// DC gain, and the delay line solved from the DF2T update equations.
    void prime(biquad_state& state, float steady_input) const {
        const double x = steady_input;
        const double gain = (b0_ + b1_ + b2_) / (1.0 + a1_ + a2_);
        const double y = gain * x;
        state.s2 = b2_ * x - a2_ * y;
        state.s1 = y - b0_ * x;
    }

    /// Magnitude response at normalized frequency f (Hz) for sample rate fs.
    double magnitude_at(double freq_hz, double sample_rate_hz) const;

    double b0() const { return b0_; }
    double b1() const { return b1_; }
    double b2() const { return b2_; }
    double a1() const { return a1_; }
    double a2() const { return a2_; }

private:
    double b0_ = 1.0, b1_ = 0.0, b2_ = 0.0, a1_ = 0.0, a2_ = 0.0;
    biquad_state state_;
};

/// RBJ-cookbook low-pass biquad for cutoff f0 and quality Q.
biquad design_lowpass_biquad(double cutoff_hz, double sample_rate_hz, double q);

/// Butterworth low-pass of even order `order` as a cascade of order/2
/// sections (order must be even and >= 2; the paper uses order 4).
class butterworth_lowpass {
public:
    butterworth_lowpass(std::size_t order, double cutoff_hz, double sample_rate_hz);

    float process(float x);
    void process_inplace(std::span<float> samples);
    void reset();
    /// Prime every section for a constant input (see biquad::prime).
    void prime(float steady_input);

    /// |H(f)| of the full cascade.
    double magnitude_at(double freq_hz) const;

    std::size_t order() const { return 2 * sections_.size(); }
    double cutoff_hz() const { return cutoff_hz_; }
    double sample_rate_hz() const { return sample_rate_hz_; }
    std::span<const biquad> sections() const { return sections_; }

private:
    double cutoff_hz_;
    double sample_rate_hz_;
    std::vector<biquad> sections_;
};

/// Filter every channel of a row-major [frames x channels] buffer
/// independently (fresh filter state per channel), in place.
void filter_channels_inplace(std::span<float> interleaved, std::size_t channels,
                             std::size_t order, double cutoff_hz, double sample_rate_hz);

}  // namespace fallsense::dsp
