#include "dsp/biquad.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::dsp {

biquad::biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

void biquad::process_inplace(std::span<float> samples) {
    for (float& s : samples) s = process(s);
}

double biquad::magnitude_at(double freq_hz, double sample_rate_hz) const {
    const double w = 2.0 * std::numbers::pi * freq_hz / sample_rate_hz;
    const std::complex<double> z = std::polar(1.0, w);
    const std::complex<double> zi = 1.0 / z;
    const std::complex<double> num = b0_ + b1_ * zi + b2_ * zi * zi;
    const std::complex<double> den = 1.0 + a1_ * zi + a2_ * zi * zi;
    return std::abs(num / den);
}

biquad design_lowpass_biquad(double cutoff_hz, double sample_rate_hz, double q) {
    FS_ARG_CHECK(cutoff_hz > 0.0, "cutoff must be positive");
    FS_ARG_CHECK(sample_rate_hz > 2.0 * cutoff_hz, "cutoff above Nyquist");
    FS_ARG_CHECK(q > 0.0, "Q must be positive");
    const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate_hz;
    const double cw = std::cos(w0);
    const double sw = std::sin(w0);
    const double alpha = sw / (2.0 * q);
    const double a0 = 1.0 + alpha;
    return biquad(((1.0 - cw) / 2.0) / a0, (1.0 - cw) / a0, ((1.0 - cw) / 2.0) / a0,
                  (-2.0 * cw) / a0, (1.0 - alpha) / a0);
}

butterworth_lowpass::butterworth_lowpass(std::size_t order, double cutoff_hz,
                                         double sample_rate_hz)
    : cutoff_hz_(cutoff_hz), sample_rate_hz_(sample_rate_hz) {
    FS_ARG_CHECK(order >= 2 && order % 2 == 0, "butterworth order must be even and >= 2");
    const std::size_t n_sections = order / 2;
    sections_.reserve(n_sections);
    for (std::size_t k = 0; k < n_sections; ++k) {
        // Butterworth pole-pair quality factors: Q_k = 1 / (2 sin(theta_k)),
        // theta_k = pi (2k + 1) / (2 * order) measured from the imaginary axis.
        const double theta =
            std::numbers::pi * (2.0 * static_cast<double>(k) + 1.0) / (2.0 * static_cast<double>(order));
        const double q = 1.0 / (2.0 * std::sin(theta));
        sections_.push_back(design_lowpass_biquad(cutoff_hz, sample_rate_hz, q));
    }
}

float butterworth_lowpass::process(float x) {
    float y = x;
    for (biquad& s : sections_) y = s.process(y);
    return y;
}

void butterworth_lowpass::process_inplace(std::span<float> samples) {
    for (float& s : samples) s = process(s);
}

void butterworth_lowpass::reset() {
    for (biquad& s : sections_) s.reset();
}

void butterworth_lowpass::prime(float steady_input) {
    // Unity DC gain per section: every section sees the same steady input.
    for (biquad& s : sections_) s.prime(steady_input);
}

double butterworth_lowpass::magnitude_at(double freq_hz) const {
    double mag = 1.0;
    for (const biquad& s : sections_) mag *= s.magnitude_at(freq_hz, sample_rate_hz_);
    return mag;
}

void filter_channels_inplace(std::span<float> interleaved, std::size_t channels,
                             std::size_t order, double cutoff_hz, double sample_rate_hz) {
    FS_ARG_CHECK(channels > 0, "channel count must be positive");
    FS_ARG_CHECK(interleaved.size() % channels == 0,
                 "interleaved buffer size not a multiple of channel count");
    const std::size_t frames = interleaved.size() / channels;
    // Channels filter independently (own filter state, disjoint strided
    // samples), so they run in parallel; the streamed recursion within a
    // channel stays strictly serial.
    util::parallel_for(0, channels, 1, [&](std::size_t c) {
        butterworth_lowpass filter(order, cutoff_hz, sample_rate_hz);
        // Prime on the channel's first sample: recordings begin mid-signal
        // (the subject is already standing/walking), so a cold-start
        // transient would be an artifact.
        if (frames > 0) filter.prime(interleaved[c]);
        for (std::size_t t = 0; t < frames; ++t) {
            float& sample = interleaved[t * channels + c];
            sample = filter.process(sample);
        }
    });
}

}  // namespace fallsense::dsp
