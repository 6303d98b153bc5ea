#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace fallsense::core {

detector_state::detector_state(const detector_config& config)
    : config_(config), fusion_([&] {
          dsp::fusion_config fc = config.preprocess.fusion;
          fc.sample_rate_hz = config.sample_rate_hz;
          return fc;
      }()) {
    FS_ARG_CHECK(config_.window_samples > 0, "detector window must be positive");
    FS_ARG_CHECK(config_.overlap_fraction >= 0.0 && config_.overlap_fraction < 1.0,
                 "detector overlap must be in [0, 1)");
    FS_ARG_CHECK(config_.threshold >= 0.0 && config_.threshold <= 1.0,
                 "detector threshold must be in [0, 1]");
    for (std::size_t c = 0; c < 6; ++c) {
        filters_.emplace_back(config_.preprocess.filter_order, config_.preprocess.cutoff_hz,
                              config_.sample_rate_hz);
    }
    ring_.assign(config_.window_samples * k_feature_channels, 0.0f);
    const double hop =
        static_cast<double>(config_.window_samples) * (1.0 - config_.overlap_fraction);
    hop_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(hop)));
    last_score_ = std::numeric_limits<float>::quiet_NaN();
}

bool detector_state::ingest(const data::raw_sample& sample) {
    // Prime the filters on the very first tick: the wearable streams
    // continuously, so a cold filter transient is an artifact of starting
    // mid-signal, not something the deployed firmware sees.
    if (tick_ == 0) {
        for (std::size_t c = 0; c < 3; ++c) filters_[c].prime(sample.accel[c]);
        for (std::size_t c = 0; c < 3; ++c) filters_[3 + c].prime(sample.gyro[c]);
    }
    // Streaming filter + fusion (the firmware's 10 ms tick).
    float filtered[6];
    for (std::size_t c = 0; c < 3; ++c) filtered[c] = filters_[c].process(sample.accel[c]);
    for (std::size_t c = 0; c < 3; ++c) {
        filtered[3 + c] = filters_[3 + c].process(sample.gyro[c]);
    }
    const dsp::euler_angles angles = fusion_.update(
        {filtered[0], filtered[1], filtered[2]}, {filtered[3], filtered[4], filtered[5]});

    const std::size_t slot = tick_ % config_.window_samples;
    float* row = ring_.data() + slot * k_feature_channels;
    row[0] = filtered[0];
    row[1] = filtered[1];
    row[2] = filtered[2];
    row[3] = filtered[3];
    row[4] = filtered[4];
    row[5] = filtered[5];
    row[6] = static_cast<float>(angles.pitch);
    row[7] = static_cast<float>(angles.roll);
    row[8] = static_cast<float>(angles.yaw);
    ++tick_;
    obs::add_counter("stream/samples");

    // A window is due once the buffer is full, every hop ticks thereafter.
    return tick_ >= config_.window_samples &&
           (tick_ - config_.window_samples) % hop_ == 0;
}

void detector_state::assemble_window(std::span<float> out) const {
    FS_ARG_CHECK(out.size() == ring_.size(), "assemble_window needs one [window x 9] row");
    // Unroll the ring into chronological order: the oldest slot is the one
    // the next tick overwrites, so two contiguous copies cover the window.
    const auto split =
        static_cast<std::ptrdiff_t>((tick_ % config_.window_samples) * k_feature_channels);
    const auto tail = std::copy(ring_.begin() + split, ring_.end(), out.begin());
    std::copy(ring_.begin(), ring_.begin() + split, tail);
}

std::optional<detection> detector_state::apply_score(float score) {
    last_score_ = score;
    if (score >= config_.threshold) {
        ++positive_run_;
        if (positive_run_ >= std::max<std::size_t>(config_.consecutive_required, 1)) {
            obs::add_counter("stream/triggers");
            return detection{tick_ - 1, score};
        }
    } else {
        positive_run_ = 0;
    }
    return std::nullopt;
}

void detector_state::capture(detector_state_image& out) const {
    out.tick = tick_;
    out.positive_run = positive_run_;
    out.last_score = last_score_;
    out.fusion_initialized = fusion_.initialized();
    out.attitude = fusion_.current();
    out.filter_state.clear();
    out.filter_state.reserve(filters_.size() * filters_.front().sections().size() * 2);
    for (const dsp::butterworth_lowpass& f : filters_) {
        for (const dsp::biquad& s : f.sections()) {
            out.filter_state.push_back(s.state_s1());
            out.filter_state.push_back(s.state_s2());
        }
    }
    out.ring.assign(ring_.begin(), ring_.end());
}

void detector_state::restore(const detector_state_image& image) {
    const std::size_t sections = filters_.front().sections().size();
    FS_ARG_CHECK(image.filter_state.size() == filters_.size() * sections * 2,
                 "detector image filter-state size does not match the config");
    FS_ARG_CHECK(image.ring.size() == ring_.size(),
                 "detector image ring size does not match the config");
    tick_ = image.tick;
    positive_run_ = image.positive_run;
    last_score_ = image.last_score;
    fusion_.restore(image.attitude, image.fusion_initialized);
    std::size_t cursor = 0;
    for (dsp::butterworth_lowpass& f : filters_) {
        for (std::size_t s = 0; s < sections; ++s) {
            f.set_section_state(s, image.filter_state[cursor], image.filter_state[cursor + 1]);
            cursor += 2;
        }
    }
    std::copy(image.ring.begin(), image.ring.end(), ring_.begin());
}

void detector_state::reset() {
    for (auto& f : filters_) f.reset();
    fusion_.reset();
    std::fill(ring_.begin(), ring_.end(), 0.0f);
    tick_ = 0;
    positive_run_ = 0;
    last_score_ = std::numeric_limits<float>::quiet_NaN();
}

streaming_detector::streaming_detector(const detector_config& config, segment_scorer scorer)
    : state_(config),
      scorer_(std::move(scorer)),
      window_(config.window_samples * k_feature_channels) {
    FS_ARG_CHECK(scorer_ != nullptr, "detector needs a scorer");
}

std::optional<detection> streaming_detector::push(const data::raw_sample& sample) {
    if (!state_.ingest(sample)) return std::nullopt;
    state_.assemble_window(window_);
    float score = 0.0f;
    if (obs::enabled()) {
        const auto score_start = std::chrono::steady_clock::now();
        score = scorer_(window_);
        const std::chrono::duration<double, std::micro> elapsed =
            std::chrono::steady_clock::now() - score_start;
        obs::observe_latency_us("stream/score_us", elapsed.count());
        obs::add_counter("stream/windows_scored");
    } else {
        score = scorer_(window_);
    }
    return state_.apply_score(score);
}

}  // namespace fallsense::core
