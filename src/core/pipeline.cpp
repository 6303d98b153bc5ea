#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace fallsense::core {

namespace {

constexpr std::size_t k_raw_channels = 6;

}  // namespace

std::optional<std::string> detector_config::validate() const {
    // Written so that NaN fails every range check.
    if (window_samples == 0) return "detector window_samples must be positive";
    if (!(overlap_fraction >= 0.0 && overlap_fraction < 1.0)) {
        return "detector overlap_fraction must be in [0, 1)";
    }
    if (!(threshold >= 0.0 && threshold <= 1.0)) return "detector threshold must be in [0, 1]";
    if (preprocess.filter_order < 2 || preprocess.filter_order % 2 != 0) {
        return "detector filter order must be even and >= 2";
    }
    if (!(sample_rate_hz > 0.0)) return "detector sample_rate_hz must be positive";
    if (!(preprocess.cutoff_hz > 0.0 && preprocess.cutoff_hz < sample_rate_hz / 2.0)) {
        return "detector cutoff_hz must be in (0, sample_rate_hz / 2)";
    }
    if (!(preprocess.fusion.gyro_weight >= 0.0 && preprocess.fusion.gyro_weight <= 1.0)) {
        return "detector fusion gyro_weight must be in [0, 1]";
    }
    return std::nullopt;
}

detector_table::detector_table(const detector_config& config)
    : config_(config),
      fusion_([&] {
          if (const auto error = config.validate()) throw std::invalid_argument(*error);
          dsp::fusion_config fc = config.preprocess.fusion;
          fc.sample_rate_hz = config.sample_rate_hz;
          return fc;
      }()),
      window_elems_(config.window_samples * k_feature_channels),
      filter_(k_raw_channels * config.preprocess.filter_order / 2),
      ring_(window_elems_) {
    const dsp::butterworth_lowpass design(config_.preprocess.filter_order,
                                          config_.preprocess.cutoff_hz, config_.sample_rate_hz);
    sections_.assign(design.sections().begin(), design.sections().end());
    const double hop =
        static_cast<double>(config_.window_samples) * (1.0 - config_.overlap_fraction);
    hop_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(hop)));
}

std::size_t detector_table::acquire() {
    if (!released_.empty()) {
        const std::size_t slot = released_.back();
        released_.pop_back();
        reset(slot);
        return slot;
    }
    const std::size_t slot = tick_.size();
    filter_.grow();
    ring_.grow();
    fusion_state_.emplace_back();
    tick_.push_back(0);
    positive_run_.push_back(0);
    last_score_.push_back(std::numeric_limits<float>::quiet_NaN());
    return slot;
}

void detector_table::release(std::size_t slot) {
    FS_ARG_CHECK(slot < tick_.size(), "detector slot out of range");
    released_.push_back(slot);
}

void detector_table::reset(std::size_t slot) {
    std::fill_n(filter_.row(slot), filter_.width(), dsp::biquad_state{});
    std::fill_n(ring_.row(slot), window_elems_, 0.0f);
    fusion_state_[slot] = {};
    tick_[slot] = 0;
    positive_run_[slot] = 0;
    last_score_[slot] = std::numeric_limits<float>::quiet_NaN();
}

bool detector_table::ingest(std::size_t slot, const data::raw_sample& sample) {
    const std::size_t n_sections = sections_.size();
    dsp::biquad_state* state = filter_.row(slot);
    const float raw[k_raw_channels] = {sample.accel[0], sample.accel[1], sample.accel[2],
                                       sample.gyro[0],  sample.gyro[1],  sample.gyro[2]};
    std::uint64_t& tick = tick_[slot];
    // Prime the filters on the very first tick: the wearable streams
    // continuously, so a cold filter transient is an artifact of starting
    // mid-signal, not something the deployed firmware sees.  Unity DC gain
    // per section: every section of a channel sees the same steady input.
    if (tick == 0) {
        for (std::size_t c = 0; c < k_raw_channels; ++c) {
            for (std::size_t s = 0; s < n_sections; ++s) {
                sections_[s].prime(state[c * n_sections + s], raw[c]);
            }
        }
    }
    // Streaming filter + fusion (the firmware's 10 ms tick).
    float filtered[k_raw_channels];
    for (std::size_t c = 0; c < k_raw_channels; ++c) {
        float y = raw[c];
        for (std::size_t s = 0; s < n_sections; ++s) {
            y = sections_[s].step(state[c * n_sections + s], y);
        }
        filtered[c] = y;
    }
    const dsp::euler_angles angles =
        fusion_.step(fusion_state_[slot], {filtered[0], filtered[1], filtered[2]},
                     {filtered[3], filtered[4], filtered[5]});

    const std::size_t window = config_.window_samples;
    float* row = ring_.row(slot) + (tick % window) * k_feature_channels;
    std::copy_n(filtered, k_raw_channels, row);
    row[6] = static_cast<float>(angles.pitch);
    row[7] = static_cast<float>(angles.roll);
    row[8] = static_cast<float>(angles.yaw);
    ++tick;

    // A window is due once the buffer is full, every hop ticks thereafter.
    return tick >= window && (tick - window) % hop_ == 0;
}

void detector_table::assemble_window(std::size_t slot, std::span<float> out) const {
    FS_ARG_CHECK(out.size() == window_elems_, "assemble_window needs one [window x 9] row");
    // Unroll the ring into chronological order: the oldest slot is the one
    // the next tick overwrites, so two contiguous copies cover the window.
    const float* ring = ring_.row(slot);
    const std::size_t split = (tick_[slot] % config_.window_samples) * k_feature_channels;
    const auto tail = std::copy(ring + split, ring + window_elems_, out.begin());
    std::copy(ring, ring + split, tail);
}

std::optional<detection> detector_table::apply_score(std::size_t slot, float score) {
    std::uint64_t& run = positive_run_[slot];
    if (!std::isfinite(score)) {
        // A scorer fault: no trigger, and the last score keeps meaning
        // "the last real score" (NaN stays reserved for "never scored").
        run = 0;
        return std::nullopt;
    }
    last_score_[slot] = score;
    if (score >= config_.threshold) {
        ++run;
        if (run >= std::max<std::size_t>(config_.consecutive_required, 1)) {
            obs::add_counter("stream/triggers");
            return detection{static_cast<std::size_t>(tick_[slot] - 1), score};
        }
    } else {
        run = 0;
    }
    return std::nullopt;
}

void detector_table::capture(std::size_t slot, detector_state_image& out) const {
    const std::size_t filters = filter_.width();
    out.tick = tick_[slot];
    out.positive_run = positive_run_[slot];
    out.last_score = last_score_[slot];
    out.fusion_initialized = fusion_state_[slot].initialized;
    out.attitude = fusion_state_[slot].attitude;
    // Channel-major, section-minor, {s1, s2} per section.
    out.filter_state.resize(filters * 2);
    const dsp::biquad_state* state = filter_.row(slot);
    for (std::size_t f = 0; f < filters; ++f) {
        out.filter_state[2 * f] = state[f].s1;
        out.filter_state[2 * f + 1] = state[f].s2;
    }
    const float* ring = ring_.row(slot);
    out.ring.assign(ring, ring + window_elems_);
}

void detector_table::restore(std::size_t slot, const detector_state_image& image) {
    const std::size_t filters = filter_.width();
    FS_ARG_CHECK(image.filter_state.size() == filters * 2,
                 "detector image filter-state size does not match the config");
    FS_ARG_CHECK(image.ring.size() == window_elems_,
                 "detector image ring size does not match the config");
    tick_[slot] = image.tick;
    positive_run_[slot] = image.positive_run;
    last_score_[slot] = image.last_score;
    fusion_state_[slot] = {image.attitude, image.fusion_initialized};
    dsp::biquad_state* state = filter_.row(slot);
    for (std::size_t f = 0; f < filters; ++f) {
        state[f] = {image.filter_state[2 * f], image.filter_state[2 * f + 1]};
    }
    std::copy(image.ring.begin(), image.ring.end(), ring_.row(slot));
}

streaming_detector::streaming_detector(const detector_config& config, segment_scorer scorer)
    : table_(config), scorer_(std::move(scorer)), window_(table_.window_elems()) {
    FS_ARG_CHECK(scorer_ != nullptr, "detector needs a scorer");
    table_.acquire();  // k_slot
}

std::optional<detection> streaming_detector::push(const data::raw_sample& sample) {
    const bool due = table_.ingest(k_slot, sample);
    obs::add_counter("stream/samples");  // this ingest pass is one sample
    if (!due) return std::nullopt;
    table_.assemble_window(k_slot, window_);
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
    if (!std::isfinite(score)) ++score_faults_;
    return table_.apply_score(k_slot, score);
}

}  // namespace fallsense::core
