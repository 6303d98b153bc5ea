// Real-time pre-impact fall detection pipeline (Figure 2).
//
// `detector_state` is the per-stream half of the pipeline: every 10 ms tick
// it filters the raw sample (streaming Butterworth), updates the
// sensor-fusion attitude, appends the 9-feature row to a ring buffer, and
// reports when a full window is due for scoring; once a score is available
// it applies the decision threshold and debouncing.  Scoring itself is kept
// outside the state so a serving engine (src/serve) can host thousands of
// these states and score all due windows as one batch.
//
// `streaming_detector` binds one state to one `segment_scorer` callback —
// the single-stream firmware structure: filter, fuse, buffer, score every
// hop (window * (1 - overlap)).  A score above the decision threshold
// raises the trigger — the signal that would fire the airbag squib.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/preprocess.hpp"
#include "core/windowing.hpp"
#include "data/types.hpp"
#include "dsp/biquad.hpp"
#include "dsp/fusion.hpp"

namespace fallsense::core {

/// Scores one preprocessed segment (row-major [window x 9]) -> probability.
using segment_scorer = std::function<float(std::span<const float>)>;

struct detector_config {
    std::size_t window_samples = 40;
    double overlap_fraction = 0.5;
    double threshold = 0.5;
    /// Debouncing (extension beyond the paper): require this many
    /// CONSECUTIVE windows above threshold before raising the trigger.
    /// 1 reproduces the paper's single-window trigger; 2 suppresses
    /// one-off false alarms at the cost of one hop (~window/2) of latency.
    std::size_t consecutive_required = 1;
    preprocess_config preprocess{};
    double sample_rate_hz = 100.0;
};

/// One positive window during streaming.
struct detection {
    std::size_t sample_index = 0;  ///< tick at which the window was scored
    float probability = 0.0f;
};

/// Value-type image of a `detector_state` mid-stream: everything a restore
/// needs beyond the (re-derivable) config — tick position, debounce run,
/// filter delay lines, fused attitude, and the raw ring contents.  The
/// checkpoint codec in src/ckpt serializes exactly these fields
/// (docs/checkpoint.md); capture/restore are only meaningful between ticks.
struct detector_state_image {
    std::uint64_t tick = 0;
    std::uint64_t positive_run = 0;
    float last_score = 0.0f;  ///< NaN before the first scored window
    bool fusion_initialized = false;
    dsp::euler_angles attitude{};
    /// 6 channels x (order/2) sections x {s1, s2}, channel-major.
    std::vector<double> filter_state;
    /// Raw ring slots, [window x 9] in ring (not chronological) order.
    std::vector<float> ring;
};

/// Per-stream filter/fusion/window/debounce state with scoring factored
/// out.  The lifecycle per tick is
///
///     if (state.ingest(sample)) {
///         state.assemble_window(row);
///         auto trigger = state.apply_score(score(row));
///     }
///
/// and a caller may interleave the three steps across many states (ingest
/// them all, assemble each due window straight into its row of one batch,
/// score the batch, then apply the scores in order) — exactly what
/// serve::session_engine does.  `reset()` returns
/// the state to the freshly constructed condition, so evicted serving
/// slots can be reused without reallocating.
class detector_state {
public:
    explicit detector_state(const detector_config& config);

    /// Advance one tick: filter, fuse, append the feature row.  Returns
    /// true when a full window is due for scoring at this tick.
    bool ingest(const data::raw_sample& sample);

    /// Write the chronological [window x 9] window ending at the latest
    /// tick into `out` (exactly window * 9 floats).  Called after `ingest`
    /// returned true, before the next `ingest`.
    void assemble_window(std::span<float> out) const;

    /// Record the score of the window due at this tick and apply the
    /// threshold + consecutive-window debouncing.  Returns the detection
    /// when the trigger fires.
    std::optional<detection> apply_score(float score);

    /// Score recorded at the last scoring tick (NaN before the first one).
    float last_score() const { return last_score_; }
    std::size_t samples_seen() const { return tick_; }
    const detector_config& config() const { return config_; }
    void reset();

    /// Capture the full streaming state into `out` (reusing its buffers).
    void capture(detector_state_image& out) const;
    /// Install a previously captured image.  The image must come from a
    /// state with the same config (sizes are validated); afterwards this
    /// state continues the stream bit-identically to the captured one.
    void restore(const detector_state_image& image);

private:
    detector_config config_;
    std::vector<dsp::butterworth_lowpass> filters_;  ///< 6 raw channels
    dsp::complementary_filter fusion_;
    std::vector<float> ring_;  ///< [window x 9] circular feature buffer
    std::size_t tick_ = 0;
    std::size_t hop_ = 1;
    float last_score_ = 0.0f;
    std::size_t positive_run_ = 0;  ///< consecutive above-threshold windows
};

class streaming_detector {
public:
    streaming_detector(const detector_config& config, segment_scorer scorer);

    /// Process one tick; returns a detection when a window was scored at
    /// this tick and crossed the threshold.
    std::optional<detection> push(const data::raw_sample& sample);

    /// Score emitted at the last scoring tick (NaN before the first one).
    float last_score() const { return state_.last_score(); }
    std::size_t samples_seen() const { return state_.samples_seen(); }
    void reset() { state_.reset(); }

private:
    detector_state state_;
    segment_scorer scorer_;
    std::vector<float> window_;  ///< chronological window handed to the scorer
};

}  // namespace fallsense::core
