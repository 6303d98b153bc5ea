// Real-time pre-impact fall detection pipeline (Figure 2).
//
// `detector_table` is the per-stream half of the pipeline for any number
// of streams that share one `detector_config`: every 10 ms tick it filters
// a stream's raw sample (streaming Butterworth), updates its sensor-fusion
// attitude, appends the 9-feature row to its ring buffer, and reports when
// a full window is due for scoring; once a score is available it applies
// the decision threshold and debouncing.  The Butterworth sections are
// designed once per table; each stream is a slot in flat per-field slabs
// (filter delay lines, attitude, tick, debounce run, last score, ring), so
// a serving engine (src/serve) hosts thousands of streams without a heap
// object per stream.  Scoring is kept outside the table so those engines
// can score all due windows as one batch.
//
// `streaming_detector` is a one-slot table bound to one `segment_scorer`
// callback — the single-stream firmware structure: filter, fuse, buffer,
// score every hop (window * (1 - overlap)).  A score above the decision
// threshold raises the trigger — the signal that would fire the airbag
// squib.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/preprocess.hpp"
#include "core/windowing.hpp"
#include "data/types.hpp"
#include "dsp/biquad.hpp"
#include "dsp/fusion.hpp"
#include "util/slab.hpp"

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

    /// Configuration error, or std::nullopt when the config is usable:
    /// window_samples > 0, overlap in [0, 1), threshold in [0, 1], an even
    /// filter order >= 2, 0 < cutoff < sample_rate / 2, sample_rate > 0 and
    /// the fusion gyro_weight in [0, 1].  detector_table (so also
    /// streaming_detector) throws std::invalid_argument with this
    /// description; serve::engine_config::validate includes it.
    std::optional<std::string> validate() const;
};

/// One positive window during streaming.
struct detection {
    std::size_t sample_index = 0;  ///< tick at which the window was scored
    float probability = 0.0f;
};

/// Value-type image of one detector-table slot mid-stream: everything a
/// restore needs beyond the (re-derivable) config — tick position, debounce
/// run, filter delay lines, fused attitude, and the raw ring contents.  The
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

/// Filter/fusion/window/debounce state of many streams of one config,
/// with scoring factored out.  The lifecycle of one stream per tick is
///
///     if (table.ingest(slot, sample)) {
///         table.assemble_window(slot, row);
///         auto trigger = table.apply_score(slot, score(row));
///     }
///
/// and a caller may interleave the three steps across many slots (ingest
/// them all, assemble each due window straight into its row of one batch,
/// score the batch, then apply the scores in order) — exactly what
/// serve::session_engine does.  Slot indices are dense: `acquire` reuses
/// the most recently released slot, else grows every slab by one.
class detector_table {
public:
    /// Validates the config (detector_config::validate) and designs the
    /// Butterworth sections shared by every slot and channel.
    explicit detector_table(const detector_config& config);

    /// A fresh slot: zero ring, tick 0, NaN last score, filters unprimed,
    /// fusion uninitialised, debounce run 0.
    std::size_t acquire();
    /// Hand a slot's storage back for reuse by a later `acquire`.
    void release(std::size_t slot);

    /// Advance one tick of `slot`: filter, fuse, append the feature row.
    /// Returns true when a full window is due for scoring at this tick.
    bool ingest(std::size_t slot, const data::raw_sample& sample);

    /// Write the chronological [window x 9] window ending at the slot's
    /// latest tick into `out` (exactly window_elems() floats).  Called after
    /// `ingest` returned true, before the slot's next `ingest`.
    void assemble_window(std::size_t slot, std::span<float> out) const;

    /// Record the score of the window due at this tick and apply the
    /// threshold + consecutive-window debouncing.  Returns the detection
    /// when the trigger fires.  A NaN or infinite score (a scorer fault)
    /// fires nothing, restarts the debounce run and is not recorded as
    /// the last score.
    std::optional<detection> apply_score(std::size_t slot, float score);

    /// Last finite score recorded for the slot (NaN before the first).
    float last_score(std::size_t slot) const { return last_score_[slot]; }
    std::uint64_t samples_seen(std::size_t slot) const { return tick_[slot]; }
    /// Floats per window: window_samples * 9.
    std::size_t window_elems() const { return window_elems_; }
    /// Return a slot to the freshly acquired condition.
    void reset(std::size_t slot);

    /// Capture a slot's full streaming state into `out` (reusing its buffers).
    void capture(std::size_t slot, detector_state_image& out) const;
    /// Install a previously captured image.  The image must come from a
    /// table with the same config (sizes are validated); afterwards the
    /// slot continues the stream bit-identically to the captured one.
    void restore(std::size_t slot, const detector_state_image& image);

private:
    detector_config config_;
    std::vector<dsp::biquad> sections_;  ///< order/2 sections, shared by all channels
    dsp::complementary_filter fusion_;   ///< the fusion config; estimates live per slot
    std::size_t hop_ = 1;
    std::size_t window_elems_ = 0;
    std::vector<std::size_t> released_;  ///< slots free for reuse, most recent last
    // Per-slot state, index == slot.
    util::slab<dsp::biquad_state> filter_;  ///< per slot: [6 channels][sections]
    util::slab<float> ring_;                ///< per slot: [window x 9] circular buffer
    std::vector<dsp::fusion_state> fusion_state_;
    std::vector<std::uint64_t> tick_;
    std::vector<std::uint64_t> positive_run_;  ///< consecutive above-threshold windows
    std::vector<float> last_score_;
};

class streaming_detector {
public:
    streaming_detector(const detector_config& config, segment_scorer scorer);

    /// Process one tick; returns a detection when a window was scored at
    /// this tick and crossed the threshold.
    std::optional<detection> push(const data::raw_sample& sample);

    /// Last finite score emitted (NaN before the first one).
    float last_score() const { return table_.last_score(k_slot); }
    std::size_t samples_seen() const { return table_.samples_seen(k_slot); }
    /// Windows the scorer returned NaN or infinite for, since construction.
    std::uint64_t score_faults() const { return score_faults_; }
    void reset() { table_.reset(k_slot); }

private:
    static constexpr std::size_t k_slot = 0;
    detector_table table_;
    segment_scorer scorer_;
    std::vector<float> window_;  ///< chronological window handed to the scorer
    std::uint64_t score_faults_ = 0;
};

}  // namespace fallsense::core
