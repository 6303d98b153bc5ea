#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "data/synthesizer.hpp"

namespace fallsense::core {
namespace {

data::trial make_trial(int task, std::uint64_t seed) {
    util::rng gen(seed);
    data::subject_profile subject;
    subject.id = 1;
    data::motion_tuning tuning;
    tuning.static_hold_s = 1.5;
    tuning.locomotion_s = 2.0;
    tuning.post_fall_hold_s = 1.0;
    return data::synthesize_task(task, subject, tuning, data::synthesis_config{}, gen);
}

detector_config make_config(double threshold = 0.5) {
    detector_config c;
    c.window_samples = 20;
    c.overlap_fraction = 0.5;
    c.threshold = threshold;
    return c;
}

/// Scorer keyed on free fall: mean |a| much below 1 g in the window tail.
float freefall_scorer(std::span<const float> window) {
    double mag = 0.0;
    const std::size_t n = window.size() / 9;
    for (std::size_t i = n / 2; i < n; ++i) {
        const float ax = window[i * 9 + 0];
        const float ay = window[i * 9 + 1];
        const float az = window[i * 9 + 2];
        mag += std::sqrt(static_cast<double>(ax) * ax + ay * ay + az * az);
    }
    mag /= static_cast<double>(n - n / 2);
    return static_cast<float>(std::clamp(1.3 - mag, 0.0, 1.0));
}

TEST(StreamingDetectorTest, ScoresEveryHopAfterWarmup) {
    streaming_detector det(make_config(1.0), [](std::span<const float>) { return 0.3f; });
    std::size_t scored = 0;
    const data::trial t = make_trial(6, 1);
    for (std::size_t i = 0; i < t.sample_count(); ++i) {
        det.push(t.samples[i]);
        if (!std::isnan(det.last_score())) ++scored;
    }
    EXPECT_EQ(det.samples_seen(), t.sample_count());
    EXPECT_GT(scored, 0u);
}

TEST(StreamingDetectorTest, DetectsFreeFallInFallTrial) {
    const data::trial t = make_trial(30, 2);
    streaming_detector det(make_config(0.65), freefall_scorer);
    bool detected = false;
    std::size_t detect_at = 0;
    for (std::size_t i = 0; i < t.sample_count(); ++i) {
        if (const auto d = det.push(t.samples[i]); d && !detected) {
            detected = true;
            detect_at = d->sample_index;
        }
    }
    ASSERT_TRUE(detected);
    // The triggering window must overlap the falling phase.
    EXPECT_GE(detect_at + 20, t.fall->onset_index);
}

TEST(StreamingDetectorTest, QuietOnStandingTrial) {
    const data::trial t = make_trial(1, 3);
    streaming_detector det(make_config(0.65), freefall_scorer);
    for (std::size_t i = 0; i < t.sample_count(); ++i) {
        EXPECT_FALSE(det.push(t.samples[i]).has_value()) << "tick " << i;
    }
}

TEST(StreamingDetectorTest, MatchesBatchWindowingCadence) {
    // With window W and overlap 50%, scores happen at ticks W, W+hop, ...
    detector_config c = make_config(1.0);
    streaming_detector det(c, [](std::span<const float>) { return 0.5f; });
    const data::trial t = make_trial(1, 4);
    std::vector<std::size_t> scored_at;
    float prev = -1.0f;
    for (std::size_t i = 0; i < 60; ++i) {
        det.push(t.samples[i]);
        if (!std::isnan(det.last_score()) && prev < 0.0f) {
            scored_at.push_back(i);
            prev = 1.0f;
        }
    }
    ASSERT_FALSE(scored_at.empty());
    EXPECT_EQ(scored_at.front(), 19u);  // first full window at tick 20 (index 19)
}

TEST(StreamingDetectorTest, ResetClearsEverything) {
    const data::trial t = make_trial(6, 5);
    streaming_detector det(make_config(0.9), freefall_scorer);
    for (std::size_t i = 0; i < 50; ++i) det.push(t.samples[i]);
    det.reset();
    EXPECT_EQ(det.samples_seen(), 0u);
    EXPECT_TRUE(std::isnan(det.last_score()));
}

TEST(StreamingDetectorTest, ResetReproducesFreshDetectionSequence) {
    // After reset() a detector must replay a trial exactly like a freshly
    // constructed one: same scores at every tick, same trigger indices.
    // Pins that reset clears the filters, fusion attitude, ring buffer and
    // debounce run — a stale remnant in any of them shifts the sequence.
    const data::trial t = make_trial(30, 11);
    const detector_config c = make_config(0.65);

    const auto run = [&](streaming_detector& det) {
        std::vector<std::pair<std::size_t, float>> events;
        std::vector<float> scores;
        for (const data::raw_sample& s : t.samples) {
            if (const auto d = det.push(s)) events.emplace_back(d->sample_index, d->probability);
            scores.push_back(det.last_score());
        }
        return std::make_pair(events, scores);
    };

    streaming_detector recycled(c, freefall_scorer);
    const data::trial warmup = make_trial(6, 12);  // pollute all internal state
    for (const data::raw_sample& s : warmup.samples) recycled.push(s);
    recycled.reset();

    streaming_detector fresh(c, freefall_scorer);
    const auto [fresh_events, fresh_scores] = run(fresh);
    const auto [recycled_events, recycled_scores] = run(recycled);

    ASSERT_FALSE(fresh_events.empty());
    EXPECT_EQ(recycled_events, fresh_events);
    ASSERT_EQ(recycled_scores.size(), fresh_scores.size());
    for (std::size_t i = 0; i < fresh_scores.size(); ++i) {
        if (std::isnan(fresh_scores[i])) {
            EXPECT_TRUE(std::isnan(recycled_scores[i])) << "tick " << i;
        } else {
            EXPECT_EQ(recycled_scores[i], fresh_scores[i]) << "tick " << i;
        }
    }
}

TEST(StreamingDetectorTest, WindowContentIsChronological) {
    // Feed an index ramp through a pass-through scorer and check ordering.
    detector_config c = make_config(1.0);
    c.preprocess.cutoff_hz = 45.0;  // nearly transparent filter
    std::vector<float> captured;
    streaming_detector det(c, [&](std::span<const float> w) {
        captured.assign(w.begin(), w.end());
        return 0.0f;
    });
    data::raw_sample s;
    for (std::size_t i = 0; i < 25; ++i) {
        s.accel = {static_cast<float>(i), 0.0f, 1.0f};
        s.gyro = {0.0f, 0.0f, 0.0f};
        det.push(s);
    }
    ASSERT_EQ(captured.size(), 20u * 9u);
    // ax channel must be increasing across the window (filter is smooth
    // and the ramp monotone).
    for (std::size_t i = 1; i < 20; ++i) {
        EXPECT_GE(captured[i * 9 + 0] + 0.5f, captured[(i - 1) * 9 + 0]);
    }
}

TEST(StreamingDetectorTest, DebounceRequiresConsecutiveWindows) {
    // A scorer that fires on exactly one window: with consecutive_required=2
    // the single positive window must NOT trigger.
    detector_config c = make_config(0.5);
    c.consecutive_required = 2;
    std::size_t calls = 0;
    streaming_detector det(c, [&](std::span<const float>) {
        ++calls;
        return calls == 3 ? 0.9f : 0.1f;  // only the third scored window is hot
    });
    const data::trial t = make_trial(1, 20);
    for (const data::raw_sample& s : t.samples) {
        EXPECT_FALSE(det.push(s).has_value());
    }
    EXPECT_GT(calls, 4u);
}

TEST(StreamingDetectorTest, DebounceFiresOnSustainedPositives) {
    detector_config c = make_config(0.5);
    c.consecutive_required = 2;
    std::size_t calls = 0;
    streaming_detector det(c, [&](std::span<const float>) {
        ++calls;
        return calls >= 3 ? 0.9f : 0.1f;  // hot from the third window onward
    });
    const data::trial t = make_trial(1, 21);
    std::size_t fired_at_call = 0;
    for (const data::raw_sample& s : t.samples) {
        if (det.push(s) && fired_at_call == 0) fired_at_call = calls;
    }
    // Needs windows 3 and 4 both hot: fires at the 4th scored window.
    EXPECT_EQ(fired_at_call, 4u);
}

TEST(StreamingDetectorTest, DefaultDebounceIsSingleWindow) {
    detector_config c = make_config(0.5);
    ASSERT_EQ(c.consecutive_required, 1u);
    std::size_t calls = 0;
    streaming_detector det(c, [&](std::span<const float>) {
        ++calls;
        return calls == 2 ? 0.9f : 0.1f;
    });
    const data::trial t = make_trial(1, 22);
    bool fired = false;
    for (const data::raw_sample& s : t.samples) fired |= det.push(s).has_value();
    EXPECT_TRUE(fired);
}

TEST(StreamingDetectorTest, NonFiniteScoreIsAFaultNotAScore) {
    // Window 3 scores NaN and window 5 +inf; every other window is hot.
    // A faulted window fires nothing and leaves last_score at the previous
    // real score; with the default single-window debounce the next finite
    // window fires again.
    std::size_t calls = 0;
    streaming_detector det(make_config(0.5), [&](std::span<const float>) {
        ++calls;
        if (calls == 3) return std::numeric_limits<float>::quiet_NaN();
        if (calls == 5) return std::numeric_limits<float>::infinity();
        return 0.5f + 0.01f * static_cast<float>(calls);
    });
    const data::trial t = make_trial(1, 23);
    std::vector<std::size_t> fired_calls;
    std::vector<float> last_scores;
    for (const data::raw_sample& s : t.samples) {
        const std::size_t before = calls;
        if (det.push(s)) fired_calls.push_back(calls);
        if (calls != before) last_scores.push_back(det.last_score());
        if (calls == 7) break;
    }
    EXPECT_EQ(fired_calls, (std::vector<std::size_t>{1, 2, 4, 6, 7}));
    ASSERT_EQ(last_scores.size(), 7u);
    EXPECT_EQ(last_scores[2], last_scores[1]);
    EXPECT_EQ(last_scores[4], last_scores[3]);
    EXPECT_EQ(last_scores[6], 0.57f);
    EXPECT_EQ(det.score_faults(), 2u);
}

TEST(StreamingDetectorTest, ConfigValidation) {
    EXPECT_THROW(streaming_detector(detector_config{.window_samples = 0},
                                    [](std::span<const float>) { return 0.0f; }),
                 std::invalid_argument);
    detector_config bad = make_config();
    bad.threshold = 1.5;
    EXPECT_THROW(streaming_detector(bad, [](std::span<const float>) { return 0.0f; }),
                 std::invalid_argument);
    EXPECT_THROW(streaming_detector(make_config(), nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace fallsense::core
