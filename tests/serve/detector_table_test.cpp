// Bit-identity of the detector table against the offline DSP reference.
//
// The serving engine and streaming_detector run every stream as one slot
// of a core::detector_table: Butterworth sections designed once per table,
// per-slot delay lines, attitudes and rings in flat slabs.  These tests
// replay the same samples through an independent reference — one
// dsp::butterworth_lowpass per channel (primed on the first sample) and one
// dsp::complementary_filter per stream — and require every assembled
// window to be equal bit for bit, including for a slot that is evicted,
// reused by create_session and then captured and restored mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/fusion.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"

namespace fallsense::serve {
namespace {

/// One stream through the offline filters, kept as the full row history.
class reference_stream {
public:
    explicit reference_stream(const core::detector_config& config)
        : config_(config), fusion_([&] {
              dsp::fusion_config fc = config.preprocess.fusion;
              fc.sample_rate_hz = config.sample_rate_hz;
              return fc;
          }()) {
        for (int c = 0; c < 6; ++c) {
            filters_.emplace_back(config.preprocess.filter_order, config.preprocess.cutoff_hz,
                                  config.sample_rate_hz);
        }
    }

    void push(const data::raw_sample& sample) {
        const float raw[6] = {sample.accel[0], sample.accel[1], sample.accel[2],
                              sample.gyro[0],  sample.gyro[1],  sample.gyro[2]};
        float filtered[6];
        for (int c = 0; c < 6; ++c) {
            if (rows_.empty()) filters_[c].prime(raw[c]);
            filtered[c] = filters_[c].process(raw[c]);
        }
        const dsp::euler_angles a = fusion_.update({filtered[0], filtered[1], filtered[2]},
                                                   {filtered[3], filtered[4], filtered[5]});
        rows_.insert(rows_.end(), filtered, filtered + 6);
        rows_.push_back(static_cast<float>(a.pitch));
        rows_.push_back(static_cast<float>(a.roll));
        rows_.push_back(static_cast<float>(a.yaw));
    }

    std::size_t ticks() const { return rows_.size() / core::k_feature_channels; }

    /// Whether a window is due after the latest push (window 40, hop 20).
    bool due() const {
        const std::size_t w = config_.window_samples;
        const std::size_t hop = w / 2;
        return ticks() >= w && (ticks() - w) % hop == 0;
    }

    /// The chronological window ending at the latest tick.
    std::span<const float> window() const {
        const std::size_t elems = config_.window_samples * core::k_feature_channels;
        return {rows_.data() + rows_.size() - elems, elems};
    }

private:
    core::detector_config config_;
    std::vector<dsp::butterworth_lowpass> filters_;
    dsp::complementary_filter fusion_;
    std::vector<float> rows_;
};

bool bit_equal(std::span<const float> a, std::span<const float> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) return false;
    }
    return true;
}

core::detector_config paper_detector() {
    core::detector_config d;
    d.window_samples = 40;
    d.overlap_fraction = 0.5;
    return d;
}

/// Every k-th sample of every 3rd stream is scaled to a large finite value
/// (up to FLT_MAX), so the table's double-precision recursion and fusion
/// see extreme inputs the synthetic streams never produce.
data::raw_sample spoil(data::raw_sample s, std::size_t stream, std::size_t t) {
    if (stream % 3 != 1 || t % 97 != 13) return s;
    const float big = (t / 97) % 2 == 0 ? 1e30f : -FLT_MAX;
    s.accel[t % 3] = big;
    s.gyro[(t + 1) % 3] = -big;
    return s;
}

/// A live engine session as the test models it: the stream it replays,
/// the samples fed but not yet ingested, and its offline reference.
struct modelled_session {
    std::size_t stream = 0;
    std::size_t cursor = 0;
    std::deque<data::raw_sample> queued;
    reference_stream reference;

    data::raw_sample next(const std::vector<session_stream>& streams) {
        const std::vector<data::raw_sample>& samples = streams[stream].samples;
        const data::raw_sample s = spoil(samples[cursor % samples.size()], stream, cursor);
        ++cursor;
        queued.push_back(s);
        return s;
    }
};

TEST(DetectorTableTest, EngineWindowsMatchOfflineFiltersBitForBit) {
    constexpr std::size_t k_sessions = 8;
    constexpr std::size_t k_ticks = 1500;
    constexpr std::size_t k_evict_at = 400;    // session 2 leaves, its slot is reused ...
    constexpr std::size_t k_capture_at = 900;  // ... and that session moves mid-stream
    const std::vector<session_stream> streams = synthesize_fleet_streams(k_sessions + 1, 11);

    engine_config config;
    config.detector = paper_detector();
    callback_batch_scorer scorer([](std::span<const float> w) {
        return std::clamp(std::abs(w[3]) * 0.25f, 0.0f, 1.0f);
    });
    session_engine engine(config, scorer);

    std::map<session_id, modelled_session> live;  // ascending id, as the engine walks
    for (std::size_t i = 0; i < k_sessions; ++i) {
        live.emplace(engine.create_session(),
                     modelled_session{i, 0, {}, reference_stream(config.detector)});
    }

    std::size_t samples_fed = 0;
    std::size_t windows_compared = 0;
    std::vector<float> scores;
    for (std::size_t t = 0; t < k_ticks; ++t) {
        if (t == k_evict_at) {
            engine.evict_session(2);
            live.erase(2);
            const session_id fresh = engine.create_session();
            EXPECT_EQ(fresh, k_sessions);  // ids are never reused, slots are
            EXPECT_TRUE(std::isnan(engine.last_score(fresh)));
            EXPECT_EQ(engine.queue_depth(fresh), 0u);
            EXPECT_EQ(engine.drain_rate(fresh), config.samples_per_tick);
            const session_stats& st = engine.stats(fresh);
            EXPECT_EQ(st.accepted + st.dropped + st.rejected + st.ingested + st.windows_scored +
                          st.triggers + st.nonfinite,
                      0u);
            session_checkpoint cp;
            engine.capture_session(fresh, cp);
            EXPECT_EQ(cp.detector.tick, 0u);
            EXPECT_EQ(cp.detector.positive_run, 0u);
            EXPECT_TRUE(std::isnan(cp.detector.last_score));
            EXPECT_FALSE(cp.detector.fusion_initialized);
            EXPECT_TRUE(cp.queue.empty());
            for (const double v : cp.detector.filter_state) EXPECT_EQ(v, 0.0);
            for (const float v : cp.detector.ring) EXPECT_EQ(v, 0.0f);
            live.emplace(fresh,
                         modelled_session{k_sessions, 0, {}, reference_stream(config.detector)});
        }
        if (t == k_capture_at) {
            // Two extra samples leave a standing backlog; capture, evict and
            // restore the session: the restore takes the freed slot again.
            const session_id moved = k_sessions;
            modelled_session& s = live.at(moved);
            for (int k = 0; k < 2; ++k) {
                ASSERT_TRUE(engine.feed(moved, s.next(streams)));
                ++samples_fed;
            }
            session_checkpoint cp;
            engine.capture_session(moved, cp);
            ASSERT_EQ(cp.queue.size(), s.queued.size());
            engine.evict_session(moved);
            const session_id restored = engine.restore_session(cp);
            EXPECT_EQ(restored, moved + 1);
            EXPECT_EQ(engine.queue_depth(restored), 2u);
            modelled_session carried = std::move(s);
            live.erase(moved);
            live.emplace(restored, std::move(carried));
        }
        for (auto& [id, s] : live) {
            ASSERT_TRUE(engine.feed(id, s.next(streams)));
            ++samples_fed;
        }

        // One sample per session per tick (samples_per_tick = 1); every due
        // window is one batch row, in ascending session id.
        const std::size_t due = engine.tick_ingest();
        const std::span<const float> batch = engine.pending_windows();
        const std::size_t elems = engine.window_elems();
        std::size_t row = 0;
        for (auto& [id, s] : live) {
            s.reference.push(s.queued.front());
            s.queued.pop_front();
            if (!s.reference.due()) continue;
            ASSERT_LT(row, due) << "tick " << t;
            EXPECT_TRUE(bit_equal(batch.subspan(row * elems, elems), s.reference.window()))
                << "session " << id << " tick " << t;
            ++row;
            ++windows_compared;
        }
        ASSERT_EQ(row, due) << "tick " << t;
        scores.resize(due);
        scorer.score(batch, due, elems, scores);
        engine.tick_apply(scores);
    }
    EXPECT_GE(samples_fed, 10000u);
    EXPECT_GT(windows_compared, 500u);
}

TEST(DetectorTableTest, StreamingDetectorMatchesOfflineFiltersBitForBit) {
    // streaming_detector is a one-slot table: the same windows, one stream.
    const core::detector_config config = paper_detector();
    const std::vector<session_stream> streams = synthesize_fleet_streams(2, 5);
    modelled_session model{1, 0, {}, reference_stream(config)};
    std::size_t windows = 0;
    bool mismatch = false;
    core::streaming_detector detector(config, [&](std::span<const float> w) {
        ++windows;
        mismatch |= !model.reference.due() || !bit_equal(w, model.reference.window());
        return 0.0f;
    });
    for (std::size_t t = 0; t < 12000; ++t) {
        const data::raw_sample s = model.next(streams);
        model.reference.push(s);
        detector.push(s);
    }
    EXPECT_FALSE(mismatch);
    EXPECT_EQ(windows, (12000 - 40) / 20 + 1);
}

TEST(DetectorTableTest, StreamSamplesCountedOncePerIngestPass) {
    // stream/samples is added once per tick_ingest with the pass's sample
    // count; the total still equals the samples ingested.
    obs::reset();
    obs::set_enabled(true);
    engine_config config;
    config.detector = paper_detector();
    config.samples_per_tick = 3;
    callback_batch_scorer scorer([](std::span<const float>) { return 0.0f; });
    session_engine engine(config, scorer);
    for (int i = 0; i < 5; ++i) engine.create_session();
    data::raw_sample s{};
    s.accel[2] = 1.0f;
    for (int t = 0; t < 50; ++t) {
        for (session_id id = 0; id < 5; ++id) {
            if ((t + id) % 2 == 0) engine.feed(id, s);
        }
        engine.tick();
    }
    engine.tick();  // an empty pass adds nothing
    const obs::metrics_snapshot snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    std::uint64_t counted = 0;
    for (const auto& c : snap.counters) {
        if (c.name == "stream/samples") counted = c.value;
    }
    EXPECT_EQ(counted, engine.totals().ingested);
    EXPECT_EQ(counted, 125u);
}

}  // namespace
}  // namespace fallsense::serve
