#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "data/synthesizer.hpp"
#include "serve/fleet.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::serve {
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

/// Scorer keyed on free fall (mirrors the pipeline test's): mean |a| much
/// below 1 g in the window tail.
float freefall_scorer(std::span<const float> window) {
    double mag = 0.0;
    const std::size_t n = window.size() / core::k_feature_channels;
    for (std::size_t i = n / 2; i < n; ++i) {
        const float ax = window[i * 9 + 0];
        const float ay = window[i * 9 + 1];
        const float az = window[i * 9 + 2];
        mag += std::sqrt(static_cast<double>(ax) * ax + ay * ay + az * az);
    }
    mag /= static_cast<double>(n - n / 2);
    return static_cast<float>(std::clamp(1.3 - mag, 0.0, 1.0));
}

engine_config make_config(double threshold = 0.65) {
    engine_config c;
    c.detector.window_samples = 20;
    c.detector.overlap_fraction = 0.5;
    c.detector.threshold = threshold;
    c.queue_capacity = 4;
    return c;
}

TEST(SessionEngineTest, LifecycleIdsAreNeverReused) {
    callback_batch_scorer scorer(freefall_scorer);
    session_engine engine(make_config(), scorer);

    const session_id a = engine.create_session();
    const session_id b = engine.create_session();
    const session_id c = engine.create_session();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(engine.live_session_count(), 3u);

    engine.evict_session(b);
    EXPECT_FALSE(engine.is_live(b));
    EXPECT_TRUE(engine.is_live(a));
    EXPECT_EQ(engine.live_session_count(), 2u);
    EXPECT_THROW(engine.evict_session(b), std::invalid_argument);
    EXPECT_THROW((void)engine.queue_depth(b), std::invalid_argument);

    EXPECT_EQ(engine.create_session(), 3u);  // b's id is not recycled
    EXPECT_EQ(engine.totals().sessions_created, 4u);
    EXPECT_EQ(engine.totals().sessions_evicted, 1u);
}

TEST(SessionEngineTest, DropOldestEvictsFromFullQueue) {
    callback_batch_scorer scorer(freefall_scorer);
    engine_config config = make_config();
    config.queue_capacity = 2;
    config.policy = drop_policy::drop_oldest;
    session_engine engine(config, scorer);
    const session_id id = engine.create_session();

    data::raw_sample s{};
    EXPECT_TRUE(engine.feed(id, s));
    EXPECT_TRUE(engine.feed(id, s));
    EXPECT_TRUE(engine.feed(id, s));  // full: oldest evicted, this admitted
    EXPECT_EQ(engine.queue_depth(id), 2u);
    EXPECT_EQ(engine.stats(id).accepted, 3u);
    EXPECT_EQ(engine.stats(id).dropped, 1u);
    EXPECT_EQ(engine.stats(id).rejected, 0u);
    EXPECT_EQ(engine.totals().dropped, 1u);
}

TEST(SessionEngineTest, RejectNewestRefusesWhenFull) {
    callback_batch_scorer scorer(freefall_scorer);
    engine_config config = make_config();
    config.queue_capacity = 2;
    config.policy = drop_policy::reject_newest;
    session_engine engine(config, scorer);
    const session_id id = engine.create_session();

    data::raw_sample s{};
    EXPECT_TRUE(engine.feed(id, s));
    EXPECT_TRUE(engine.feed(id, s));
    EXPECT_FALSE(engine.feed(id, s));  // full: refused
    EXPECT_EQ(engine.queue_depth(id), 2u);
    EXPECT_EQ(engine.stats(id).accepted, 2u);
    EXPECT_EQ(engine.stats(id).rejected, 1u);
    EXPECT_EQ(engine.stats(id).dropped, 0u);
}

TEST(SessionEngineTest, HostedSessionMatchesDedicatedDetector) {
    // A session fed sample-by-sample must produce exactly the trigger
    // sequence (indices and probabilities) of a standalone
    // streaming_detector with the same config and scorer.
    const data::trial t = make_trial(30, 2);
    const engine_config config = make_config(0.65);

    core::streaming_detector reference(config.detector, freefall_scorer);
    std::vector<std::pair<std::size_t, float>> want;
    for (const data::raw_sample& s : t.samples) {
        if (const auto d = reference.push(s)) want.emplace_back(d->sample_index, d->probability);
    }
    ASSERT_FALSE(want.empty());

    callback_batch_scorer scorer(freefall_scorer);
    session_engine engine(config, scorer);
    const session_id id = engine.create_session();
    std::vector<std::pair<std::size_t, float>> got;
    for (const data::raw_sample& s : t.samples) {
        ASSERT_TRUE(engine.feed(id, s));
        for (const trigger_event& e : engine.tick().triggers) {
            EXPECT_EQ(e.session, id);
            got.emplace_back(e.sample_index, e.probability);
        }
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(engine.last_score(id), reference.last_score());
    EXPECT_EQ(engine.stats(id).triggers, want.size());
}

TEST(SessionEngineTest, NonFiniteSampleIsRefusedAndCountedWithoutPoisoning) {
    // One NaN at sample 100 of a 2000-sample fall stream.  Admitted, it
    // would poison the Butterworth state so that no later window scores
    // finite and the fall never triggers; refused, the session must run
    // exactly as if it had never been offered.
    // The fall trial, led by a still hold of its own first sample.
    const data::trial fall = make_trial(30, 4);
    ASSERT_LT(fall.samples.size(), 2000u);
    std::vector<data::raw_sample> samples(2000 - fall.samples.size(), fall.samples.front());
    samples.insert(samples.end(), fall.samples.begin(), fall.samples.end());

    struct run {
        std::vector<float> scores;
        std::vector<std::pair<std::size_t, float>> triggers;
        session_stats stats;
        engine_stats totals;
    };
    auto stream = [&](bool poison) {
        run r;
        callback_batch_scorer scorer([&r](std::span<const float> window) {
            const float p = freefall_scorer(window);  // NaN for a poisoned window
            r.scores.push_back(p);
            return p;
        });
        session_engine engine(make_config(0.65), scorer);
        const session_id id = engine.create_session();
        for (std::size_t i = 0; i < samples.size(); ++i) {
            if (poison && i == 100) {
                data::raw_sample bad = samples[i];
                bad.accel[1] = std::numeric_limits<float>::quiet_NaN();
                EXPECT_FALSE(engine.feed(id, bad));
                bad.accel[1] = samples[i].accel[1];
                bad.gyro[2] = -std::numeric_limits<float>::infinity();
                EXPECT_FALSE(engine.feed(id, bad));
            }
            EXPECT_TRUE(engine.feed(id, samples[i]));
            for (const trigger_event& e : engine.tick().triggers) {
                r.triggers.emplace_back(e.sample_index, e.probability);
            }
        }
        r.stats = engine.stats(id);
        r.totals = engine.totals();
        return r;
    };
    const run clean = stream(false);
    const run poisoned = stream(true);

    ASSERT_FALSE(clean.triggers.empty()) << "the fall must trigger";
    EXPECT_EQ(poisoned.triggers, clean.triggers);
    EXPECT_EQ(poisoned.scores.size(), clean.scores.size());
    for (std::size_t i = 0; i < poisoned.scores.size(); ++i) {
        ASSERT_TRUE(std::isfinite(poisoned.scores[i])) << "window " << i;
        EXPECT_EQ(poisoned.scores[i], clean.scores[i]) << "window " << i;
    }
    EXPECT_EQ(poisoned.stats.nonfinite, 2u);
    EXPECT_EQ(poisoned.stats.rejected, 0u);
    EXPECT_EQ(poisoned.stats.accepted, 2000u);
    EXPECT_EQ(poisoned.totals.nonfinite, 2u);
    EXPECT_EQ(poisoned.totals.rejected, 0u);
    EXPECT_EQ(clean.stats.nonfinite, 0u);
}

TEST(SessionEngineTest, SampleIsFiniteChecksEveryComponent) {
    data::raw_sample s{};
    EXPECT_TRUE(sample_is_finite(s));
    for (std::size_t c = 0; c < 6; ++c) {
        for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()}) {
            data::raw_sample x{};
            (c < 3 ? x.accel[c] : x.gyro[c - 3]) = bad;
            EXPECT_FALSE(sample_is_finite(x)) << "component " << c;
        }
    }
}

TEST(SessionEngineTest, SamplesPerTickDrainsBacklog) {
    const data::trial t = make_trial(30, 3);

    // Same accepted samples -> same behavior as one-at-a-time ingestion.
    std::uint64_t want_windows = 0;
    core::streaming_detector reference(make_config(0.65).detector,
                                       [&](std::span<const float> w) {
                                           ++want_windows;
                                           return freefall_scorer(w);
                                       });
    std::vector<std::pair<std::size_t, float>> want;
    for (const data::raw_sample& s : t.samples) {
        if (const auto d = reference.push(s)) want.emplace_back(d->sample_index, d->probability);
    }
    ASSERT_FALSE(want.empty());

    // 25 samples per tick exceeds the hop of 10, so one session has
    // several windows due in a single tick.
    for (const std::size_t rate : {std::size_t{8}, std::size_t{25}}) {
        SCOPED_TRACE(rate);
        engine_config config = make_config(0.65);
        config.queue_capacity = t.sample_count();
        config.samples_per_tick = rate;
        callback_batch_scorer scorer(freefall_scorer);
        session_engine engine(config, scorer);
        const session_id id = engine.create_session();

        for (const data::raw_sample& s : t.samples) ASSERT_TRUE(engine.feed(id, s));
        std::vector<std::pair<std::size_t, float>> got;
        while (engine.queue_depth(id) > 0) {
            for (const trigger_event& e : engine.tick().triggers) {
                EXPECT_EQ(e.session, id);
                got.emplace_back(e.sample_index, e.probability);
            }
        }
        EXPECT_EQ(got, want);
        EXPECT_EQ(engine.stats(id).windows_scored, want_windows);
        EXPECT_EQ(engine.stats(id).ingested, t.sample_count());
    }
}

TEST(SessionEngineTest, TickOutputIsThreadCountInvariant) {
    // The whole point of the three-phase tick: triggers, scores, and stats
    // must be identical for 1 worker and 4.
    const std::size_t n_sessions = 6;
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < n_sessions; ++i) {
        trials.push_back(make_trial(i % 2 == 0 ? 30 : 6, 40 + i));
    }

    const auto run = [&]() {
        callback_batch_scorer scorer(freefall_scorer);
        engine_config config = make_config(0.65);
        config.samples_per_tick = 2;
        session_engine engine(config, scorer);
        std::vector<session_id> ids;
        for (std::size_t i = 0; i < n_sessions; ++i) ids.push_back(engine.create_session());

        std::vector<std::tuple<session_id, std::size_t, float>> triggers;
        const std::size_t ticks = trials[0].sample_count() / 2;
        std::vector<std::size_t> cursors(n_sessions, 0);
        for (std::size_t tick = 0; tick < ticks; ++tick) {
            for (std::size_t i = 0; i < n_sessions; ++i) {
                for (int k = 0; k < 2; ++k) {
                    const auto& samples = trials[i].samples;
                    engine.feed(ids[i], samples[cursors[i]++ % samples.size()]);
                }
            }
            for (const trigger_event& e : engine.tick().triggers) {
                triggers.emplace_back(e.session, e.sample_index, e.probability);
            }
        }
        return std::make_pair(triggers, engine.totals());
    };

    util::set_global_threads(1);
    const auto [triggers1, totals1] = run();
    util::set_global_threads(4);
    const auto [triggers4, totals4] = run();
    util::set_global_threads(0);  // back to the FALLSENSE_THREADS default

    ASSERT_FALSE(triggers1.empty());
    EXPECT_EQ(triggers1, triggers4);
    EXPECT_EQ(totals1.windows_scored, totals4.windows_scored);
    EXPECT_EQ(totals1.triggers, totals4.triggers);
    EXPECT_EQ(totals1.ingested, totals4.ingested);
}

TEST(SessionEngineTest, ConfigValidation) {
    callback_batch_scorer scorer(freefall_scorer);
    engine_config bad = make_config();
    bad.queue_capacity = 0;
    EXPECT_NE(bad.validate(), std::nullopt);
    EXPECT_THROW(session_engine(bad, scorer), std::invalid_argument);
    bad = make_config();
    bad.samples_per_tick = 0;
    EXPECT_NE(bad.validate(), std::nullopt);
    EXPECT_THROW(session_engine(bad, scorer), std::invalid_argument);
    bad = make_config();
    bad.drain_watermark = bad.queue_capacity + 1;
    ASSERT_NE(bad.validate(), std::nullopt);
    EXPECT_NE(bad.validate()->find("drain_watermark"), std::string::npos);
    EXPECT_THROW(session_engine(bad, scorer), std::invalid_argument);
    bad = make_config();
    bad.samples_per_tick = 4;
    bad.max_samples_per_tick = 2;  // ceiling below the base rate
    ASSERT_NE(bad.validate(), std::nullopt);
    EXPECT_NE(bad.validate()->find("max_samples_per_tick"), std::string::npos);
    EXPECT_THROW(session_engine(bad, scorer), std::invalid_argument);

    // The detector config is validated with the engine's, so a bad one is
    // refused at construction with a plain message, not at the first
    // create_session.
    const auto detector_error = [](void (*spoil)(core::detector_config&), const char* field) {
        engine_config bad_detector = make_config();
        spoil(bad_detector.detector);
        const auto error = bad_detector.validate();
        ASSERT_NE(error, std::nullopt) << field;
        EXPECT_NE(error->find(field), std::string::npos) << *error;
        callback_batch_scorer inner(freefall_scorer);
        EXPECT_THROW(session_engine(bad_detector, inner), std::invalid_argument) << field;
        EXPECT_THROW(fleet_router(fleet_config{.engine = bad_detector},
                                  std::make_unique<callback_batch_scorer>(freefall_scorer)),
                     std::invalid_argument)
            << field;
    };
    detector_error([](core::detector_config& d) { d.window_samples = 0; }, "window_samples");
    detector_error([](core::detector_config& d) { d.overlap_fraction = 1.0; }, "overlap");
    detector_error([](core::detector_config& d) { d.overlap_fraction = -0.1; }, "overlap");
    detector_error([](core::detector_config& d) { d.threshold = 1.5; }, "threshold");
    detector_error([](core::detector_config& d) { d.threshold = -0.01; }, "threshold");
    detector_error([](core::detector_config& d) { d.threshold = std::nan(""); }, "threshold");
    detector_error([](core::detector_config& d) { d.preprocess.filter_order = 3; }, "order");
    detector_error([](core::detector_config& d) { d.preprocess.filter_order = 0; }, "order");
    detector_error([](core::detector_config& d) { d.preprocess.cutoff_hz = 0.0; }, "cutoff");
    detector_error([](core::detector_config& d) { d.preprocess.cutoff_hz = 50.0; }, "cutoff");
    detector_error([](core::detector_config& d) { d.sample_rate_hz = 0.0; }, "sample_rate");
    detector_error([](core::detector_config& d) { d.preprocess.fusion.gyro_weight = 1.2; },
                   "gyro_weight");
    detector_error([](core::detector_config& d) { d.preprocess.fusion.gyro_weight = -0.5; },
                   "gyro_weight");

    const engine_config good = make_config();
    EXPECT_EQ(good.validate(), std::nullopt);
    EXPECT_EQ(parse_drop_policy("oldest"), drop_policy::drop_oldest);
    EXPECT_EQ(parse_drop_policy("reject"), drop_policy::reject_newest);
    EXPECT_EQ(parse_drop_policy("drop-oldest"), drop_policy::drop_oldest);
    EXPECT_EQ(parse_drop_policy("reject-newest"), drop_policy::reject_newest);
    EXPECT_EQ(parse_drop_policy("chaos"), std::nullopt);
}

TEST(SessionEngineTest, AdaptiveDrainRisesUnderBacklogAndDecaysWhenDrained) {
    const data::trial t = make_trial(30, 9);
    engine_config config = make_config(0.65);
    config.queue_capacity = t.sample_count();
    config.samples_per_tick = 1;
    config.max_samples_per_tick = 16;
    config.drain_watermark = 4;
    callback_batch_scorer scorer(freefall_scorer);
    session_engine engine(config, scorer);
    const session_id id = engine.create_session();
    EXPECT_EQ(engine.drain_rate(id), 1u);

    // Burst: queue far above the watermark -> the rate doubles each tick
    // toward the max, draining the backlog much faster than the base rate.
    for (const data::raw_sample& s : t.samples) ASSERT_TRUE(engine.feed(id, s));
    std::size_t ticks_to_drain = 0;
    std::size_t max_rate_seen = 0;
    while (engine.queue_depth(id) > 0) {
        engine.tick();
        ++ticks_to_drain;
        max_rate_seen = std::max(max_rate_seen, engine.drain_rate(id));
    }
    EXPECT_EQ(max_rate_seen, config.max_samples_per_tick);
    EXPECT_LT(ticks_to_drain, t.sample_count() / 4);  // far faster than 1/tick

    // Drained: the rate halves back to the base within a few idle ticks.
    for (int i = 0; i < 8; ++i) engine.tick();
    EXPECT_EQ(engine.drain_rate(id), config.samples_per_tick);

    // Same accepted samples -> same triggers as one-at-a-time ingestion.
    core::streaming_detector reference(config.detector, freefall_scorer);
    std::uint64_t want = 0;
    for (const data::raw_sample& s : t.samples) want += reference.push(s).has_value();
    EXPECT_EQ(engine.stats(id).triggers, want);
    EXPECT_EQ(engine.stats(id).ingested, t.sample_count());
}

TEST(SessionEngineTest, AdaptiveDrainIsThreadCountInvariant) {
    const std::size_t n_sessions = 5;
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < n_sessions; ++i) {
        trials.push_back(make_trial(i % 2 == 0 ? 30 : 6, 70 + i));
    }

    const auto run = [&] {
        callback_batch_scorer scorer(freefall_scorer);
        engine_config config = make_config(0.65);
        config.queue_capacity = 32;
        config.samples_per_tick = 1;
        config.max_samples_per_tick = 8;
        session_engine engine(config, scorer);
        std::vector<session_id> ids;
        for (std::size_t i = 0; i < n_sessions; ++i) ids.push_back(engine.create_session());

        // Overdriven feed (3 in per tick) so the adaptive rate engages.
        std::vector<std::tuple<session_id, std::size_t, float>> triggers;
        std::vector<std::size_t> cursors(n_sessions, 0);
        std::vector<std::size_t> rates;
        for (std::size_t tick = 0; tick < 200; ++tick) {
            for (std::size_t i = 0; i < n_sessions; ++i) {
                for (int k = 0; k < 3; ++k) {
                    const auto& samples = trials[i].samples;
                    engine.feed(ids[i], samples[cursors[i]++ % samples.size()]);
                }
            }
            for (const trigger_event& e : engine.tick().triggers) {
                triggers.emplace_back(e.session, e.sample_index, e.probability);
            }
            for (std::size_t i = 0; i < n_sessions; ++i) {
                rates.push_back(engine.drain_rate(ids[i]));
            }
        }
        return std::make_tuple(triggers, rates, engine.totals().ingested,
                               engine.totals().dropped);
    };

    util::set_global_threads(1);
    const auto serial = run();
    util::set_global_threads(4);
    const auto parallel = run();
    util::set_global_threads(0);  // back to the FALLSENSE_THREADS default

    EXPECT_EQ(serial, parallel);
    EXPECT_GT(std::get<2>(serial), 0u);
}

// --- queue layout: rings stored entry-major in 32-slot blocks, restarted
//     at entry 0 whenever they drain.  40 sessions span two blocks, with
//     slots 31 and 32 on either side of the boundary. ---

constexpr std::size_t k_layout_sessions = 40;

/// Order-sensitive scorer: an FNV-1a hash of the window's bits mapped to
/// [0, 1), so a reordered, lost or stale sample changes the score.
float checksum_scorer(std::span<const float> window) {
    std::uint32_t h = 2166136261u;
    for (const float v : window) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 16777619u;
    }
    return static_cast<float>(h >> 8) / 16777216.0f;
}

/// Sample k of stream `stream`; no two (stream, k) pairs share a sample.
data::raw_sample numbered_sample(std::size_t stream, std::size_t k) {
    const float a = static_cast<float>(stream) + 1e-3f * static_cast<float>(k);
    data::raw_sample s;
    s.accel = {a, 1.0f - a, 0.5f * a};
    s.gyro = {2.0f * a, -a, 0.25f};
    return s;
}

bool same_sample(const data::raw_sample& a, const data::raw_sample& b) {
    return a.accel == b.accel && a.gyro == b.gyro;
}

using trigger_list = std::vector<std::pair<std::size_t, float>>;

/// What one hosted session must do: a FIFO of queue_capacity samples under
/// the engine's drop policy, in front of a dedicated streaming_detector.
struct reference_session {
    explicit reference_session(const engine_config& config)
        : capacity(config.queue_capacity),
          policy(config.policy),
          detector(config.detector, checksum_scorer) {}

    bool feed(const data::raw_sample& s) {
        if (queue.size() == capacity) {
            if (policy == drop_policy::reject_newest) return false;
            queue.pop_front();
        }
        queue.push_back(s);
        return true;
    }
    /// Ingest up to `n` queued samples, oldest first; returns the triggers.
    trigger_list drain(std::size_t n) {
        trigger_list fired;
        for (; n > 0 && !queue.empty(); --n) {
            if (const auto d = detector.push(queue.front())) {
                fired.emplace_back(d->sample_index, d->probability);
            }
            queue.pop_front();
        }
        return fired;
    }

    std::size_t capacity;
    drop_policy policy;
    std::deque<data::raw_sample> queue;
    core::streaming_detector detector;
};

engine_config layout_config() {
    engine_config c = make_config(0.65);
    c.queue_capacity = 4;
    c.samples_per_tick = 2;
    c.policy = drop_policy::drop_oldest;
    return c;
}

/// Drives an engine and one reference per session with identical feeds
/// and checks them against each other after every tick.
struct layout_harness {
    explicit layout_harness(const engine_config& config) : config(config), engine(config, scorer) {
        for (std::size_t i = 0; i < k_layout_sessions; ++i) add_session();
    }

    void add_session() {
        ids.push_back(engine.create_session());
        refs.emplace_back(config);
        cursors.push_back(0);
    }
    void feed(std::size_t i, std::size_t count) {
        for (std::size_t k = 0; k < count; ++k) {
            const data::raw_sample s = numbered_sample(i, cursors[i]++);
            EXPECT_EQ(engine.feed(ids[i], s), refs[i].feed(s)) << "session " << i;
        }
    }
    /// One tick of both; returns how many live queues ended it empty.
    std::size_t tick() {
        std::vector<trigger_list> got(ids.size());
        for (const trigger_event& e : engine.tick().triggers) {
            const auto at = std::find(ids.begin(), ids.end(), e.session);
            EXPECT_NE(at, ids.end());
            if (at == ids.end()) continue;
            got[static_cast<std::size_t>(at - ids.begin())].emplace_back(e.sample_index,
                                                                         e.probability);
        }
        std::size_t drained = 0;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (!engine.is_live(ids[i])) continue;
            EXPECT_EQ(got[i], refs[i].drain(config.samples_per_tick)) << "session " << i;
            expect_queue_matches(i);
            const float want = refs[i].detector.last_score();
            const float have = engine.last_score(ids[i]);
            EXPECT_TRUE(have == want || (std::isnan(have) && std::isnan(want))) << "session " << i;
            drained += engine.queue_depth(ids[i]) == 0;
        }
        return drained;
    }
    void expect_queue_matches(std::size_t i) {
        session_checkpoint cp;
        engine.capture_session(ids[i], cp);
        ASSERT_EQ(cp.queue.size(), refs[i].queue.size()) << "session " << i;
        EXPECT_EQ(engine.queue_depth(ids[i]), refs[i].queue.size()) << "session " << i;
        for (std::size_t k = 0; k < cp.queue.size(); ++k) {
            EXPECT_TRUE(same_sample(cp.queue[k], refs[i].queue[k]))
                << "session " << i << " entry " << k;
        }
    }

    engine_config config;
    callback_batch_scorer scorer{checksum_scorer};
    session_engine engine;
    std::vector<session_id> ids;
    std::deque<reference_session> refs;  ///< a deque: references never move
    std::vector<std::size_t> cursors;
};

TEST(SessionEngineTest, DrainedQueuesRestartAndStayFifoAcrossBlocks) {
    layout_harness h(layout_config());
    // Light traffic: 0..3 samples per tick against a drain of 2, so every
    // queue drains to empty (and restarts) many times, then refills.
    std::size_t drained = 0;
    for (std::size_t tick = 0; tick < 120; ++tick) {
        for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, (tick * 7 + i * 3) % 4);
        drained += h.tick();
    }
    EXPECT_GT(drained, 120u * k_layout_sessions / 4);
    EXPECT_EQ(h.engine.totals().dropped, 0u);
    EXPECT_GT(h.engine.totals().triggers, 0u);
    std::size_t queued = 0;
    for (const session_id id : h.ids) queued += h.engine.queue_depth(id);
    EXPECT_EQ(h.engine.totals().ingested + queued, h.engine.totals().accepted);
}

TEST(SessionEngineTest, FullQueuesWrapAfterRestart) {
    for (const drop_policy policy : {drop_policy::drop_oldest, drop_policy::reject_newest}) {
        SCOPED_TRACE(drop_policy_name(policy));
        engine_config config = layout_config();
        config.policy = policy;
        layout_harness h(config);
        // Warm up with a drain to empty (every queue back at entry 0), then
        // overdrive: 5..7 samples per tick against a drain of 2 keeps each
        // queue full, so drop_oldest walks its head round the ring.
        for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 3);
        h.tick();
        EXPECT_EQ(h.tick(), k_layout_sessions);
        for (std::size_t tick = 0; tick < 60; ++tick) {
            for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 5 + (tick + i) % 3);
            EXPECT_EQ(h.tick(), 0u);
        }
        // And back to light traffic: the queues drain and restart again.
        for (std::size_t tick = 0; tick < 40; ++tick) {
            for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, (tick + i) % 2);
            h.tick();
        }
        const engine_stats& t = h.engine.totals();
        if (policy == drop_policy::drop_oldest) {
            EXPECT_GT(t.dropped, 0u);
            EXPECT_EQ(t.rejected, 0u);
        } else {
            EXPECT_GT(t.rejected, 0u);
            EXPECT_EQ(t.dropped, 0u);
        }
        EXPECT_GT(t.triggers, 0u);
    }
}

TEST(SessionEngineTest, RestoreOfWrappedQueuesContinuesBitIdentical) {
    const engine_config config = layout_config();
    layout_harness h(config);
    // Drain once so every head restarts at 0, then overdrive: after a tick
    // of 5..7 in against 2 out, each full queue's head has moved off entry 0
    // and its contents run across the end of the ring.
    for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 2);
    EXPECT_EQ(h.tick(), k_layout_sessions);
    for (std::size_t tick = 0; tick < 25; ++tick) {
        for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 5 + (tick + i) % 3);
        h.tick();
    }
    for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 3 + i % 2);
    for (const session_id id : h.ids) ASSERT_EQ(h.engine.queue_depth(id), config.queue_capacity);
    ASSERT_GT(h.engine.totals().dropped, 0u);

    callback_batch_scorer scorer(checksum_scorer);
    session_engine restored(config, scorer);
    std::vector<session_id> restored_ids;
    session_checkpoint cp;
    for (const session_id id : h.ids) {
        h.engine.capture_session(id, cp);
        restored_ids.push_back(restored.restore_session(cp));
    }

    std::vector<std::size_t> cursors = h.cursors;
    for (std::size_t tick = 0; tick < 80; ++tick) {
        // Overdrive then light traffic, so restored queues both wrap again
        // and drain to empty.
        const std::size_t base = tick < 40 ? 3 : 0;
        for (std::size_t i = 0; i < k_layout_sessions; ++i) {
            for (std::size_t k = 0; k < base + (tick + i) % 2; ++k) {
                const data::raw_sample s = numbered_sample(i, cursors[i]++);
                ASSERT_TRUE(h.engine.feed(h.ids[i], s));
                ASSERT_TRUE(restored.feed(restored_ids[i], s));
            }
        }
        const tick_result want = h.engine.tick();
        const tick_result got = restored.tick();
        ASSERT_EQ(got.triggers.size(), want.triggers.size()) << "tick " << tick;
        for (std::size_t k = 0; k < want.triggers.size(); ++k) {
            EXPECT_EQ(got.triggers[k].session, want.triggers[k].session);
            EXPECT_EQ(got.triggers[k].sample_index, want.triggers[k].sample_index);
            EXPECT_EQ(got.triggers[k].probability, want.triggers[k].probability);
        }
        EXPECT_EQ(got.samples_ingested, want.samples_ingested);
        EXPECT_EQ(got.windows_scored, want.windows_scored);
    }
    session_checkpoint a;
    session_checkpoint b;
    for (std::size_t i = 0; i < k_layout_sessions; ++i) {
        h.engine.capture_session(h.ids[i], a);
        restored.capture_session(restored_ids[i], b);
        EXPECT_EQ(a.stats.ingested, b.stats.ingested);
        EXPECT_EQ(a.stats.dropped, b.stats.dropped);
        EXPECT_EQ(a.stats.triggers, b.stats.triggers);
        EXPECT_EQ(a.drain_rate, b.drain_rate);
        ASSERT_EQ(a.queue.size(), b.queue.size());
        for (std::size_t k = 0; k < a.queue.size(); ++k) {
            EXPECT_TRUE(same_sample(a.queue[k], b.queue[k]));
        }
        EXPECT_EQ(a.detector.ring, b.detector.ring);
        EXPECT_EQ(a.detector.filter_state, b.detector.filter_state);
        EXPECT_EQ(a.detector.tick, b.detector.tick);
    }
}

TEST(SessionEngineTest, ReusedSlotNeverIngestsAnEvictedSessionsQueue) {
    const engine_config config = layout_config();
    layout_harness h(config);
    for (std::size_t tick = 0; tick < 30; ++tick) {
        for (std::size_t i = 0; i < k_layout_sessions; ++i) h.feed(i, 3 + (tick + i) % 3);
        h.tick();
    }
    // Sessions 31 and 32 sit on either side of the block boundary and
    // leave with full, wrapped queues; their slots go to two newcomers.
    for (const std::size_t i : {std::size_t{31}, std::size_t{32}}) {
        h.feed(i, 3);
        ASSERT_EQ(h.engine.queue_depth(h.ids[i]), config.queue_capacity);
        h.engine.evict_session(h.ids[i]);
    }
    h.add_session();
    h.add_session();
    for (const std::size_t i : {k_layout_sessions, k_layout_sessions + 1}) {
        EXPECT_EQ(h.engine.queue_depth(h.ids[i]), 0u);
    }
    // A tick with nothing fed to the newcomers ingests nothing for them.
    for (std::size_t i = 0; i < k_layout_sessions; ++i) {
        if (h.engine.is_live(h.ids[i])) h.feed(i, 1);
    }
    h.tick();
    for (const std::size_t i : {k_layout_sessions, k_layout_sessions + 1}) {
        EXPECT_EQ(h.engine.stats(h.ids[i]).ingested, 0u);
        EXPECT_TRUE(std::isnan(h.engine.last_score(h.ids[i])));
    }
    // From here on the newcomers match fresh references sample for sample.
    for (std::size_t tick = 0; tick < 60; ++tick) {
        for (std::size_t i = 0; i < h.ids.size(); ++i) {
            if (h.engine.is_live(h.ids[i])) h.feed(i, (tick + i) % 4);
        }
        h.tick();
    }
    for (const std::size_t i : {k_layout_sessions, k_layout_sessions + 1}) {
        EXPECT_EQ(h.engine.stats(h.ids[i]).ingested + h.engine.queue_depth(h.ids[i]),
                  h.cursors[i]);
        EXPECT_GT(h.engine.stats(h.ids[i]).windows_scored, 0u);
    }
}

TEST(SessionEngineTest, NonFiniteScoreIsCountedAndRestartsTheDebounce) {
    // Every window scores above threshold, so each session fires on every
    // window once its debounce run is long enough.  Session 3's fourth
    // window comes back NaN (or inf): that window fires nothing, the run
    // restarts, the last score keeps its previous value, and the session
    // fires again once `consecutive` finite windows have followed.
    constexpr std::size_t n_sessions = 8;
    constexpr session_id faulted = 3;
    constexpr std::size_t faulted_window = 4;
    const auto hot = [](std::span<const float> w) { return 0.7f + 0.25f * checksum_scorer(w); };

    using tick_lists = std::vector<std::vector<std::size_t>>;
    struct run {
        tick_lists triggers = tick_lists(n_sessions);
        float score_before_fault = 0.0f;  ///< session 3's last score, before the faulted tick
        float score_after_fault = 0.0f;   ///< ... and after it
        std::vector<session_stats> stats;
        engine_stats totals;
    };
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        for (const std::size_t consecutive : {std::size_t{1}, std::size_t{2}}) {
            SCOPED_TRACE(consecutive);
            const auto stream = [&](bool fault) {
                run r;
                engine_config config = make_config(0.65);
                config.detector.consecutive_required = consecutive;
                callback_batch_scorer unused(hot);  // tick_apply takes the scores
                session_engine engine(config, unused);
                for (std::size_t i = 0; i < n_sessions; ++i) engine.create_session();
                std::vector<float> scores;
                std::size_t scoring_ticks = 0;
                for (std::size_t k = 0; k < 120; ++k) {
                    for (std::size_t i = 0; i < n_sessions; ++i) {
                        engine.feed(static_cast<session_id>(i), numbered_sample(i, k));
                    }
                    const std::size_t due = engine.tick_ingest();
                    const std::span<const float> rows = engine.pending_windows();
                    scores.resize(due);
                    for (std::size_t j = 0; j < due; ++j) {
                        scores[j] = hot(rows.subspan(j * engine.window_elems(),
                                                     engine.window_elems()));
                    }
                    if (due > 0 && ++scoring_ticks == faulted_window) {
                        EXPECT_EQ(due, n_sessions);  // all in step: row i is session i
                        r.score_before_fault = engine.last_score(faulted);
                        if (fault) scores[faulted] = bad;
                    }
                    for (const trigger_event& e : engine.tick_apply(scores).triggers) {
                        r.triggers[e.session].push_back(e.sample_index);
                    }
                    if (due > 0 && scoring_ticks == faulted_window) {
                        r.score_after_fault = engine.last_score(faulted);
                    }
                }
                for (std::size_t i = 0; i < n_sessions; ++i) {
                    r.stats.push_back(engine.stats(static_cast<session_id>(i)));
                }
                r.totals = engine.totals();
                return r;
            };
            const run clean = stream(false);
            const run faulty = stream(true);

            for (std::size_t i = 0; i < n_sessions; ++i) {
                EXPECT_EQ(faulty.stats[i].windows_scored, clean.stats[i].windows_scored);
                if (i == faulted) continue;
                EXPECT_EQ(faulty.triggers[i], clean.triggers[i]) << "session " << i;
                EXPECT_EQ(faulty.stats[i].score_faults, 0u);
            }
            // The clean run fires on window `consecutive` and every one
            // after; the faulted run loses the faulted window and the
            // `consecutive - 1` windows its restarted run needs.
            std::vector<std::size_t> want = clean.triggers[faulted];
            const std::size_t first_lost = faulted_window - consecutive;
            ASSERT_GT(want.size(), first_lost + consecutive);
            want.erase(want.begin() + static_cast<std::ptrdiff_t>(first_lost),
                       want.begin() + static_cast<std::ptrdiff_t>(first_lost + consecutive));
            EXPECT_EQ(faulty.triggers[faulted], want);
            EXPECT_TRUE(std::isfinite(faulty.score_before_fault));
            EXPECT_EQ(faulty.score_after_fault, faulty.score_before_fault);
            EXPECT_NE(clean.score_after_fault, clean.score_before_fault);
            EXPECT_EQ(faulty.stats[faulted].score_faults, 1u);
            EXPECT_EQ(faulty.totals.score_faults, 1u);
            EXPECT_EQ(clean.totals.score_faults, 0u);
            EXPECT_EQ(faulty.totals.triggers + consecutive, clean.totals.triggers);
        }
    }
}

}  // namespace
}  // namespace fallsense::serve
