#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "data/synthesizer.hpp"
#include "serve/scorer_factory.hpp"
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

/// Scorer keyed on free fall (mirrors the engine test's): mean |a| much
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

std::unique_ptr<batch_scorer> freefall(const std::string& label = "freefall") {
    scorer_spec spec;
    spec.backend = scorer_backend::callback;
    spec.window_samples = 20;
    spec.callback = freefall_scorer;
    spec.label = label;
    return make_scorer(spec);
}

std::unique_ptr<batch_scorer> constant(float value, const std::string& label) {
    scorer_spec spec;
    spec.backend = scorer_backend::callback;
    spec.window_samples = 20;
    spec.callback = [value](std::span<const float>) { return value; };
    spec.label = label;
    return make_scorer(spec);
}

fleet_config make_config(std::size_t shards, double threshold = 0.65) {
    fleet_config c;
    c.engine.detector.window_samples = 20;
    c.engine.detector.overlap_fraction = 0.5;
    c.engine.detector.threshold = threshold;
    c.engine.queue_capacity = 4;
    c.shards = shards;
    return c;
}

using trigger_key = std::tuple<std::size_t, float>;  ///< (sample_index, p)

/// Replay the same fleet traffic through a router with `shards` shards and
/// collect per-session trigger sequences plus summed totals.
std::pair<std::map<session_id, std::vector<trigger_key>>, engine_stats> replay(
    std::size_t shards, const std::vector<data::trial>& trials, std::size_t ticks) {
    fleet_router fleet(make_config(shards), freefall());
    std::vector<session_id> ids;
    for (std::size_t i = 0; i < trials.size(); ++i) ids.push_back(fleet.create_session());

    std::map<session_id, std::vector<trigger_key>> triggers;
    std::vector<std::size_t> cursors(trials.size(), 0);
    for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < trials.size(); ++i) {
            const auto& samples = trials[i].samples;
            fleet.feed(ids[i], samples[cursors[i]++ % samples.size()]);
        }
        for (const trigger_event& e : fleet.tick().triggers) {
            triggers[e.session].emplace_back(e.sample_index, e.probability);
        }
    }
    return {std::move(triggers), fleet.totals()};
}

TEST(FleetRouterTest, NonFiniteCountsSurviveRebalanceAndEviction) {
    // Refused non-finite samples are counted per session and fleet-wide;
    // an in-memory rebalance keeps both, and eviction keeps the total.
    fleet_router fleet(make_config(2), freefall());
    std::vector<session_id> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(fleet.create_session());
    data::raw_sample bad{};
    bad.gyro[1] = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t k = 0; k <= i; ++k) EXPECT_FALSE(fleet.feed(ids[i], bad));
        EXPECT_TRUE(fleet.feed(ids[i], data::raw_sample{}));
    }
    fleet.tick();
    EXPECT_EQ(fleet.totals().nonfinite, 21u);
    fleet.evict_session(ids[5]);
    fleet.rebalance(3);
    EXPECT_EQ(fleet.totals().nonfinite, 21u);
    EXPECT_EQ(fleet.totals().rejected, 0u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(fleet.stats(ids[i]).nonfinite, i + 1);
}

TEST(FleetRouterTest, ConfigValidation) {
    fleet_config bad = make_config(0);
    EXPECT_THROW(fleet_router(bad, freefall()), std::invalid_argument);
    bad = make_config(2);
    bad.engine.queue_capacity = 0;
    EXPECT_THROW(fleet_router(bad, freefall()), std::invalid_argument);
    bad = make_config(2);
    bad.engine.drain_watermark = bad.engine.queue_capacity + 1;
    EXPECT_THROW(fleet_router(bad, freefall()), std::invalid_argument);
    EXPECT_THROW(fleet_router(make_config(2), nullptr), std::invalid_argument);
}

TEST(FleetRouterTest, ShardingDoesNotChangeAnySessionsTriggers) {
    // The behavioral contract of sharding: every session sees exactly the
    // trigger sequence it would have seen on a single engine, whatever the
    // shard count.
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < 8; ++i) {
        trials.push_back(make_trial(i % 2 == 0 ? 30 : 6, 50 + i));
    }
    const std::size_t ticks = trials[0].sample_count();

    const auto [one_shard, one_totals] = replay(1, trials, ticks);
    ASSERT_FALSE(one_shard.empty());
    for (const std::size_t shards : {3ul, 8ul}) {
        const auto [sharded, totals] = replay(shards, trials, ticks);
        EXPECT_EQ(sharded, one_shard) << shards << " shards";
        EXPECT_EQ(totals.triggers, one_totals.triggers);
        EXPECT_EQ(totals.windows_scored, one_totals.windows_scored);
        EXPECT_EQ(totals.ingested, one_totals.ingested);
    }
}

TEST(FleetRouterTest, RoutingIsStableUnderChurnAndEviction) {
    fleet_router fleet(make_config(4), freefall());
    std::vector<session_id> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(fleet.create_session());
    EXPECT_EQ(fleet.shard_count(), 4u);
    EXPECT_EQ(fleet.live_session_count(), 16u);

    // Shard assignment is a pure function of the id, fixed at admission.
    std::vector<std::size_t> homes;
    for (const session_id id : ids) homes.push_back(fleet.shard_of(id));
    // The hash must actually spread the fleet (not stripe everything onto
    // one shard).
    std::size_t used = 0;
    for (std::size_t s = 0; s < 4; ++s) {
        used += std::count(homes.begin(), homes.end(), s) > 0;
    }
    EXPECT_GE(used, 2u);

    // Churn half the fleet: surviving sessions keep their shard; evicted
    // ids are dead; new ids are never recycled.
    for (std::size_t i = 0; i < ids.size(); i += 2) fleet.evict_session(ids[i]);
    EXPECT_EQ(fleet.live_session_count(), 8u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(fleet.is_live(ids[i]), i % 2 == 1);
        EXPECT_EQ(fleet.shard_of(ids[i]), homes[i]);  // stable even after evict
    }
    EXPECT_THROW(fleet.evict_session(ids[0]), std::invalid_argument);
    EXPECT_THROW((void)fleet.queue_depth(ids[0]), std::invalid_argument);
    EXPECT_THROW(fleet.feed(ids[0], data::raw_sample{}), std::invalid_argument);

    const session_id fresh = fleet.create_session();
    EXPECT_EQ(fresh, 16u);
    EXPECT_TRUE(fleet.is_live(fresh));
    EXPECT_EQ(fleet.live_session_count(), 9u);

    // Live sessions on every shard sum to the fleet's count.
    std::size_t shard_sum = 0;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
        shard_sum += fleet.shard(s).live_session_count();
    }
    EXPECT_EQ(shard_sum, fleet.live_session_count());
    EXPECT_EQ(fleet.totals().sessions_created, 17u);
    EXPECT_EQ(fleet.totals().sessions_evicted, 8u);
}

TEST(FleetRouterTest, HotSwapAppliesExactlyBetweenTicks) {
    // Old model scores every window staged before the swap; the new one
    // scores every window after.  With a sub-threshold constant before and
    // a super-threshold constant after, the trigger record shows the
    // boundary exactly — and no window is lost or scored twice.
    const data::trial t = make_trial(6, 33);
    fleet_router fleet(make_config(3, 0.5), constant(0.1f, "old"));
    std::vector<session_id> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(fleet.create_session());
    EXPECT_EQ(fleet.scorer().describe(), "old");
    EXPECT_EQ(fleet.swap_generation(), 0u);

    const std::size_t ticks = 120;
    const std::size_t swap_at = 60;
    std::uint64_t windows_before = 0;
    std::uint64_t triggers_before = 0;
    std::uint64_t windows_after = 0;
    std::uint64_t triggers_after = 0;
    for (std::size_t tick = 0; tick < ticks; ++tick) {
        if (tick == swap_at) {
            fleet.swap_scorer(constant(0.9f, "new"));
            EXPECT_EQ(fleet.swap_generation(), 1u);
            EXPECT_EQ(fleet.scorer().describe(), "new");
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
            fleet.feed(ids[i], t.samples[(tick + i * 7) % t.sample_count()]);
        }
        const tick_result r = fleet.tick();
        (tick < swap_at ? windows_before : windows_after) += r.windows_scored;
        (tick < swap_at ? triggers_before : triggers_after) += r.triggers.size();
    }

    EXPECT_EQ(triggers_before, 0u);            // old model: 0.1 < 0.5, never fires
    EXPECT_GT(windows_before, 0u);             // ...but its windows WERE scored
    EXPECT_EQ(triggers_after, windows_after);  // new model: every window fires
    EXPECT_GT(windows_after, 0u);
    for (const session_id id : ids) {
        EXPECT_EQ(fleet.last_score(id), 0.9f);
    }
    // Continuous accounting across the swap: nothing dropped or rescored.
    EXPECT_EQ(fleet.totals().windows_scored, windows_before + windows_after);
    EXPECT_EQ(fleet.totals().triggers, triggers_after);
}

TEST(FleetRouterTest, TickOutputIsThreadCountInvariant) {
    // The fleet determinism contract: a multi-shard run with a mid-run
    // swap produces bit-identical triggers and stats for 1 worker and 4.
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < 10; ++i) {
        trials.push_back(make_trial(i % 2 == 0 ? 30 : 12, 60 + i));
    }

    const auto run = [&] {
        fleet_router fleet(make_config(4), freefall());
        std::vector<session_id> ids;
        for (std::size_t i = 0; i < trials.size(); ++i) ids.push_back(fleet.create_session());

        std::vector<std::tuple<session_id, std::size_t, float>> triggers;
        std::vector<std::size_t> cursors(trials.size(), 0);
        for (std::size_t tick = 0; tick < 250; ++tick) {
            if (tick == 125) fleet.swap_scorer(freefall("freefall-v2"));
            for (std::size_t i = 0; i < trials.size(); ++i) {
                const auto& samples = trials[i].samples;
                fleet.feed(ids[i], samples[cursors[i]++ % samples.size()]);
            }
            for (const trigger_event& e : fleet.tick().triggers) {
                triggers.emplace_back(e.session, e.sample_index, e.probability);
            }
        }
        std::vector<float> scores;
        for (const session_id id : ids) scores.push_back(fleet.last_score(id));
        const engine_stats totals = fleet.totals();
        return std::make_tuple(triggers, scores, totals.windows_scored, totals.triggers,
                               totals.ingested);
    };

    util::set_global_threads(1);
    const auto serial = run();
    util::set_global_threads(4);
    const auto parallel = run();
    util::set_global_threads(0);  // back to the FALLSENSE_THREADS default

    ASSERT_FALSE(std::get<0>(serial).empty());
    EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace fallsense::serve
