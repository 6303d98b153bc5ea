#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/store.hpp"
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

/// freefall_scorer, except that an all-zero window — what a session fed
/// only zero samples assembles — scores NaN: a scorer fault on demand.
float faulting_scorer(std::span<const float> window) {
    for (const float v : window) {
        if (v != 0.0f) return freefall_scorer(window);
    }
    return std::numeric_limits<float>::quiet_NaN();
}

std::unique_ptr<batch_scorer> faulting() {
    scorer_spec spec;
    spec.backend = scorer_backend::callback;
    spec.window_samples = 20;
    spec.callback = faulting_scorer;
    spec.label = "faulting";
    return make_scorer(spec);
}

std::array<std::uint64_t, 11> fields(const engine_stats& t) {
    return {t.accepted,  t.dropped,   t.rejected,     t.ingested,
            t.windows_scored, t.triggers, t.nonfinite, t.score_faults,
            t.ticks,     t.sessions_created, t.sessions_evicted};
}

/// The test's own serving ledger: which ids are live, the router tick
/// count, and every evicted session's final stats(id), summed per shard
/// that held it.  Engine and fleet totals must equal what it implies.
struct ledger {
    std::vector<bool> live;  ///< index == router-global id
    std::vector<session_stats> retired;  ///< index == shard
    std::uint64_t ticks = 0;

    session_id create(fleet_router& fleet) {
        const session_id id = fleet.create_session();
        EXPECT_EQ(id, live.size());
        live.push_back(true);
        return id;
    }

    void evict(fleet_router& fleet, session_id id) {
        retired[fleet.shard_of(id)] += fleet.stats(id);
        fleet.evict_session(id);
        live[id] = false;
    }

    /// A restore into a different shard count folds all retired history
    /// into shard 0.
    void resize(std::size_t shards) {
        session_stats all;
        for (const session_stats& r : retired) all += r;
        retired.assign(shards, session_stats{});
        retired[0] = all;
    }

    void expect_totals(const fleet_router& fleet, const std::string& where) const {
        ASSERT_EQ(retired.size(), fleet.shard_count()) << where;
        std::vector<engine_stats> want(fleet.shard_count());
        for (std::size_t s = 0; s < want.size(); ++s) {
            want[s] += retired[s];
            want[s].ticks = ticks;
        }
        for (session_id id = 0; id < live.size(); ++id) {
            engine_stats& w = want[fleet.shard_of(id)];
            ++w.sessions_created;
            EXPECT_EQ(fleet.is_live(id), live[id]) << where << " id " << id;
            if (live[id]) {
                w += fleet.stats(id);
            } else {
                ++w.sessions_evicted;
            }
        }
        engine_stats all;
        for (std::size_t s = 0; s < want.size(); ++s) {
            EXPECT_EQ(fields(fleet.shard(s).totals()), fields(want[s])) << where << " shard " << s;
            all += want[s];
            all.sessions_created += want[s].sessions_created;
            all.sessions_evicted += want[s].sessions_evicted;
        }
        all.ticks = ticks;
        EXPECT_EQ(fields(fleet.totals()), fields(all)) << where;
    }
};

TEST(FleetRouterTest, TotalsAreRetiredPlusLiveSessionStats) {
    // Totals carry no count of their own: through churn, both saturation
    // policies, refused NaN samples and NaN scores, every shard's totals
    // equal its live sessions' stats plus the final stats of the sessions
    // it evicted — and stay so across snapshot/restore, rebalance and the
    // v1 encoding.
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < 4; ++i) trials.push_back(make_trial(i % 2 == 0 ? 30 : 6, 70 + i));
    data::raw_sample nan_sample{};
    nan_sample.accel[0] = std::numeric_limits<float>::quiet_NaN();

    for (const drop_policy policy : {drop_policy::drop_oldest, drop_policy::reject_newest}) {
        SCOPED_TRACE(drop_policy_name(policy));
        fleet_config config = make_config(3);
        config.engine.policy = policy;
        fleet_router fleet(config, faulting());
        ledger book{{}, std::vector<session_stats>(3), 0};

        // One zero-fed "fault" session per shard, and regular sessions.
        std::array<session_id, 3> faulty{};
        std::array<bool, 3> have{};
        std::vector<session_id> regular;
        while (!(have[0] && have[1] && have[2]) || regular.size() < 9) {
            const session_id id = book.create(fleet);
            const std::size_t s = fleet.shard_of(id);
            if (!have[s]) {
                faulty[s] = id;
                have[s] = true;
            } else {
                regular.push_back(id);
            }
        }
        // The sessions saturated and fed NaN: the first regular one per shard.
        std::vector<session_id> marked;
        for (std::size_t s = 0; s < 3; ++s) {
            for (const session_id id : regular) {
                if (fleet.shard_of(id) == s) {
                    marked.push_back(id);
                    break;
                }
            }
        }
        ASSERT_EQ(marked.size(), 3u);

        std::map<session_id, std::size_t> cursor;
        const auto run_ticks = [&](std::size_t count) {
            for (std::size_t t = 0; t < count; ++t) {
                for (std::size_t i = 0; i < regular.size(); ++i) {
                    if (!book.live[regular[i]]) continue;
                    const auto& samples = trials[i % trials.size()].samples;
                    fleet.feed(regular[i], samples[cursor[regular[i]]++ % samples.size()]);
                }
                fleet.tick();
                ++book.ticks;
            }
        };

        // Exactly 20 zero samples: one window each, which scores NaN.
        for (std::size_t t = 0; t < 20; ++t) {
            for (const session_id id : faulty) ASSERT_TRUE(fleet.feed(id, data::raw_sample{}));
            run_ticks(1);
        }
        for (std::size_t s = 0; s < 3; ++s) {
            EXPECT_EQ(fleet.stats(faulty[s]).score_faults, 1u);
            EXPECT_EQ(fleet.shard(s).totals().score_faults, 1u);
        }
        // Saturation: 6 samples plus the next tick's own against a 4-deep
        // queue, so 3 refused or dropped per session.
        for (const session_id id : marked) {
            for (int k = 0; k < 6; ++k) fleet.feed(id, trials[0].samples[k]);
            EXPECT_FALSE(fleet.feed(id, nan_sample));
        }
        run_ticks(15);
        book.expect_totals(fleet, "before churn");

        // Churn: the saturated sessions and two fault sessions retire.
        for (const session_id id : marked) book.evict(fleet, id);
        book.evict(fleet, faulty[0]);
        book.evict(fleet, faulty[1]);
        for (int k = 0; k < 4; ++k) regular.push_back(book.create(fleet));
        run_ticks(trials[0].sample_count());
        const engine_stats run = fleet.totals();
        EXPECT_EQ(run.nonfinite, 3u);
        EXPECT_EQ(run.score_faults, 3u);
        EXPECT_EQ(policy == drop_policy::drop_oldest ? run.dropped : run.rejected, 9u);
        EXPECT_EQ(policy == drop_policy::drop_oldest ? run.rejected : run.dropped, 0u);
        EXPECT_GT(run.triggers, 0u);
        book.expect_totals(fleet, "after the run");

        // An evicted id stays dead; one never issued is unknown.
        const session_id gone = marked[0];
        const session_id unissued = static_cast<session_id>(book.live.size());
        EXPECT_FALSE(fleet.is_live(gone));
        EXPECT_FALSE(fleet.is_live(unissued));
        for (const session_id id : {gone, unissued}) {
            try {
                fleet.evict_session(id);
                ADD_FAILURE() << "evicting id " << id << " must throw";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("unknown or evicted session id"),
                          std::string::npos);
            }
            EXPECT_THROW(fleet.feed(id, data::raw_sample{}), std::invalid_argument);
            EXPECT_THROW((void)fleet.stats(id), std::invalid_argument);
        }

        fleet_router restored(config, faulting());
        restored.restore(fleet.snapshot());
        book.expect_totals(restored, "after restore into 3 shards");

        restored.rebalance(5);
        book.resize(5);
        book.expect_totals(restored, "after rebalance(5)");

        // The v1 encoding carries six counters per record: nonfinite and
        // score_faults restart at 0, retired and live alike.
        std::map<session_id, session_stats> before;
        for (session_id id = 0; id < book.live.size(); ++id) {
            if (book.live[id]) before[id] = restored.stats(id);
        }
        fleet_config five = config;
        five.shards = 5;
        ckpt::fleet_snapshot snap;
        snap.config = ckpt::fingerprint_of(five);
        snap.fleet = restored.snapshot();
        ckpt::fleet_snapshot decoded;
        ASSERT_EQ(ckpt::decode_snapshot(ckpt::encode_snapshot(snap), decoded),
                  ckpt::decode_status::ok);
        fleet_router reloaded(five, faulting());
        reloaded.restore(decoded.fleet);
        for (session_stats& r : book.retired) r.nonfinite = r.score_faults = 0;
        for (auto& [id, stats] : before) {
            stats.nonfinite = stats.score_faults = 0;
            EXPECT_EQ(reloaded.stats(id), stats) << "id " << id;
        }
        book.expect_totals(reloaded, "after encode/decode");

        // And the bookkeeping keeps working on the decoded fleet.
        book.evict(reloaded, faulty[2]);
        book.evict(reloaded, regular.back());
        for (std::size_t t = 0; t < 5; ++t) {
            for (const session_id id : regular) {
                if (book.live[id]) reloaded.feed(id, trials[1].samples[t]);
            }
            reloaded.tick();
            ++book.ticks;
        }
        book.expect_totals(reloaded, "after churn on the decoded fleet");
    }
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
