// Scenario-directed loadgen runs with the streaming evaluator tapped in:
// the eval/* section of the deterministic summary must be bit-identical
// for any FALLSENSE_THREADS and any scenario, and the "baseline" scenario
// must replay pre-registry traffic byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "data/motion_profile.hpp"
#include "serve/loadgen.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::serve {
namespace {

/// Cheap deterministic stand-in scorer (same shape as loadgen_test's):
/// scenario tests exercise evaluation plumbing, not the CNN.
float magnitude_scorer(std::span<const float> window) {
    const std::size_t n = window.size() / core::k_feature_channels;
    double mag = 0.0;
    for (std::size_t i = n / 2; i < n; ++i) {
        const float ax = window[i * 9 + 0];
        const float ay = window[i * 9 + 1];
        const float az = window[i * 9 + 2];
        mag += std::sqrt(static_cast<double>(ax) * ax + ay * ay + az * az);
    }
    mag /= static_cast<double>(n - n / 2);
    return static_cast<float>(std::clamp(1.3 - mag, 0.0, 1.0));
}

loadgen_config make_config(const std::string& scenario) {
    loadgen_config c;
    c.sessions = 16;
    c.ticks = 200;
    c.seed = 9;
    c.engine.detector.window_samples = 20;
    c.engine.detector.threshold = 0.65;
    c.scorer.backend = scorer_backend::callback;
    c.scorer.callback = magnitude_scorer;
    c.scorer.label = "magnitude";
    c.scenario = scenario;
    c.stream_eval = true;
    c.eval_config.sample_rate_hz = c.engine.detector.sample_rate_hz;
    return c;
}

TEST(ScenarioEvalTest, EvalSectionIsIdenticalForEveryThreadCount) {
    for (const std::string& scenario : data::list_profiles()) {
        const auto run = [&] {
            return run_loadgen(make_config(scenario)).deterministic_summary();
        };
        const std::string once = run();
        EXPECT_NE(once.find("scenario: " + scenario), std::string::npos);
        EXPECT_NE(once.find("eval_false_alarms_per_hour:"), std::string::npos);
        EXPECT_NE(once.find("eval_cost_ratio_"), std::string::npos);

        util::set_global_threads(1);
        const std::string serial = run();
        util::set_global_threads(4);
        const std::string parallel = run();
        util::set_global_threads(0);
        EXPECT_EQ(serial, once) << scenario;
        EXPECT_EQ(parallel, once) << scenario;
    }
}

TEST(ScenarioEvalTest, EvalReportIsAttachedAndConsistent) {
    const loadgen_report r = run_loadgen(make_config("baseline"));
    ASSERT_TRUE(r.eval.has_value());
    EXPECT_EQ(r.eval->sessions, 16u);
    EXPECT_EQ(r.eval->samples, r.samples_ingested);
    // Trigger counts line up with the router's own tally: every firing
    // the fleet reported is consumed by the evaluator.
    EXPECT_EQ(r.eval->triggers, r.triggers);
    EXPECT_EQ(r.eval->fall_events,
              r.eval->falls_detected + r.eval->falls_detected_late + r.eval->falls_missed);
    ASSERT_FALSE(r.eval->cost_curve.empty());
    EXPECT_DOUBLE_EQ(
        r.eval->cost_curve.front().cost,
        r.eval->cost_curve.front().cost_ratio * static_cast<double>(r.eval->falls_missed) +
            static_cast<double>(r.eval->false_alarms));
}

TEST(ScenarioEvalTest, EvalIsOffByDefaultAndLeavesTheSummaryAlone) {
    loadgen_config config = make_config("baseline");
    config.stream_eval = false;
    const loadgen_report r = run_loadgen(config);
    EXPECT_FALSE(r.eval.has_value());
    const std::string summary = r.deterministic_summary();
    EXPECT_EQ(summary.find("eval_"), std::string::npos);
    EXPECT_NE(summary.find("scenario: baseline"), std::string::npos);
}

TEST(ScenarioEvalTest, BaselineScenarioReplaysTheTwoArgStreams) {
    // The registry path must not disturb pre-scenario traffic: profile
    // "baseline" through the 3-arg overload is byte-identical to the
    // 2-arg overload every earlier release used.
    const auto legacy = synthesize_fleet_streams(6, 123);
    const auto via_profile = synthesize_fleet_streams(6, 123, data::make_profile("baseline"));
    ASSERT_EQ(via_profile.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        ASSERT_EQ(via_profile[i].samples.size(), legacy[i].samples.size()) << i;
        for (std::size_t j = 0; j < legacy[i].samples.size(); ++j) {
            EXPECT_EQ(via_profile[i].samples[j].accel, legacy[i].samples[j].accel);
            EXPECT_EQ(via_profile[i].samples[j].gyro, legacy[i].samples[j].gyro);
        }
        EXPECT_EQ(via_profile[i].fall.has_value(), legacy[i].fall.has_value()) << i;
    }
}

TEST(ScenarioEvalTest, ScenariosActuallyChangeTheTraffic) {
    const auto baseline = synthesize_fleet_streams(4, 77, data::make_profile("baseline"));
    for (const char* name : {"near_fall", "trip_catch", "vehicle_vibration",
                             "sensor_dropout"}) {
        const auto streams = synthesize_fleet_streams(4, 77, data::make_profile(name));
        bool differs = false;
        for (std::size_t i = 0; i < streams.size() && !differs; ++i) {
            if (streams[i].samples.size() != baseline[i].samples.size()) {
                differs = true;
                break;
            }
            for (std::size_t j = 0; j < streams[i].samples.size(); ++j) {
                if (streams[i].samples[j].accel != baseline[i].samples[j].accel) {
                    differs = true;
                    break;
                }
            }
        }
        EXPECT_TRUE(differs) << name << " must not replay baseline traffic";
    }
}

TEST(ScenarioEvalTest, ChurnedSessionsKeepTheirGroundTruth) {
    // Evicted sessions must still be evaluated over what they ingested
    // before eviction — their annotations are frozen at churn time.
    loadgen_config config = make_config("baseline");
    config.churn_every_ticks = 40;
    const loadgen_report r = run_loadgen(config);
    ASSERT_TRUE(r.eval.has_value());
    EXPECT_GT(r.sessions_churned, 0u);
    EXPECT_EQ(r.eval->sessions, 16u + r.sessions_churned);
    EXPECT_EQ(r.eval->samples, r.samples_ingested);
}

TEST(ScenarioEvalTest, StreamEvalRefusesRestoredRuns) {
    loadgen_config config = make_config("baseline");
    config.restore = [](fleet_router&) {};
    EXPECT_THROW(run_loadgen(config), std::invalid_argument);
}

}  // namespace
}  // namespace fallsense::serve
