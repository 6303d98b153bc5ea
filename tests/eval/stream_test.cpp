#include "eval/eval.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace fallsense::eval {
namespace {

// 100 Hz, 0.5 s grace (= 50 samples), default cost grid.  One named
// object rather than a temporary per call.
const stream_eval_config k_default_config{};

session_annotation one_fall_session(std::uint32_t session, std::size_t onset,
                                    std::size_t impact, std::size_t ingested,
                                    std::size_t stream_samples = 0) {
    session_annotation s;
    s.session = session;
    s.stream_samples = stream_samples;
    s.samples_ingested = ingested;
    s.falls.push_back({onset, impact});
    return s;
}

TEST(StreamEvalTest, PreImpactTriggerDetectsWithLeadTime) {
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    const std::vector<stream_trigger> triggers{{0, 120}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.sessions, 1u);
    EXPECT_EQ(r.samples, 1000u);
    EXPECT_EQ(r.triggers, 1u);
    EXPECT_EQ(r.fall_events, 1u);
    EXPECT_EQ(r.falls_detected, 1u);
    EXPECT_EQ(r.falls_detected_late, 0u);
    EXPECT_EQ(r.falls_missed, 0u);
    EXPECT_EQ(r.false_alarms, 0u);
    // 30 samples before impact at 100 Hz = 300 ms of pre-impact lead.
    EXPECT_DOUBLE_EQ(r.mean_lead_ms, 300.0);
    EXPECT_DOUBLE_EQ(r.min_lead_ms, 300.0);
    EXPECT_DOUBLE_EQ(r.max_lead_ms, 300.0);
}

TEST(StreamEvalTest, MissAndFalseAlarmFeedTheCostCurve) {
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    // Fires well after the grace window: one false alarm, and the fall
    // itself goes unclaimed.
    const std::vector<stream_trigger> triggers{{0, 600}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.falls_detected, 0u);
    EXPECT_EQ(r.falls_missed, 1u);
    EXPECT_EQ(r.false_alarms, 1u);
    ASSERT_EQ(r.cost_curve.size(), k_default_config.cost_ratios.size());
    for (const cost_point& p : r.cost_curve) {
        EXPECT_DOUBLE_EQ(p.cost, p.cost_ratio * 1.0 + 1.0);
    }
    // No pre-impact detections: lead statistics stay zeroed.
    EXPECT_DOUBLE_EQ(r.mean_lead_ms, 0.0);
    EXPECT_DOUBLE_EQ(r.min_lead_ms, 0.0);
}

TEST(StreamEvalTest, PostImpactTriggerWithinGraceIsLateDetection) {
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    const std::vector<stream_trigger> triggers{{0, 180}};  // grace ends at 200
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.falls_detected, 0u);
    EXPECT_EQ(r.falls_detected_late, 1u);
    EXPECT_EQ(r.falls_missed, 0u);
    EXPECT_EQ(r.false_alarms, 0u);
}

TEST(StreamEvalTest, TriggerJustPastGraceIsMissPlusFalseAlarm) {
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    const std::vector<stream_trigger> triggers{{0, 201}};  // one past impact+grace
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.falls_detected_late, 0u);
    EXPECT_EQ(r.falls_missed, 1u);
    EXPECT_EQ(r.false_alarms, 1u);
}

TEST(StreamEvalTest, RepeatFiringsInsideOneWindowFoldIntoTheDetection) {
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    const std::vector<stream_trigger> triggers{{0, 120}, {0, 130}, {0, 145}, {0, 170}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.triggers, 4u);
    EXPECT_EQ(r.falls_detected, 1u);
    EXPECT_EQ(r.false_alarms, 0u);
    // The first firing owns the lead time.
    EXPECT_DOUBLE_EQ(r.mean_lead_ms, 300.0);
}

TEST(StreamEvalTest, LoopedStreamExpandsOneInstancePerCompletedLoop) {
    // Loop length 1000, impact at 150: instances at 150, 1150, 2150.
    const std::vector<session_annotation> sessions{
        one_fall_session(0, 100, 150, 2500, 1000)};
    const std::vector<stream_trigger> triggers{{0, 120}, {0, 1120}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.fall_events, 3u);
    EXPECT_EQ(r.falls_detected, 2u);
    EXPECT_EQ(r.falls_missed, 1u);  // the 2150 instance, never fired on
    EXPECT_EQ(r.false_alarms, 0u);
}

TEST(StreamEvalTest, InstanceCountsOnlyWhenImpactWasIngested) {
    // Ingestion stops exactly at the impact sample: the fall never landed
    // inside the ingested range, so it is not a countable event.
    const std::vector<session_annotation> sessions{
        one_fall_session(0, 100, 150, 150, 1000)};
    const stream_eval_report r = evaluate_stream({}, sessions, k_default_config);
    EXPECT_EQ(r.fall_events, 0u);
    EXPECT_EQ(r.falls_missed, 0u);
    // One more ingested sample and the impact is in range.
    const std::vector<session_annotation> plus_one{
        one_fall_session(0, 100, 150, 151, 1000)};
    EXPECT_EQ(evaluate_stream({}, plus_one, k_default_config).fall_events, 1u);
}

TEST(StreamEvalTest, GraceWindowIsClampedBeforeTheNextInstanceOnset) {
    // Loop of 60 samples, onset 10, impact 50: the 0.5 s grace would run
    // to sample 100, but the next loop's onset is 70 — a trigger at 80
    // must credit the *second* instance (pre-impact at 110), not linger
    // on the first.
    const std::vector<session_annotation> sessions{one_fall_session(0, 10, 50, 180, 60)};
    const std::vector<stream_trigger> triggers{{0, 80}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.fall_events, 3u);  // impacts at 50, 110, 170 all ingested
    EXPECT_EQ(r.falls_detected, 1u);
    EXPECT_EQ(r.falls_missed, 2u);  // first and third instances go unclaimed
    EXPECT_EQ(r.false_alarms, 0u);
    EXPECT_DOUBLE_EQ(r.mean_lead_ms, 300.0);  // 110 - 80 = 30 samples
}

TEST(StreamEvalTest, UnannotatedSessionTriggersAreIgnoredNotFalseAlarms) {
    const std::vector<session_annotation> sessions{one_fall_session(3, 100, 150, 1000)};
    const std::vector<stream_trigger> triggers{{1, 40}, {3, 120}, {9, 700}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.triggers, 1u);  // only session 3's firing is consumed
    EXPECT_EQ(r.falls_detected, 1u);
    EXPECT_EQ(r.false_alarms, 0u);
}

TEST(StreamEvalTest, EmptyFallsAnnotationCountsEveryTriggerAsFalseAlarm) {
    session_annotation adl;
    adl.session = 0;
    adl.samples_ingested = 360000;  // exactly one hour at 100 Hz
    const std::vector<session_annotation> sessions{adl};
    const std::vector<stream_trigger> triggers{{0, 10}, {0, 500}, {0, 9999}};
    const stream_eval_report r = evaluate_stream(triggers, sessions, k_default_config);
    EXPECT_EQ(r.false_alarms, 3u);
    EXPECT_DOUBLE_EQ(r.stream_hours, 1.0);
    EXPECT_DOUBLE_EQ(r.false_alarms_per_hour, 3.0);
}

TEST(StreamEvalTest, InputOrderDoesNotChangeTheReport) {
    const std::vector<session_annotation> forward{one_fall_session(0, 100, 150, 1000),
                                                  one_fall_session(1, 30, 90, 800)};
    const std::vector<session_annotation> reversed{forward[1], forward[0]};
    const std::vector<stream_trigger> shuffled{{1, 400}, {0, 120}, {1, 60}, {0, 900}};
    const std::vector<stream_trigger> sorted{{0, 120}, {0, 900}, {1, 60}, {1, 400}};
    EXPECT_EQ(evaluate_stream(shuffled, reversed, k_default_config).summary(),
              evaluate_stream(sorted, forward, k_default_config).summary());
}

TEST(StreamEvalTest, SummaryListsEveryCostRatioInOrder) {
    stream_eval_config config;
    config.cost_ratios = {2.0, 8.0};
    const std::vector<session_annotation> sessions{one_fall_session(0, 100, 150, 1000)};
    const std::string s = evaluate_stream({}, sessions, config).summary();
    const auto first = s.find("eval_cost_ratio_2: 2");
    const auto second = s.find("eval_cost_ratio_8: 8");
    EXPECT_NE(first, std::string::npos) << s;
    EXPECT_NE(second, std::string::npos) << s;
    EXPECT_LT(first, second);
}

TEST(StreamEvalTest, RejectsMalformedAnnotationsAndConfig) {
    std::vector<session_annotation> bad{one_fall_session(0, 150, 150, 1000)};
    EXPECT_THROW(evaluate_stream({}, bad, k_default_config), invariant_error);

    std::vector<session_annotation> overlapping{one_fall_session(0, 100, 150, 1000)};
    overlapping[0].falls.push_back({140, 300});  // onset before previous impact
    EXPECT_THROW(evaluate_stream({}, overlapping, k_default_config), invariant_error);

    std::vector<session_annotation> outside{one_fall_session(0, 100, 150, 1000, 120)};
    EXPECT_THROW(evaluate_stream({}, outside, k_default_config), invariant_error);

    const std::vector<session_annotation> dup{one_fall_session(4, 100, 150, 1000),
                                              one_fall_session(4, 10, 20, 100)};
    EXPECT_THROW(evaluate_stream({}, dup, k_default_config), invariant_error);

    const std::vector<session_annotation> ok{one_fall_session(0, 100, 150, 1000)};
    stream_eval_config bad_rate;
    bad_rate.sample_rate_hz = 0.0;
    EXPECT_THROW(evaluate_stream({}, ok, bad_rate), std::invalid_argument);
    stream_eval_config no_grid;
    no_grid.cost_ratios.clear();
    EXPECT_THROW(evaluate_stream({}, ok, no_grid), std::invalid_argument);
    stream_eval_config bad_grace;
    bad_grace.detection_grace_s = -0.1;
    EXPECT_THROW(evaluate_stream({}, ok, bad_grace), std::invalid_argument);
}

}  // namespace
}  // namespace fallsense::eval
