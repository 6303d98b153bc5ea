#include "net/gateway.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthesizer.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "serve/scorer_factory.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::net {
namespace {

using serve::engine_stats;
using serve::fleet_config;
using serve::fleet_router;

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

/// Scorer keyed on free fall (mirrors the fleet test's): mean |a| much
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

std::unique_ptr<serve::batch_scorer> freefall() {
    serve::scorer_spec spec;
    spec.backend = serve::scorer_backend::callback;
    spec.window_samples = 20;
    spec.callback = freefall_scorer;
    spec.label = "freefall";
    return serve::make_scorer(spec);
}

fleet_config make_config(std::size_t shards = 1) {
    fleet_config c;
    c.engine.detector.window_samples = 20;
    c.engine.detector.overlap_fraction = 0.5;
    c.engine.detector.threshold = 0.65;
    c.engine.queue_capacity = 4;
    c.shards = shards;
    return c;
}

data::raw_sample quiet_sample() {
    data::raw_sample s;
    s.accel = {0.0f, 0.0f, 1.0f};
    return s;
}

using trigger_key = std::tuple<serve::session_id, std::size_t, float>;

struct run_result {
    std::vector<trigger_key> triggers;
    engine_stats totals;
    std::string manifest;  ///< obs::manifest_json of whatever the run recorded
};

bool operator==(const run_result& a, const run_result& b) {
    return a.triggers == b.triggers && a.totals.accepted == b.totals.accepted &&
           a.totals.rejected == b.totals.rejected && a.totals.dropped == b.totals.dropped &&
           a.totals.ingested == b.totals.ingested &&
           a.totals.windows_scored == b.totals.windows_scored &&
           a.totals.triggers == b.totals.triggers && a.manifest == b.manifest;
}

void collect(const serve::tick_result& result, std::vector<trigger_key>& out) {
    for (const serve::trigger_event& e : result.triggers) {
        out.emplace_back(e.session, e.sample_index, e.probability);
    }
}

/// The reference run: direct in-process feed/tick calls, no transport.
run_result run_direct(const std::vector<data::trial>& trials, std::size_t ticks) {
    obs::reset();
    obs::set_enabled(true);
    run_result r;
    {
        fleet_router fleet(make_config(), freefall());
        std::vector<serve::session_id> ids;
        for (std::size_t i = 0; i < trials.size(); ++i) ids.push_back(fleet.create_session());
        std::vector<std::size_t> cursors(trials.size(), 0);
        for (std::size_t t = 0; t < ticks; ++t) {
            for (std::size_t i = 0; i < trials.size(); ++i) {
                const auto& samples = trials[i].samples;
                fleet.feed(ids[i], samples[cursors[i]++ % samples.size()]);
            }
            collect(fleet.tick(), r.triggers);
        }
        r.totals = fleet.totals();
    }
    r.manifest = obs::manifest_json(obs::run_manifest{}, obs::snapshot());
    obs::set_enabled(false);
    return r;
}

/// Encode the identical traffic as one wire byte stream: per tick, one
/// sample frame per session followed by a tick frame.
std::vector<std::uint8_t> encode_traffic(const std::vector<data::trial>& trials,
                                         std::size_t ticks) {
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> cursors(trials.size(), 0);
    std::vector<std::uint32_t> seqs(trials.size(), 0);
    for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < trials.size(); ++i) {
            const auto& samples = trials[i].samples;
            const data::raw_sample& s = samples[cursors[i]++ % samples.size()];
            encode_samples(stream, static_cast<std::uint32_t>(i), seqs[i]++, {&s, 1});
        }
        encode_tick(stream);
    }
    return stream;
}

/// The transport-double run: the same traffic through a session_gateway,
/// delivered in `chunk`-byte reads (0 = the whole stream at once).
run_result run_gateway(const std::vector<data::trial>& trials, std::size_t ticks,
                       std::size_t chunk) {
    const std::vector<std::uint8_t> stream = encode_traffic(trials, ticks);
    obs::reset();
    obs::set_enabled(true);
    run_result r;
    {
        fleet_router fleet(make_config(), freefall());
        session_gateway gateway(
            fleet, [&](const serve::tick_result& result) { collect(result, r.triggers); });
        const auto conn = gateway.open_connection();
        std::vector<std::uint8_t> replies;
        const std::size_t step = chunk == 0 ? stream.size() : chunk;
        for (std::size_t off = 0; off < stream.size(); off += step) {
            const std::size_t n = std::min(step, stream.size() - off);
            EXPECT_TRUE(gateway.on_bytes(conn, {stream.data() + off, n}, replies))
                << "chunk " << chunk << " at offset " << off;
        }
        EXPECT_TRUE(replies.empty()) << "quiet traffic must draw no status frames";
        gateway.close_connection(conn);
        r.totals = fleet.totals();
    }
    // Deliberately no publish_metrics(): a transport-double run must
    // leave the registry — and hence the manifest — exactly as the
    // direct run left it.
    r.manifest = obs::manifest_json(obs::run_manifest{}, obs::snapshot());
    obs::set_enabled(false);
    return r;
}

TEST(SessionGatewayTest, ByteStreamRunIsBitIdenticalToDirectFeed) {
    // The determinism contract of the ingestion edge: a single-connection
    // gateway run is a pure function of byte-stream *content* — the same
    // triggers, engine totals, and metrics manifest as direct feed/tick
    // calls, for any read chunking and any thread count.
    std::vector<data::trial> trials;
    for (std::size_t i = 0; i < 4; ++i) {
        trials.push_back(make_trial(i % 2 == 0 ? 30 : 6, 90 + i));
    }
    const std::size_t ticks = trials[0].sample_count();

    util::set_global_threads(1);
    const run_result direct = run_direct(trials, ticks);
    ASSERT_FALSE(direct.triggers.empty()) << "fall trials should trigger";

    for (const std::size_t chunk : {0ul, 1ul, 7ul, k_header_bytes}) {
        run_result doubled = run_gateway(trials, ticks, chunk);
        EXPECT_TRUE(doubled == direct) << "chunk size " << chunk;
    }

    util::set_global_threads(4);
    const run_result threaded = run_gateway(trials, ticks, 0);
    util::set_global_threads(0);
    EXPECT_TRUE(threaded == direct) << "4 worker threads";
}

TEST(SessionGatewayTest, NonFiniteSampleAnswersInvalidSampleNotQueueFull) {
    fleet_config config = make_config();
    config.engine.policy = serve::drop_policy::reject_newest;
    fleet_router fleet(config, freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();

    std::vector<data::raw_sample> batch(3, quiet_sample());
    batch[1].gyro[0] = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 9, 500, batch);
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));

    frame_decoder decoder;
    decoder.push(replies);
    frame f;
    ASSERT_EQ(decoder.next(f), decode_status::ok);
    EXPECT_EQ(f.type, frame_type::status);
    EXPECT_EQ(f.session, 9u);
    EXPECT_EQ(f.sequence, 501u);
    EXPECT_EQ(static_cast<status_code>(f.status), status_code::invalid_sample);
    EXPECT_STREQ(status_code_name(status_code::invalid_sample), "invalid-sample");
    EXPECT_EQ(decoder.next(f), decode_status::need_more);

    const gateway_stats& stats = gateway.stats();
    EXPECT_EQ(stats.samples_in, 3u);
    EXPECT_EQ(stats.samples_rejected, 0u);
    EXPECT_EQ(stats.reject_frames_out, 0u);
    EXPECT_EQ(stats.status_frames_out, 1u);
    EXPECT_EQ(fleet.totals().accepted, 2u);
    EXPECT_EQ(fleet.totals().rejected, 0u);
    EXPECT_EQ(fleet.totals().nonfinite, 1u);
}

TEST(SessionGatewayTest, RejectNewestSaturationAnswersQueueFullFrames) {
    fleet_config config = make_config();
    config.engine.policy = serve::drop_policy::reject_newest;  // capacity 4
    fleet_router fleet(config, freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();

    // One frame of 7 samples against a 4-deep queue: 4 admitted, 3
    // refused, and each refusal must name the exact (session, sequence)
    // it cost the sender.
    const std::vector<data::raw_sample> batch(7, quiet_sample());
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 42, 100, batch);
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));

    frame_decoder decoder;
    decoder.push(replies);
    frame f;
    for (const std::uint32_t seq : {104u, 105u, 106u}) {
        ASSERT_EQ(decoder.next(f), decode_status::ok);
        EXPECT_EQ(f.type, frame_type::status);
        EXPECT_EQ(f.session, 42u);
        EXPECT_EQ(f.sequence, seq);
        EXPECT_EQ(static_cast<status_code>(f.status), status_code::queue_full);
    }
    EXPECT_EQ(decoder.next(f), decode_status::need_more);

    const gateway_stats& stats = gateway.stats();
    EXPECT_EQ(stats.samples_in, 7u);
    EXPECT_EQ(stats.samples_rejected, 3u);
    EXPECT_EQ(stats.reject_frames_out, 3u);
    EXPECT_EQ(stats.status_frames_out, 3u);
    EXPECT_EQ(fleet.totals().rejected, 3u);

    // Draining the queue with a tick makes room again: the next offer
    // is admitted silently.
    std::vector<std::uint8_t> more;
    encode_tick(more);
    const data::raw_sample s = quiet_sample();
    encode_samples(more, 42, 107, {&s, 1});
    replies.clear();
    ASSERT_TRUE(gateway.on_bytes(conn, more, replies));
    EXPECT_TRUE(replies.empty());
}

TEST(SessionGatewayTest, CloseEvictsAndUnknownCloseAnswersStatus) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> replies;

    // Closing a session this connection never opened is answered, not
    // crashed on: the sender learns its id bookkeeping is off.
    encode_close(bytes, 99);
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    frame_decoder decoder;
    decoder.push(replies);
    frame f;
    ASSERT_EQ(decoder.next(f), decode_status::ok);
    EXPECT_EQ(f.type, frame_type::status);
    EXPECT_EQ(f.session, 99u);
    EXPECT_EQ(static_cast<status_code>(f.status), status_code::unknown_session);

    // First sample frame admits; close evicts; the next sample frame
    // under the same wire id admits a brand-new router session.
    const data::raw_sample s = quiet_sample();
    bytes.clear();
    replies.clear();
    encode_samples(bytes, 5, 0, {&s, 1});
    encode_close(bytes, 5);
    encode_samples(bytes, 5, 0, {&s, 1});
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    EXPECT_TRUE(replies.empty());

    const gateway_stats& stats = gateway.stats();
    EXPECT_EQ(stats.sessions_opened, 2u);
    EXPECT_EQ(stats.sessions_closed, 1u);
    EXPECT_EQ(stats.samples_in, 2u);
}

TEST(SessionGatewayTest, SequenceGapsAreCountedAndRolloverIsNotAGap) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();
    const std::vector<data::raw_sample> pair(2, quiet_sample());
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> replies;

    // Session 1 starts two samples before u32 rollover: 0xfffffffe,
    // 0xffffffff, then — wrapping — 0, 1.  Contiguous, no gap.
    encode_samples(bytes, 1, 0xfffffffeu, pair);
    encode_samples(bytes, 1, 0, pair);
    // Session 2 loses a frame in flight: 10..11, then 20.  One gap.
    encode_samples(bytes, 2, 10, pair);
    encode_samples(bytes, 2, 20, pair);
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));

    EXPECT_EQ(gateway.stats().seq_gaps, 1u);
    // Gapped samples still feed — sequence tracking is diagnostic, not
    // admission control.
    EXPECT_EQ(gateway.stats().samples_in, 8u);
    EXPECT_EQ(fleet.totals().accepted, 8u);
}

TEST(SessionGatewayTest, MalformedStreamAnswersStatusAndKillsConnection) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();

    const std::vector<std::uint8_t> junk = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T',
                                            'P', '/', '1', '.', '1'};
    std::vector<std::uint8_t> replies;
    EXPECT_FALSE(gateway.on_bytes(conn, junk, replies));

    frame_decoder decoder;
    decoder.push(replies);
    frame f;
    ASSERT_EQ(decoder.next(f), decode_status::ok);
    EXPECT_EQ(f.type, frame_type::status);
    EXPECT_EQ(static_cast<status_code>(f.status), status_code::malformed_frame);
    EXPECT_EQ(gateway.stats().decode_errors, 1u);

    gateway.close_connection(conn);
    EXPECT_EQ(gateway.stats().connections_closed, 1u);
}

TEST(SessionGatewayTest, MultiConnectionRunMatchesSingleConnection) {
    const std::vector<data::trial> trials = {make_trial(20, 41), make_trial(6, 42)};
    const std::size_t ticks = 40;

    // Reference: both sessions' frames interleaved on one connection.
    run_result single;
    {
        fleet_router fleet(make_config(), freefall());
        session_gateway gateway(fleet, [&](const serve::tick_result& r) {
            collect(r, single.triggers);
        });
        const auto conn = gateway.open_connection();
        std::vector<std::uint8_t> bytes;
        std::vector<std::size_t> cursors(trials.size(), 0);
        std::vector<std::uint32_t> seq(trials.size(), 0);
        for (std::size_t t = 0; t < ticks; ++t) {
            for (std::size_t i = 0; i < trials.size(); ++i) {
                const auto& samples = trials[i].samples;
                const data::raw_sample& s = samples[cursors[i]++ % samples.size()];
                encode_samples(bytes, static_cast<std::uint32_t>(i), seq[i]++, {&s, 1});
            }
            encode_tick(bytes);
        }
        encode_bye(bytes);
        std::vector<std::uint8_t> replies;
        ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
        EXPECT_TRUE(gateway.bye_received());
        EXPECT_EQ(gateway.stats().ticks, ticks);
        single.totals = fleet.totals();
    }

    // Same traffic, one connection per session, each voting its own
    // ticks — and connection 0 delivered entirely BEFORE connection 1,
    // the most adversarial interleaving the transport could produce.
    run_result split;
    {
        fleet_router fleet(make_config(), freefall());
        session_gateway gateway(fleet, [&](const serve::tick_result& r) {
            collect(r, split.triggers);
        });
        const auto conn_a = gateway.open_connection();
        const auto conn_b = gateway.open_connection();
        std::vector<std::uint8_t> bytes_a;
        std::vector<std::uint8_t> bytes_b;
        std::vector<std::size_t> cursors(trials.size(), 0);
        std::vector<std::uint32_t> seq(trials.size(), 0);
        for (std::size_t t = 0; t < ticks; ++t) {
            for (std::size_t i = 0; i < trials.size(); ++i) {
                const auto& samples = trials[i].samples;
                const data::raw_sample& s = samples[cursors[i]++ % samples.size()];
                std::vector<std::uint8_t>& bytes = i == 0 ? bytes_a : bytes_b;
                encode_samples(bytes, static_cast<std::uint32_t>(i), seq[i]++, {&s, 1});
            }
            encode_tick(bytes_a);
            encode_tick(bytes_b);
        }
        encode_bye(bytes_a);
        encode_bye(bytes_b);
        std::vector<std::uint8_t> replies;
        ASSERT_TRUE(gateway.on_bytes(conn_a, bytes_a, replies));
        // Connection A ran the whole script ahead: no tick may have run
        // yet (B never voted) and bye is not complete.
        EXPECT_EQ(gateway.stats().ticks, 0u);
        EXPECT_FALSE(gateway.bye_received());
        ASSERT_TRUE(gateway.on_bytes(conn_b, bytes_b, replies));
        EXPECT_TRUE(gateway.bye_received());
        EXPECT_EQ(gateway.stats().ticks, ticks);
        split.totals = fleet.totals();
    }

    EXPECT_EQ(single.triggers, split.triggers);
    EXPECT_EQ(single.totals.accepted, split.totals.accepted);
    EXPECT_EQ(single.totals.ingested, split.totals.ingested);
    EXPECT_EQ(single.totals.windows_scored, split.totals.windows_scored);
    EXPECT_EQ(single.totals.triggers, split.totals.triggers);
}

TEST(SessionGatewayTest, TickBarrierWithholdsNextRoundSamples) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn_a = gateway.open_connection();
    const auto conn_b = gateway.open_connection();
    const data::raw_sample s = quiet_sample();

    // Connection A runs a round ahead: round-0 sample, vote, round-1
    // sample.  The round-1 sample must stay buffered until B's vote
    // completes the barrier and round 0 actually ticks.
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 0, 0, {&s, 1});
    encode_tick(bytes);
    encode_samples(bytes, 0, 1, {&s, 1});
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn_a, bytes, replies));
    EXPECT_EQ(gateway.stats().ticks, 0u);
    EXPECT_EQ(fleet.totals().accepted, 1u);

    bytes.clear();
    encode_samples(bytes, 1, 0, {&s, 1});
    encode_tick(bytes);
    ASSERT_TRUE(gateway.on_bytes(conn_b, bytes, replies));
    EXPECT_EQ(gateway.stats().ticks, 1u);
    EXPECT_EQ(fleet.totals().accepted, 3u);  // A's round-1 sample released
}

TEST(SessionGatewayTest, ByeCompletesOnlyWhenEveryConnectionFinished) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn_a = gateway.open_connection();
    const auto conn_b = gateway.open_connection();

    std::vector<std::uint8_t> bye;
    encode_bye(bye);
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn_a, bye, replies));
    EXPECT_FALSE(gateway.bye_received());
    ASSERT_TRUE(gateway.on_bytes(conn_b, bye, replies));
    EXPECT_TRUE(gateway.bye_received());
}

TEST(SessionGatewayTest, ConnectionDepartureReleasesBarrierAndBye) {
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn_a = gateway.open_connection();
    const auto conn_b = gateway.open_connection();
    const data::raw_sample s = quiet_sample();

    // A votes and says bye; B neither votes nor byes, then drops (a
    // crashed sender).  The departure must both run A's pending round
    // and complete the run.
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 0, 0, {&s, 1});
    encode_tick(bytes);
    encode_bye(bytes);
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn_a, bytes, replies));
    EXPECT_EQ(gateway.stats().ticks, 0u);
    EXPECT_FALSE(gateway.bye_received());

    gateway.close_connection(conn_b);
    EXPECT_EQ(gateway.stats().ticks, 1u);
    EXPECT_TRUE(gateway.bye_received());
}

TEST(SessionGatewayTest, RestoredWireSessionAdoptsRouterSession) {
    fleet_router fleet(make_config(), freefall());
    const serve::session_id restored = fleet.create_session();
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();

    gateway.restore_wire_sessions(
        std::vector<restored_session>{{7, restored, 10}});

    // First sample frame for wire id 7 adopts the restored router
    // session (no admission) and expects sequence 10 — a correctly
    // resumed sender registers zero gaps.
    const data::raw_sample s = quiet_sample();
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 7, 10, {&s, 1});
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    EXPECT_EQ(gateway.stats().sessions_rebound, 1u);
    EXPECT_EQ(gateway.stats().sessions_opened, 0u);
    EXPECT_EQ(gateway.stats().seq_gaps, 0u);
    EXPECT_EQ(fleet.stats(restored).accepted, 1u);
    EXPECT_EQ(fleet.live_session_count(), 1u);

    // A rebind is consumed once: an unknown wire id still admits fresh.
    bytes.clear();
    encode_samples(bytes, 8, 0, {&s, 1});
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    EXPECT_EQ(gateway.stats().sessions_opened, 1u);
    EXPECT_EQ(fleet.live_session_count(), 2u);
}

TEST(SessionGatewayTest, RestoredSessionResumingOffSequenceCountsAGap) {
    fleet_router fleet(make_config(), freefall());
    const serve::session_id restored = fleet.create_session();
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();
    gateway.restore_wire_sessions(
        std::vector<restored_session>{{3, restored, 25}});

    const data::raw_sample s = quiet_sample();
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 3, 11, {&s, 1});  // expected 25
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    EXPECT_EQ(gateway.stats().sessions_rebound, 1u);
    EXPECT_EQ(gateway.stats().seq_gaps, 1u);
}

TEST(SessionGatewayTest, PublishMetricsEmitsTheFullNetCounterSet) {
    obs::reset();
    obs::set_enabled(true);
    fleet_router fleet(make_config(), freefall());
    session_gateway gateway(fleet);
    const auto conn = gateway.open_connection();
    const data::raw_sample s = quiet_sample();
    std::vector<std::uint8_t> bytes;
    encode_samples(bytes, 0, 0, {&s, 1});
    encode_tick(bytes);
    encode_bye(bytes);
    std::vector<std::uint8_t> replies;
    ASSERT_TRUE(gateway.on_bytes(conn, bytes, replies));
    EXPECT_TRUE(gateway.bye_received());

    // Before publish: the registry carries no transport counters at all
    // (that is what keeps transport-double manifests comparable).
    for (const obs::counter_snapshot& c : obs::snapshot().counters) {
        EXPECT_FALSE(c.name.starts_with("net/")) << c.name;
    }

    gateway.publish_metrics();
    const std::vector<std::string> expected = {
        "net/bytes_in",         "net/bytes_out",       "net/frames_in",
        "net/samples_in",       "net/samples_rejected", "net/reject_frames_out",
        "net/status_frames_out", "net/ticks",           "net/sessions_opened",
        "net/sessions_rebound", "net/sessions_closed", "net/seq_gaps",
        "net/decode_errors",    "net/connections_opened", "net/connections_closed"};
    const obs::metrics_snapshot snap = obs::snapshot();
    for (const std::string& name : expected) {
        const bool found = std::any_of(snap.counters.begin(), snap.counters.end(),
                                       [&](const obs::counter_snapshot& c) {
                                           return c.name == name;
                                       });
        EXPECT_TRUE(found) << name << " missing from the published counter set";
    }
    obs::set_enabled(false);
    obs::reset();
}

}  // namespace
}  // namespace fallsense::net
