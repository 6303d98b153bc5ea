// Codec-level tests for the v1 checkpoint byte format: the CRC vector,
// round-trips, the golden worked example from docs/checkpoint.md, and the
// malformed-input table (every decode_status reachable, truncation at
// every byte boundary, nothing read out of bounds).
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "data/synthesizer.hpp"
#include "serve/scorer_factory.hpp"

namespace fallsense::ckpt {
namespace {

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

serve::fleet_config make_config(std::size_t shards = 2) {
    serve::fleet_config c;
    c.engine.detector.window_samples = 20;
    c.engine.detector.overlap_fraction = 0.5;
    c.engine.detector.threshold = 0.65;
    c.engine.queue_capacity = 4;
    c.shards = shards;
    return c;
}

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

/// A snapshot with real mileage on it: churned sessions (evicted ids in
/// the routing table), queued samples, warm filter/ring state, and a
/// hand-planted obs image.
fleet_snapshot populated_snapshot() {
    serve::fleet_router fleet(make_config(), freefall());
    std::vector<data::trial> trials = {make_trial(20, 7), make_trial(6, 8),
                                       make_trial(1, 9)};
    std::vector<serve::session_id> ids;
    for (std::size_t i = 0; i < trials.size(); ++i) ids.push_back(fleet.create_session());
    std::vector<std::size_t> cursors(trials.size(), 0);
    for (std::size_t t = 0; t < 25; ++t) {
        for (std::size_t i = 0; i < trials.size(); ++i) {
            if (!fleet.is_live(ids[i])) continue;
            const auto& samples = trials[i].samples;
            fleet.feed(ids[i], samples[cursors[i]++ % samples.size()]);
            fleet.feed(ids[i], samples[cursors[i]++ % samples.size()]);
        }
        fleet.tick();
        if (t == 9) fleet.evict_session(ids[1]);  // leave a hole in the table
    }
    fleet.swap_scorer(freefall());
    fleet_snapshot snap = capture(fleet);
    snap.obs.counters.emplace_back("serve/ticks", 25);
    snap.obs.counters.emplace_back("serve/triggers", 2);
    snap.obs.gauges.emplace_back("serve/live_sessions", 2.0);
    snap.obs.stage_counts.emplace_back("ingest", 25);
    return snap;
}

TEST(CheckpointCodecTest, Crc32MatchesTheStandardCheckVector) {
    const std::string check = "123456789";
    const std::span<const std::uint8_t> bytes{
        reinterpret_cast<const std::uint8_t*>(check.data()), check.size()};
    EXPECT_EQ(crc32(bytes), 0xCBF43926u);
    EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(CheckpointCodecTest, EncodeDecodeRoundTripsANontrivialSnapshot) {
    const fleet_snapshot snap = populated_snapshot();
    ASSERT_GE(snap.fleet.sessions.size(), 2u);
    ASSERT_GT(snap.fleet.live.size(), snap.fleet.sessions.size());  // evicted hole

    const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
    fleet_snapshot decoded;
    ASSERT_EQ(decode_snapshot(bytes, decoded), decode_status::ok);

    EXPECT_EQ(decoded.config, snap.config);
    EXPECT_EQ(decoded.fleet.ticks, snap.fleet.ticks);
    EXPECT_EQ(decoded.fleet.swap_generation, snap.fleet.swap_generation);
    EXPECT_EQ(decoded.fleet.shard_count, snap.fleet.shard_count);
    EXPECT_EQ(decoded.fleet.live, snap.fleet.live);
    EXPECT_EQ(decoded.obs.counters, snap.obs.counters);
    EXPECT_EQ(decoded.obs.gauges, snap.obs.gauges);
    EXPECT_EQ(decoded.obs.stage_counts, snap.obs.stage_counts);
    // Field-by-field equality is already pinned above for everything with
    // an operator==; the sessions round-trip is pinned bit-exactly by
    // re-encoding the decoded value.
    EXPECT_EQ(encode_snapshot(decoded), bytes);
}

// --- the golden worked example from docs/checkpoint.md ------------------

/// Exactly the snapshot docs/checkpoint.md walks through byte by byte: a
/// 1-shard fleet at tick 3 after one swap, two sessions admitted and both
/// evicted, and a single obs counter.  Keep in lockstep with the doc.
fleet_snapshot doc_example_snapshot() {
    fleet_snapshot snap;
    snap.config.window_samples = 2;
    snap.config.overlap_fraction = 0.5;
    snap.config.threshold = 0.65;
    snap.config.consecutive_required = 1;
    snap.config.sample_rate_hz = 25.0;
    snap.config.filter_order = 2;
    snap.config.cutoff_hz = 7.6;
    snap.config.gyro_weight = 0.02;
    snap.config.queue_capacity = 4;
    snap.config.drop_policy = 1;
    snap.config.samples_per_tick = 1;
    snap.config.max_samples_per_tick = 0;
    snap.config.drain_watermark = 0;
    snap.fleet.ticks = 3;
    snap.fleet.swap_generation = 1;
    snap.fleet.shard_count = 1;
    snap.fleet.live = {0, 0};
    serve::session_stats retired;
    retired.accepted = 6;
    retired.dropped = 0;
    retired.rejected = 1;
    retired.ingested = 6;
    retired.windows_scored = 2;
    retired.triggers = 1;
    snap.fleet.retired = {retired};
    snap.obs.counters.emplace_back("serve/ticks", 3);
    return snap;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
    std::string hex;
    hex.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
        char buf[3];
        std::snprintf(buf, sizeof(buf), "%02x", b);
        hex += buf;
    }
    return hex;
}

// The encoding of doc_example_snapshot(), verbatim from the worked example
// in docs/checkpoint.md.  If this test breaks, the format changed: bump
// k_checkpoint_version and rewrite the doc — never silently re-golden.
constexpr const char* k_doc_example_hex =
    "4653434b01000400"                  // file header: FSCK v1 res=0 sections=4
    "4d4554419100000071ac4e9c"          // META len=0x91 crc
    "0300000000000000"                  // ticks=3
    "0100000000000000"                  // swap_generation=1
    "01000000"                          // shard_count=1
    "02000000"                          // total_sessions=2
    "00000000"                          // live_sessions=0
    "02000000"                          // window_samples=2
    "000000000000e03f"                  // overlap_fraction=0.5
    "cdcccccccccce43f"                  // threshold=0.65
    "01000000"                          // consecutive_required=1
    "0000000000003940"                  // sample_rate_hz=25.0
    "02000000"                          // filter_order=2
    "6666666666661e40"                  // cutoff_hz=7.6
    "7b14ae47e17a943f"                  // gyro_weight=0.02
    "04000000"                          // queue_capacity=4
    "01"                                // drop_policy=1 (drop-oldest)
    "01000000"                          // samples_per_tick=1
    "00000000"                          // max_samples_per_tick=0
    "00000000"                          // drain_watermark=0
    "0600000000000000"                  // retired[0].accepted=6
    "0000000000000000"                  // retired[0].dropped=0
    "0100000000000000"                  // retired[0].rejected=1
    "0600000000000000"                  // retired[0].ingested=6
    "0200000000000000"                  // retired[0].windows_scored=2
    "0100000000000000"                  // retired[0].triggers=1
    "524f555402000000ff12d941"          // ROUT len=2 crc
    "0000"                              // live flags: both evicted
    "534553530000000000000000"          // SESS len=0 crc(empty)=0
    "4f42534321000000a354f10f"          // OBSC len=0x21 crc
    "01000000"                          // counter count=1
    "0b00"                              // name len=11
    "73657276652f7469636b73"            // "serve/ticks"
    "0300000000000000"                  // value=3
    "00000000"                          // gauge count=0
    "00000000";                         // stage count=0

TEST(CheckpointCodecTest, GoldenBytesMatchTheDocWorkedExample) {
    const std::vector<std::uint8_t> bytes = encode_snapshot(doc_example_snapshot());
    EXPECT_EQ(to_hex(bytes), k_doc_example_hex);
    fleet_snapshot decoded;
    ASSERT_EQ(decode_snapshot(bytes, decoded), decode_status::ok);
    EXPECT_EQ(decoded.fleet.ticks, 3u);
    EXPECT_EQ(decoded.fleet.live, (std::vector<std::uint8_t>{0, 0}));
}

// --- malformed-input table ---------------------------------------------

/// Patch one payload byte and re-frame its section CRC so the corruption
/// reaches the payload parser instead of tripping the CRC gate.
void patch_payload_byte(std::vector<std::uint8_t>& bytes, std::size_t section_start,
                        std::size_t payload_offset, std::uint8_t value) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(bytes[section_start + 4 + i]) << (8 * i);
    }
    ASSERT_LT(payload_offset, len);
    const std::size_t payload = section_start + k_section_header_bytes;
    bytes[payload + payload_offset] = value;
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>{bytes.data() + payload, len});
    for (int i = 0; i < 4; ++i) {
        bytes[section_start + 8 + i] = static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
    }
}

TEST(CheckpointCodecTest, EveryStrictPrefixDecodesAsTruncated) {
    const std::vector<std::uint8_t> full = encode_snapshot(doc_example_snapshot());
    for (std::size_t len = 0; len < full.size(); ++len) {
        fleet_snapshot out;
        const std::span<const std::uint8_t> prefix{full.data(), len};
        EXPECT_EQ(decode_snapshot(prefix, out), decode_status::truncated)
            << "prefix length " << len;
    }
}

TEST(CheckpointCodecTest, MalformedInputsMapToTheirStatuses) {
    const std::vector<std::uint8_t> good = encode_snapshot(doc_example_snapshot());
    fleet_snapshot out;

    {  // wrong magic
        std::vector<std::uint8_t> b = good;
        b[0] = 'X';
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_magic);
    }
    {  // future version
        std::vector<std::uint8_t> b = good;
        b[4] = 2;
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_version);
    }
    {  // reserved byte set
        std::vector<std::uint8_t> b = good;
        b[5] = 1;
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_payload);
    }
    {  // wrong section count
        std::vector<std::uint8_t> b = good;
        b[6] = 3;
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_section);
    }
    {  // wrong first tag ("META" -> "XETA")
        std::vector<std::uint8_t> b = good;
        b[k_file_header_bytes] = 'X';
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_section);
    }
    {  // payload bit flip without re-framing the CRC
        std::vector<std::uint8_t> b = good;
        b[k_file_header_bytes + k_section_header_bytes] ^= 0x01;
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_crc);
    }
    {  // trailing garbage after the last section
        std::vector<std::uint8_t> b = good;
        b.push_back(0);
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_payload);
    }
    {  // well-framed but nonsense content: drop_policy=9, CRC fixed up
        std::vector<std::uint8_t> b = good;
        // drop_policy sits after the 28-byte fleet prefix and 56 bytes of
        // fingerprint fields inside META (docs/checkpoint.md field table).
        patch_payload_byte(b, k_file_header_bytes, 28 + 56, 9);
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_payload);
    }
    {  // live flag out of range, CRC fixed up (ROUT follows META)
        std::vector<std::uint8_t> b = good;
        std::uint32_t meta_len = 0;
        for (int i = 0; i < 4; ++i) {
            meta_len |= static_cast<std::uint32_t>(b[k_file_header_bytes + 4 + i]) << (8 * i);
        }
        const std::size_t rout = k_file_header_bytes + k_section_header_bytes + meta_len;
        patch_payload_byte(b, rout, 0, 2);
        EXPECT_EQ(decode_snapshot(b, out), decode_status::bad_payload);
    }

    // Non-finite session state, each in an otherwise valid encoding: feed()
    // refuses such samples, so a restore must not bring one back.
    const fleet_snapshot live = populated_snapshot();
    ASSERT_FALSE(live.fleet.sessions.empty());
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    auto decode_with = [&](auto&& edit) {
        fleet_snapshot snap = live;
        edit(snap.fleet.sessions.front());
        fleet_snapshot decoded;
        return decode_snapshot(encode_snapshot(snap), decoded);
    };
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) {
                  sc.queue.push_back({});
                  sc.queue.back().gyro[1] = nan;
              }),
              decode_status::bad_payload)
        << "NaN queued sample";
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) {
                  sc.detector.filter_state.at(3) = inf;
              }),
              decode_status::bad_payload)
        << "+inf filter value";
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) { sc.detector.ring.at(5) = nan; }),
              decode_status::bad_payload)
        << "NaN ring value";
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) {
                  sc.detector.attitude.roll = -inf;
              }),
              decode_status::bad_payload)
        << "-inf attitude";
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) { sc.detector.last_score = inf; }),
              decode_status::bad_payload)
        << "+inf last score";
    // A NaN last score means "no window scored yet" and stays legal.
    EXPECT_EQ(decode_with([&](serve::session_checkpoint& sc) { sc.detector.last_score = nan; }),
              decode_status::ok);

    // A failed decode consumes nothing and poisons nothing: the pristine
    // buffer still decodes cleanly afterwards.
    EXPECT_EQ(decode_snapshot(good, out), decode_status::ok);
}

TEST(CheckpointCodecTest, EncodedSectionCrcsVerifyIndependently) {
    const std::vector<std::uint8_t> bytes = encode_snapshot(populated_snapshot());
    std::size_t cursor = k_file_header_bytes;
    for (int s = 0; s < 4; ++s) {
        ASSERT_LE(cursor + k_section_header_bytes, bytes.size());
        std::uint32_t len = 0;
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i) {
            len |= static_cast<std::uint32_t>(bytes[cursor + 4 + i]) << (8 * i);
            stored |= static_cast<std::uint32_t>(bytes[cursor + 8 + i]) << (8 * i);
        }
        cursor += k_section_header_bytes;
        ASSERT_LE(cursor + len, bytes.size());
        EXPECT_EQ(crc32(std::span<const std::uint8_t>{bytes.data() + cursor, len}), stored);
        cursor += len;
    }
    EXPECT_EQ(cursor, bytes.size());
}

}  // namespace
}  // namespace fallsense::ckpt
