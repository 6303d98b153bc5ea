#include "ckpt/checkpoint.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "core/preprocess.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"

namespace fallsense::ckpt {

namespace {

// --- little-endian primitives (explicit byte stores/loads, same idiom as
// --- the wire codec: no reinterpret_cast, no alignment assumptions) ---

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
    put_u32(out, std::bit_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over one section payload.  Every get_* returns
/// false instead of reading past the end; a false anywhere maps to
/// `bad_payload` (the section was framed correctly but its content claims
/// more than it holds).
struct reader {
    std::span<const std::uint8_t> buf;
    std::size_t pos = 0;

    std::size_t remaining() const { return buf.size() - pos; }
    bool done() const { return pos == buf.size(); }

    bool get_u8(std::uint8_t& v) {
        if (remaining() < 1) return false;
        v = buf[pos++];
        return true;
    }
    bool get_u16(std::uint16_t& v) {
        if (remaining() < 2) return false;
        v = static_cast<std::uint16_t>(buf[pos] | (buf[pos + 1] << 8));
        pos += 2;
        return true;
    }
    bool get_u32(std::uint32_t& v) {
        if (remaining() < 4) return false;
        v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[pos + i]) << (8 * i);
        pos += 4;
        return true;
    }
    bool get_u64(std::uint64_t& v) {
        if (remaining() < 8) return false;
        v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[pos + i]) << (8 * i);
        pos += 8;
        return true;
    }
    bool get_f32(float& v) {
        std::uint32_t raw = 0;
        if (!get_u32(raw)) return false;
        v = std::bit_cast<float>(raw);
        return true;
    }
    bool get_f64(double& v) {
        std::uint64_t raw = 0;
        if (!get_u64(raw)) return false;
        v = std::bit_cast<double>(raw);
        return true;
    }
    bool get_name(std::string& v) {
        std::uint16_t len = 0;
        if (!get_u16(len) || len == 0 || remaining() < len) return false;
        v.assign(reinterpret_cast<const char*>(buf.data() + pos), len);
        pos += len;
        return true;
    }
};

constexpr std::array<std::uint8_t, 4> k_tag_meta{'M', 'E', 'T', 'A'};
constexpr std::array<std::uint8_t, 4> k_tag_rout{'R', 'O', 'U', 'T'};
constexpr std::array<std::uint8_t, 4> k_tag_sess{'S', 'E', 'S', 'S'};
constexpr std::array<std::uint8_t, 4> k_tag_obsc{'O', 'B', 'S', 'C'};

std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    return table;
}

/// Per-session wire size derived from the fingerprint (fixed part plus the
/// queue payload); the derived buffer sizes are what decode validates the
/// stream against.
std::size_t session_fixed_bytes(std::size_t filter_vals, std::size_t ring_elems) {
    return 4 + 6 * 8 + 4 + 4          // id, stats, drain rate, queue depth
           + 8 + 8 + 4 + 1 + 3 * 8    // tick, positive run, last score, fusion, attitude
           + filter_vals * 8 + ring_elems * 4;
}

void put_stats(std::vector<std::uint8_t>& out, const serve::session_stats& s) {
    put_u64(out, s.accepted);
    put_u64(out, s.dropped);
    put_u64(out, s.rejected);
    put_u64(out, s.ingested);
    put_u64(out, s.windows_scored);
    put_u64(out, s.triggers);
}

bool get_stats(reader& r, serve::session_stats& s) {
    return r.get_u64(s.accepted) && r.get_u64(s.dropped) && r.get_u64(s.rejected) &&
           r.get_u64(s.ingested) && r.get_u64(s.windows_scored) && r.get_u64(s.triggers);
}

void append_section(std::vector<std::uint8_t>& out, const std::array<std::uint8_t, 4>& tag,
                    const std::vector<std::uint8_t>& payload) {
    out.insert(out.end(), tag.begin(), tag.end());
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
}

decode_status parse_meta(reader r, fleet_snapshot& out, std::uint32_t& total_sessions,
                         std::uint32_t& live_sessions) {
    config_fingerprint& fp = out.config;
    std::uint32_t shard_count = 0;
    if (!r.get_u64(out.fleet.ticks) || !r.get_u64(out.fleet.swap_generation) ||
        !r.get_u32(shard_count) || !r.get_u32(total_sessions) || !r.get_u32(live_sessions) ||
        !r.get_u32(fp.window_samples) || !r.get_f64(fp.overlap_fraction) ||
        !r.get_f64(fp.threshold) || !r.get_u32(fp.consecutive_required) ||
        !r.get_f64(fp.sample_rate_hz) || !r.get_u32(fp.filter_order) ||
        !r.get_f64(fp.cutoff_hz) || !r.get_f64(fp.gyro_weight) ||
        !r.get_u32(fp.queue_capacity) || !r.get_u8(fp.drop_policy) ||
        !r.get_u32(fp.samples_per_tick) || !r.get_u32(fp.max_samples_per_tick) ||
        !r.get_u32(fp.drain_watermark)) {
        return decode_status::bad_payload;
    }
    if (shard_count == 0 || live_sessions > total_sessions) return decode_status::bad_payload;
    if (fp.window_samples == 0 || fp.filter_order < 2 || fp.filter_order % 2 != 0) {
        return decode_status::bad_payload;
    }
    if (fp.drop_policy != 1 && fp.drop_policy != 2) return decode_status::bad_payload;
    out.fleet.shard_count = shard_count;
    out.fleet.retired.clear();
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        serve::session_stats stats;
        if (!get_stats(r, stats)) return decode_status::bad_payload;
        out.fleet.retired.push_back(stats);
    }
    return r.done() ? decode_status::ok : decode_status::bad_payload;
}

decode_status parse_rout(reader r, fleet_snapshot& out, std::uint32_t total_sessions,
                         std::uint32_t live_sessions) {
    if (r.remaining() != total_sessions) return decode_status::bad_payload;
    out.fleet.live.clear();
    out.fleet.live.reserve(total_sessions);
    std::uint32_t live_seen = 0;
    for (std::uint32_t i = 0; i < total_sessions; ++i) {
        std::uint8_t flag = 0;
        if (!r.get_u8(flag) || flag > 1) return decode_status::bad_payload;
        live_seen += flag;
        out.fleet.live.push_back(flag);
    }
    if (live_seen != live_sessions) return decode_status::bad_payload;
    return decode_status::ok;
}

decode_status parse_sess(reader r, fleet_snapshot& out, std::uint32_t total_sessions,
                         std::uint32_t live_sessions) {
    const std::size_t ring_elems =
        static_cast<std::size_t>(out.config.window_samples) * core::k_feature_channels;
    const std::size_t filter_vals = 6 * (out.config.filter_order / 2) * 2;
    out.fleet.sessions.clear();
    out.fleet.sessions.reserve(live_sessions);
    std::int64_t prev_id = -1;
    for (std::uint32_t i = 0; i < live_sessions; ++i) {
        serve::session_checkpoint& sc = out.fleet.sessions.emplace_back();
        std::uint32_t gid = 0;
        if (!r.get_u32(gid)) return decode_status::bad_payload;
        if (static_cast<std::int64_t>(gid) <= prev_id || gid >= total_sessions ||
            out.fleet.live[gid] != 1) {
            return decode_status::bad_payload;
        }
        prev_id = gid;
        sc.global_id = gid;
        std::uint32_t drain = 0;
        std::uint32_t depth = 0;
        if (!get_stats(r, sc.stats) || !r.get_u32(drain) || !r.get_u32(depth)) {
            return decode_status::bad_payload;
        }
        sc.drain_rate = drain;
        if (r.remaining() < static_cast<std::uint64_t>(depth) * 24) {
            return decode_status::bad_payload;
        }
        sc.queue.clear();
        sc.queue.reserve(depth);
        for (std::uint32_t q = 0; q < depth; ++q) {
            data::raw_sample sample{};
            for (float& v : sample.accel) {
                if (!r.get_f32(v)) return decode_status::bad_payload;
            }
            for (float& v : sample.gyro) {
                if (!r.get_f32(v)) return decode_status::bad_payload;
            }
            // feed() refuses non-finite samples; a snapshot may not smuggle one in.
            if (!serve::sample_is_finite(sample)) return decode_status::bad_payload;
            sc.queue.push_back(sample);
        }
        core::detector_state_image& img = sc.detector;
        std::uint8_t fusion_flag = 0;
        if (!r.get_u64(img.tick) || !r.get_u64(img.positive_run) ||
            !r.get_f32(img.last_score) || !r.get_u8(fusion_flag) || fusion_flag > 1 ||
            !r.get_f64(img.attitude.pitch) || !r.get_f64(img.attitude.roll) ||
            !r.get_f64(img.attitude.yaw)) {
            return decode_status::bad_payload;
        }
        // last_score may be NaN ("no window scored yet"), never infinite.
        if (std::isinf(img.last_score) || !std::isfinite(img.attitude.pitch) ||
            !std::isfinite(img.attitude.roll) || !std::isfinite(img.attitude.yaw)) {
            return decode_status::bad_payload;
        }
        img.fusion_initialized = fusion_flag == 1;
        if (r.remaining() < filter_vals * 8 + ring_elems * 4) return decode_status::bad_payload;
        img.filter_state.clear();
        img.filter_state.reserve(filter_vals);
        for (std::size_t v = 0; v < filter_vals; ++v) {
            double d = 0.0;
            if (!r.get_f64(d) || !std::isfinite(d)) return decode_status::bad_payload;
            img.filter_state.push_back(d);
        }
        img.ring.clear();
        img.ring.reserve(ring_elems);
        for (std::size_t v = 0; v < ring_elems; ++v) {
            float f = 0.0f;
            if (!r.get_f32(f) || !std::isfinite(f)) return decode_status::bad_payload;
            img.ring.push_back(f);
        }
    }
    return r.done() ? decode_status::ok : decode_status::bad_payload;
}

decode_status parse_obsc(reader r, fleet_snapshot& out) {
    std::uint32_t n = 0;
    if (!r.get_u32(n)) return decode_status::bad_payload;
    out.obs.counters.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t value = 0;
        if (!r.get_name(name) || !r.get_u64(value)) return decode_status::bad_payload;
        out.obs.counters.emplace_back(std::move(name), value);
    }
    if (!r.get_u32(n)) return decode_status::bad_payload;
    out.obs.gauges.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        double value = 0.0;
        if (!r.get_name(name) || !r.get_f64(value)) return decode_status::bad_payload;
        out.obs.gauges.emplace_back(std::move(name), value);
    }
    if (!r.get_u32(n)) return decode_status::bad_payload;
    out.obs.stage_counts.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t count = 0;
        if (!r.get_name(name) || !r.get_u64(count)) return decode_status::bad_payload;
        out.obs.stage_counts.emplace_back(std::move(name), count);
    }
    return r.done() ? decode_status::ok : decode_status::bad_payload;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
    static const std::array<std::uint32_t, 256> table = make_crc_table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xff] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

const char* decode_status_name(decode_status status) {
    switch (status) {
        case decode_status::ok: return "ok";
        case decode_status::truncated: return "truncated";
        case decode_status::bad_magic: return "bad_magic";
        case decode_status::bad_version: return "bad_version";
        case decode_status::bad_section: return "bad_section";
        case decode_status::bad_crc: return "bad_crc";
        case decode_status::bad_payload: return "bad_payload";
    }
    return "?";
}

std::vector<std::uint8_t> encode_snapshot(const fleet_snapshot& snapshot) {
    const config_fingerprint& fp = snapshot.config;
    const serve::fleet_checkpoint& fleet = snapshot.fleet;
    FS_ARG_CHECK(fp.window_samples > 0, "snapshot fingerprint window must be positive");
    FS_ARG_CHECK(fp.filter_order >= 2 && fp.filter_order % 2 == 0,
                 "snapshot fingerprint filter order must be even and >= 2");
    FS_ARG_CHECK(fp.drop_policy == 1 || fp.drop_policy == 2,
                 "snapshot fingerprint drop policy must be 1 or 2");
    FS_ARG_CHECK(fleet.shard_count > 0, "snapshot needs at least one shard");
    FS_ARG_CHECK(fleet.retired.size() == fleet.shard_count,
                 "snapshot retired stats must cover every shard");
    std::size_t live_total = 0;
    for (const std::uint8_t flag : fleet.live) {
        FS_ARG_CHECK(flag <= 1, "snapshot live flags must be 0 or 1");
        live_total += flag;
    }
    FS_ARG_CHECK(fleet.sessions.size() == live_total,
                 "snapshot must carry exactly one record per live session");

    const std::size_t ring_elems =
        static_cast<std::size_t>(fp.window_samples) * core::k_feature_channels;
    const std::size_t filter_vals = 6 * (fp.filter_order / 2) * 2;

    std::vector<std::uint8_t> meta;
    put_u64(meta, fleet.ticks);
    put_u64(meta, fleet.swap_generation);
    put_u32(meta, fleet.shard_count);
    put_u32(meta, static_cast<std::uint32_t>(fleet.live.size()));
    put_u32(meta, static_cast<std::uint32_t>(live_total));
    put_u32(meta, fp.window_samples);
    put_f64(meta, fp.overlap_fraction);
    put_f64(meta, fp.threshold);
    put_u32(meta, fp.consecutive_required);
    put_f64(meta, fp.sample_rate_hz);
    put_u32(meta, fp.filter_order);
    put_f64(meta, fp.cutoff_hz);
    put_f64(meta, fp.gyro_weight);
    put_u32(meta, fp.queue_capacity);
    put_u8(meta, fp.drop_policy);
    put_u32(meta, fp.samples_per_tick);
    put_u32(meta, fp.max_samples_per_tick);
    put_u32(meta, fp.drain_watermark);
    for (const serve::session_stats& s : fleet.retired) put_stats(meta, s);

    std::vector<std::uint8_t> rout(fleet.live.begin(), fleet.live.end());

    std::vector<std::uint8_t> sess;
    sess.reserve(fleet.sessions.size() * session_fixed_bytes(filter_vals, ring_elems));
    std::int64_t prev_id = -1;
    for (const serve::session_checkpoint& sc : fleet.sessions) {
        FS_ARG_CHECK(static_cast<std::int64_t>(sc.global_id) > prev_id &&
                         sc.global_id < fleet.live.size() && fleet.live[sc.global_id] == 1,
                     "snapshot session ids must be ascending and live");
        prev_id = sc.global_id;
        FS_ARG_CHECK(sc.detector.filter_state.size() == filter_vals,
                     "snapshot session filter state does not match the fingerprint");
        FS_ARG_CHECK(sc.detector.ring.size() == ring_elems,
                     "snapshot session ring does not match the fingerprint");
        put_u32(sess, sc.global_id);
        put_stats(sess, sc.stats);
        put_u32(sess, static_cast<std::uint32_t>(sc.drain_rate));
        put_u32(sess, static_cast<std::uint32_t>(sc.queue.size()));
        for (const data::raw_sample& sample : sc.queue) {
            for (const float v : sample.accel) put_f32(sess, v);
            for (const float v : sample.gyro) put_f32(sess, v);
        }
        put_u64(sess, sc.detector.tick);
        put_u64(sess, sc.detector.positive_run);
        put_f32(sess, sc.detector.last_score);
        put_u8(sess, sc.detector.fusion_initialized ? 1 : 0);
        put_f64(sess, sc.detector.attitude.pitch);
        put_f64(sess, sc.detector.attitude.roll);
        put_f64(sess, sc.detector.attitude.yaw);
        for (const double v : sc.detector.filter_state) put_f64(sess, v);
        for (const float v : sc.detector.ring) put_f32(sess, v);
    }

    std::vector<std::uint8_t> obsc;
    put_u32(obsc, static_cast<std::uint32_t>(snapshot.obs.counters.size()));
    for (const auto& [name, value] : snapshot.obs.counters) {
        FS_ARG_CHECK(!name.empty() && name.size() <= 0xFFFF, "obs name length out of range");
        put_u16(obsc, static_cast<std::uint16_t>(name.size()));
        obsc.insert(obsc.end(), name.begin(), name.end());
        put_u64(obsc, value);
    }
    put_u32(obsc, static_cast<std::uint32_t>(snapshot.obs.gauges.size()));
    for (const auto& [name, value] : snapshot.obs.gauges) {
        FS_ARG_CHECK(!name.empty() && name.size() <= 0xFFFF, "obs name length out of range");
        put_u16(obsc, static_cast<std::uint16_t>(name.size()));
        obsc.insert(obsc.end(), name.begin(), name.end());
        put_f64(obsc, value);
    }
    put_u32(obsc, static_cast<std::uint32_t>(snapshot.obs.stage_counts.size()));
    for (const auto& [name, count] : snapshot.obs.stage_counts) {
        FS_ARG_CHECK(!name.empty() && name.size() <= 0xFFFF, "obs name length out of range");
        put_u16(obsc, static_cast<std::uint16_t>(name.size()));
        obsc.insert(obsc.end(), name.begin(), name.end());
        put_u64(obsc, count);
    }

    std::vector<std::uint8_t> out;
    out.reserve(k_file_header_bytes + 4 * k_section_header_bytes + meta.size() + rout.size() +
                sess.size() + obsc.size());
    out.insert(out.end(), k_checkpoint_magic.begin(), k_checkpoint_magic.end());
    put_u8(out, k_checkpoint_version);
    put_u8(out, 0);  // reserved
    put_u16(out, k_section_count);
    append_section(out, k_tag_meta, meta);
    append_section(out, k_tag_rout, rout);
    append_section(out, k_tag_sess, sess);
    append_section(out, k_tag_obsc, obsc);
    return out;
}

decode_status decode_snapshot(std::span<const std::uint8_t> bytes, fleet_snapshot& out) {
    if (bytes.size() < k_file_header_bytes) return decode_status::truncated;
    if (std::memcmp(bytes.data(), k_checkpoint_magic.data(), 4) != 0) {
        return decode_status::bad_magic;
    }
    if (bytes[4] != k_checkpoint_version) return decode_status::bad_version;
    if (bytes[5] != 0) return decode_status::bad_payload;
    const std::uint16_t sections = static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
    if (sections != k_section_count) return decode_status::bad_section;

    const std::array<const std::array<std::uint8_t, 4>*, 4> expected{&k_tag_meta, &k_tag_rout,
                                                                     &k_tag_sess, &k_tag_obsc};
    std::array<std::span<const std::uint8_t>, 4> payloads;
    std::size_t cursor = k_file_header_bytes;
    for (std::size_t s = 0; s < 4; ++s) {
        if (bytes.size() - cursor < k_section_header_bytes) return decode_status::truncated;
        if (std::memcmp(bytes.data() + cursor, expected[s]->data(), 4) != 0) {
            return decode_status::bad_section;
        }
        std::uint32_t payload_len = 0;
        std::uint32_t stored_crc = 0;
        for (int i = 0; i < 4; ++i) {
            payload_len |= static_cast<std::uint32_t>(bytes[cursor + 4 + i]) << (8 * i);
            stored_crc |= static_cast<std::uint32_t>(bytes[cursor + 8 + i]) << (8 * i);
        }
        cursor += k_section_header_bytes;
        if (bytes.size() - cursor < payload_len) return decode_status::truncated;
        payloads[s] = bytes.subspan(cursor, payload_len);
        if (crc32(payloads[s]) != stored_crc) return decode_status::bad_crc;
        cursor += payload_len;
    }
    if (cursor != bytes.size()) return decode_status::bad_payload;

    std::uint32_t total_sessions = 0;
    std::uint32_t live_sessions = 0;
    decode_status status = parse_meta(reader{payloads[0]}, out, total_sessions, live_sessions);
    if (status != decode_status::ok) return status;
    status = parse_rout(reader{payloads[1]}, out, total_sessions, live_sessions);
    if (status != decode_status::ok) return status;
    status = parse_sess(reader{payloads[2]}, out, total_sessions, live_sessions);
    if (status != decode_status::ok) return status;
    return parse_obsc(reader{payloads[3]}, out);
}

}  // namespace fallsense::ckpt
