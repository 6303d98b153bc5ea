#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace fallsense::net {

namespace {

// Explicit little-endian byte stores/loads: the wire layout must not
// depend on the host's endianness or on aligned access being legal.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xffu));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xffu));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xffu));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
    put_u32(out, std::bit_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                      (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

float get_f32(const std::uint8_t* p) { return std::bit_cast<float>(get_u32(p)); }

std::size_t encode_header(std::vector<std::uint8_t>& out, frame_type type,
                          std::uint32_t session, std::uint32_t sequence,
                          std::uint16_t count) {
    const std::size_t start = out.size();
    out.push_back(k_wire_magic[0]);
    out.push_back(k_wire_magic[1]);
    out.push_back(k_wire_version);
    out.push_back(static_cast<std::uint8_t>(type));
    put_u32(out, session);
    put_u32(out, sequence);
    put_u16(out, count);
    return out.size() - start;
}

}  // namespace

const char* frame_type_name(frame_type type) {
    switch (type) {
        case frame_type::sample: return "sample";
        case frame_type::status: return "status";
        case frame_type::tick: return "tick";
        case frame_type::close: return "close";
        case frame_type::bye: return "bye";
    }
    return "?";
}

const char* status_code_name(status_code code) {
    switch (code) {
        case status_code::queue_full: return "queue-full";
        case status_code::unknown_session: return "unknown-session";
        case status_code::malformed_frame: return "malformed-frame";
        case status_code::invalid_sample: return "invalid-sample";
    }
    return "?";
}

const char* decode_status_name(decode_status status) {
    switch (status) {
        case decode_status::ok: return "ok";
        case decode_status::need_more: return "need-more";
        case decode_status::bad_magic: return "bad-magic";
        case decode_status::bad_version: return "bad-version";
        case decode_status::bad_type: return "bad-type";
        case decode_status::bad_count: return "bad-count";
        case decode_status::oversized_batch: return "oversized-batch";
    }
    return "?";
}

decode_status decode_frame(std::span<const std::uint8_t> bytes, frame& out,
                           std::size_t* bytes_consumed) {
    FS_ARG_CHECK(bytes_consumed != nullptr, "decode_frame needs a consumed-bytes out param");
    *bytes_consumed = 0;
    if (bytes.size() < k_header_bytes) return decode_status::need_more;
    // Validate in a fixed order so every malformed header maps to ONE
    // typed error regardless of what else is wrong after the first bad
    // field — tests pin this table.
    if (bytes[0] != k_wire_magic[0] || bytes[1] != k_wire_magic[1]) {
        return decode_status::bad_magic;
    }
    if (bytes[2] != k_wire_version) return decode_status::bad_version;
    const std::uint8_t raw_type = bytes[3];
    if (raw_type < static_cast<std::uint8_t>(frame_type::sample) ||
        raw_type > static_cast<std::uint8_t>(frame_type::bye)) {
        return decode_status::bad_type;
    }
    const auto type = static_cast<frame_type>(raw_type);
    const std::uint32_t session = get_u32(bytes.data() + 4);
    const std::uint32_t sequence = get_u32(bytes.data() + 8);
    const std::uint16_t count = get_u16(bytes.data() + 12);

    std::size_t payload = 0;
    switch (type) {
        case frame_type::sample:
            if (count == 0) return decode_status::bad_count;
            if (count > k_max_frame_samples) return decode_status::oversized_batch;
            payload = static_cast<std::size_t>(count) * k_sample_bytes;
            break;
        case frame_type::status:
            // The count field carries the status code; any non-zero code
            // decodes (unknown codes are the receiver's problem — forward
            // compatibility for new codes without a version bump).
            if (count == 0) return decode_status::bad_count;
            break;
        case frame_type::tick:
        case frame_type::close:
        case frame_type::bye:
            if (count != 0) return decode_status::bad_count;
            break;
    }
    if (bytes.size() < k_header_bytes + payload) return decode_status::need_more;

    out.type = type;
    out.session = session;
    out.sequence = sequence;
    out.status = type == frame_type::status ? count : 0;
    out.samples.clear();
    if (type == frame_type::sample) {
        const std::uint8_t* p = bytes.data() + k_header_bytes;
        out.samples.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i, p += k_sample_bytes) {
            data::raw_sample s;
            s.accel = {get_f32(p), get_f32(p + 4), get_f32(p + 8)};
            s.gyro = {get_f32(p + 12), get_f32(p + 16), get_f32(p + 20)};
            out.samples.push_back(s);
        }
    }
    *bytes_consumed = k_header_bytes + payload;
    return decode_status::ok;
}

std::size_t encode_samples(std::vector<std::uint8_t>& out, std::uint32_t session,
                           std::uint32_t sequence,
                           std::span<const data::raw_sample> samples) {
    FS_ARG_CHECK(!samples.empty(), "a sample frame carries at least one sample");
    FS_ARG_CHECK(samples.size() <= k_max_frame_samples,
                 "sample frame exceeds k_max_frame_samples");
    std::size_t n = encode_header(out, frame_type::sample, session, sequence,
                                  static_cast<std::uint16_t>(samples.size()));
    for (const data::raw_sample& s : samples) {
        put_f32(out, s.accel[0]);
        put_f32(out, s.accel[1]);
        put_f32(out, s.accel[2]);
        put_f32(out, s.gyro[0]);
        put_f32(out, s.gyro[1]);
        put_f32(out, s.gyro[2]);
        n += k_sample_bytes;
    }
    return n;
}

std::size_t encode_status(std::vector<std::uint8_t>& out, std::uint32_t session,
                          std::uint32_t sequence, status_code code) {
    return encode_header(out, frame_type::status, session, sequence,
                         static_cast<std::uint16_t>(code));
}

std::size_t encode_tick(std::vector<std::uint8_t>& out) {
    return encode_header(out, frame_type::tick, 0, 0, 0);
}

std::size_t encode_close(std::vector<std::uint8_t>& out, std::uint32_t session) {
    return encode_header(out, frame_type::close, session, 0, 0);
}

std::size_t encode_bye(std::vector<std::uint8_t>& out) {
    return encode_header(out, frame_type::bye, 0, 0, 0);
}

void frame_decoder::push(std::span<const std::uint8_t> bytes) {
    // Compact before growing once the decoded prefix dominates the
    // buffer; amortized O(1) per byte and keeps the high-water mark near
    // one frame for well-behaved streams.
    if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

decode_status frame_decoder::next(frame& out) {
    if (dead_) return *dead_;
    std::size_t used = 0;
    const decode_status status = decode_frame(
        {buffer_.data() + consumed_, buffer_.size() - consumed_}, out, &used);
    if (status == decode_status::ok) {
        consumed_ += used;
        return status;
    }
    if (status != decode_status::need_more) dead_ = status;  // unrecoverable
    return status;
}

}  // namespace fallsense::net
