// Binary sample-frame wire codec — the fallsense ingestion protocol v1.
//
// The frame format is the one documented normatively in
// docs/wire_protocol.md (byte-layout table, field semantics, reject
// codes, worked hex example); this header is its implementation.  The
// layout is fixed little-endian so an MCU-class sender (the fallsafe
// device loop: fixed-rate IMU sampling queue + uplink) can emit frames
// with plain struct stores on every common core, and cheap enough that
// encoding is a handful of byte writes per sample.
//
// Every frame starts with a 14-byte header:
//
//   offset size field
//   0      2    magic 0x46 0x53 ("FS")
//   2      1    protocol version (k_wire_version == 1)
//   3      1    frame type (sample / status / tick / close / bye)
//   4      4    session id   (u32 LE, sender-chosen wire session)
//   8      4    sequence nr  (u32 LE, first sample in this frame; wraps)
//   12     2    count        (u16 LE, meaning depends on the type)
//
// A `sample` frame carries `count` (1..k_max_frame_samples) sensor
// triplet pairs of 24 bytes each — ax ay az gx gy gz as float32 LE — so
// per-event evaluation and replay can key on (session, sequence) end to
// end.  A `status` frame is the server's reject/diagnostic answer: the
// count field carries a `status_code` and the sequence field names the
// sample the status refers to.  `tick`, `close`, and `bye` are control
// frames with an empty payload and count == 0.
//
// Decoding is strict and bounds-checked: a decoder never reads past the
// supplied buffer, never trusts the count field before validating it,
// and reports malformed input through `decode_status` typed errors
// rather than asserts — a hostile or corrupt byte stream must be
// rejectable without UB (the malformed-input table tests run under
// ASan/UBSan).  `need_more` is not an error: it tells a streaming
// caller the buffer holds a torn frame; `frame_decoder` builds the
// chunk-reassembly loop on top of it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "data/types.hpp"

namespace fallsense::net {

inline constexpr std::array<std::uint8_t, 2> k_wire_magic{0x46, 0x53};  // "FS"
inline constexpr std::uint8_t k_wire_version = 1;
inline constexpr std::size_t k_header_bytes = 14;
/// Bytes per encoded sample: 6 float32 (accel xyz, gyro xyz).
inline constexpr std::size_t k_sample_bytes = 24;
/// Hard cap on samples per frame; keeps the largest frame (1550 bytes)
/// within a single MTU-and-change and bounds decoder memory.
inline constexpr std::size_t k_max_frame_samples = 64;
inline constexpr std::size_t k_max_frame_bytes =
    k_header_bytes + k_max_frame_samples * k_sample_bytes;

enum class frame_type : std::uint8_t {
    sample = 1,  ///< client → server: `count` IMU samples
    status = 2,  ///< server → client: reject/diagnostic, code in `count`
    tick = 3,    ///< client → server: run one fleet tick now
    close = 4,   ///< client → server: evict the named wire session
    bye = 5,     ///< client → server: end of run, server may shut down
};

/// Codes carried in a status frame's count field.
enum class status_code : std::uint16_t {
    queue_full = 1,       ///< sample refused: session queue saturated under reject-newest
    unknown_session = 2,  ///< close named a wire session that was never opened
    malformed_frame = 3,  ///< framing error; the connection will be closed
    invalid_sample = 4,   ///< sample refused: a NaN or infinite component
};

const char* frame_type_name(frame_type type);
const char* status_code_name(status_code code);

/// One decoded frame.  `samples` is populated for sample frames only and
/// reuses its capacity when the same `frame` object is decoded into
/// repeatedly (the event loop's steady state).
struct frame {
    frame_type type = frame_type::sample;
    std::uint32_t session = 0;
    std::uint32_t sequence = 0;
    std::uint16_t status = 0;  ///< status frames: the status_code value
    std::vector<data::raw_sample> samples;
};

/// Typed decode outcomes.  `ok` and `need_more` are the two
/// non-error results; everything else means the stream is malformed at
/// the current position and cannot be resynchronized (the transport
/// should answer `malformed_frame` and close).
enum class decode_status : std::uint8_t {
    ok = 0,
    need_more,        ///< buffer ends inside a frame — not an error
    bad_magic,        ///< first two bytes are not "FS"
    bad_version,      ///< version byte != k_wire_version
    bad_type,         ///< type byte names no known frame type
    bad_count,        ///< count inconsistent with the type (e.g. empty sample frame, non-zero control count)
    oversized_batch,  ///< sample count exceeds k_max_frame_samples
};

const char* decode_status_name(decode_status status);

/// Decode one frame from the front of `bytes` into `out`.
/// On `ok`, `*bytes_consumed` is the frame's full wire size; on any
/// other status nothing is consumed and `out` is unspecified.
decode_status decode_frame(std::span<const std::uint8_t> bytes, frame& out,
                           std::size_t* bytes_consumed);

/// Encoders append one frame to `out` (never clear it) and return the
/// encoded size.  encode_samples checks 1 <= samples.size() <=
/// k_max_frame_samples (FS_ARG_CHECK).
std::size_t encode_samples(std::vector<std::uint8_t>& out, std::uint32_t session,
                           std::uint32_t sequence,
                           std::span<const data::raw_sample> samples);
std::size_t encode_status(std::vector<std::uint8_t>& out, std::uint32_t session,
                          std::uint32_t sequence, status_code code);
std::size_t encode_tick(std::vector<std::uint8_t>& out);
std::size_t encode_close(std::vector<std::uint8_t>& out, std::uint32_t session);
std::size_t encode_bye(std::vector<std::uint8_t>& out);

/// Incremental decoder over an arbitrarily chunked byte stream: push()
/// whatever the transport delivered (a torn frame, three frames and a
/// half, one byte), then drain complete frames with next().  Bytes are
/// buffered internally and compacted lazily, so steady-state operation
/// stops allocating once the buffer reaches its high-water mark.
class frame_decoder {
public:
    /// Append transport bytes to the reassembly buffer.
    void push(std::span<const std::uint8_t> bytes);

    /// Decode the next complete frame into `out`.  Returns `ok` (frame
    /// filled, bytes consumed), `need_more` (buffer holds no complete
    /// frame), or a framing error — after which the stream is dead and
    /// next() keeps returning the same error.
    decode_status next(frame& out);

    /// Bytes buffered but not yet decoded.
    std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

private:
    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
    std::optional<decode_status> dead_;  ///< sticky framing error
};

}  // namespace fallsense::net
