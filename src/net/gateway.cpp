#include "net/gateway.hpp"

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace fallsense::net {

session_gateway::session_gateway(serve::fleet_router& router, tick_handler on_tick)
    : router_(router), on_tick_(std::move(on_tick)) {}

session_gateway::conn_id session_gateway::open_connection() {
    const conn_id id = next_conn_++;
    connections_.emplace(id, connection{});
    ++stats_.connections_opened;
    return id;
}

void session_gateway::close_connection(conn_id conn) {
    const auto it = connections_.find(conn);
    FS_ARG_CHECK(it != connections_.end(), "unknown gateway connection id");
    connections_.erase(it);
    ++stats_.connections_closed;
    // The departed connection no longer votes: the survivors may now hold
    // a full barrier, and the run may have completed.
    drain();
}

void session_gateway::restore_wire_sessions(std::span<const restored_session> sessions) {
    for (const restored_session& rs : sessions) rebinds_[rs.wire_session] = rs;
}

bool session_gateway::take_replies(conn_id conn, std::vector<std::uint8_t>& out) {
    const auto it = connections_.find(conn);
    FS_ARG_CHECK(it != connections_.end(), "unknown gateway connection id");
    std::vector<std::uint8_t>& replies = it->second.replies;
    if (replies.empty()) return false;
    out.insert(out.end(), replies.begin(), replies.end());
    replies.clear();
    return true;
}

bool session_gateway::connection_alive(conn_id conn) const {
    const auto it = connections_.find(conn);
    FS_ARG_CHECK(it != connections_.end(), "unknown gateway connection id");
    return it->second.alive;
}

bool session_gateway::barrier_ready() const {
    bool any_vote = false;
    for (const auto& [id, c] : connections_) {
        if (c.pending_ticks > 0) any_vote = true;
        // A finished (or errored-out) connection neither blocks the
        // barrier nor is required to vote — its run is over.
        else if (!c.finished && c.alive) return false;
    }
    return any_vote;
}

void session_gateway::run_tick() {
    for (auto& [id, c] : connections_) {
        if (c.pending_ticks > 0) --c.pending_ticks;
    }
    ++stats_.ticks;
    const serve::tick_result result = router_.tick();
    if (on_tick_) on_tick_(result);
}

void session_gateway::drain() {
    for (bool progress = true; progress;) {
        progress = false;
        while (barrier_ready()) {
            run_tick();
            progress = true;
        }
        // The tick consumed the votes, so paused connections resume —
        // possibly voting for the next round, hence the outer fixpoint.
        for (auto& [id, c] : connections_) {
            if (decode_frames(c)) progress = true;
        }
    }
    update_bye();
}

void session_gateway::update_bye() {
    if (bye_ || connections_.empty()) return;
    bool any = false;
    bool all = true;
    for (const auto& [id, c] : connections_) {
        if (c.finished) any = true;
        else all = false;
    }
    if (any && all) bye_ = true;
}

void session_gateway::handle_samples(connection& c, const frame& f) {
    auto [it, inserted] = c.sessions.try_emplace(f.session);
    wire_session& ws = it->second;
    if (inserted) {
        const auto rit = rebinds_.find(f.session);
        if (rit != rebinds_.end()) {
            // A restored sender resuming its stream: adopt the router
            // session the checkpoint rebuilt instead of admitting a new
            // one, and expect the handed-over sequence number.
            ws.router_id = rit->second.router_session;
            ws.expected_seq = rit->second.next_sequence;
            ws.seq_seen = true;
            rebinds_.erase(rit);
            ++stats_.sessions_rebound;
        } else {
            // First sample frame for this wire id admits the session —
            // the protocol has no separate open handshake (an MCU sender
            // that rebooted just keeps transmitting).
            ws.router_id = router_.create_session();
            ++stats_.sessions_opened;
        }
    }
    if (ws.seq_seen && f.sequence != ws.expected_seq) ++stats_.seq_gaps;
    // u32 arithmetic wraps, so sequence tracking survives rollover: the
    // frame after seq 0xffffffff is expected at seq (count - 1).
    ws.expected_seq = f.sequence + static_cast<std::uint32_t>(f.samples.size());
    ws.seq_seen = true;

    std::uint32_t seq = f.sequence;
    for (const data::raw_sample& s : f.samples) {
        ++stats_.samples_in;
        if (!router_.feed(ws.router_id, s)) {
            // The engine refused the sample — a non-finite component, or
            // reject_newest on a full queue: answer at the wire instead of
            // dropping silently.
            ++stats_.status_frames_out;
            if (!serve::sample_is_finite(s)) {
                stats_.bytes_out +=
                    encode_status(c.replies, f.session, seq, status_code::invalid_sample);
            } else {
                ++stats_.samples_rejected;
                ++stats_.reject_frames_out;
                stats_.bytes_out +=
                    encode_status(c.replies, f.session, seq, status_code::queue_full);
            }
        }
        ++seq;
    }
}

bool session_gateway::decode_frames(connection& c) {
    bool progress = false;
    // An unconsumed tick vote pauses the stream: frames after a tick
    // frame belong to the NEXT round and must not touch the router until
    // the barrier has run this one.
    while (c.alive && c.pending_ticks == 0) {
        const decode_status status = c.decoder.next(c.scratch);
        if (status == decode_status::need_more) break;
        if (status != decode_status::ok) {
            // Framing is unrecoverable (no resync markers by design —
            // a length-prefixed stream that lost sync is garbage): tell
            // the sender and have the transport close.
            ++stats_.decode_errors;
            ++stats_.status_frames_out;
            stats_.bytes_out +=
                encode_status(c.replies, 0, 0, status_code::malformed_frame);
            c.alive = false;
            progress = true;
            break;
        }
        ++stats_.frames_in;
        progress = true;
        const frame& f = c.scratch;
        switch (f.type) {
            case frame_type::sample:
                handle_samples(c, f);
                break;
            case frame_type::tick:
                // One barrier vote; drain() runs the round once every
                // unfinished connection has voted.
                ++c.pending_ticks;
                break;
            case frame_type::close: {
                const auto sit = c.sessions.find(f.session);
                if (sit == c.sessions.end()) {
                    ++stats_.status_frames_out;
                    stats_.bytes_out += encode_status(c.replies, f.session, 0,
                                                      status_code::unknown_session);
                    break;
                }
                router_.evict_session(sit->second.router_id);
                c.sessions.erase(sit);
                ++stats_.sessions_closed;
                break;
            }
            case frame_type::bye:
                // Stops blocking the barrier; the run completes (drain's
                // update_bye) once everyone has said bye.
                c.finished = true;
                break;
            case frame_type::status:
                // Status frames are server → client; one arriving at the
                // ingestion edge is a peer bug but not a framing error —
                // count it and carry on (it parsed cleanly).
                break;
        }
    }
    return progress;
}

bool session_gateway::on_bytes(conn_id conn, std::span<const std::uint8_t> bytes,
                               std::vector<std::uint8_t>& replies) {
    const auto it = connections_.find(conn);
    FS_ARG_CHECK(it != connections_.end(), "unknown gateway connection id");
    connection& c = it->second;
    // The stream may have turned out malformed while its buffered frames
    // were decoded on another connection's barrier release: not a caller
    // bug, just report it (the transport flushes replies and closes).
    if (!c.alive) {
        take_replies(conn, replies);
        return false;
    }

    stats_.bytes_in += bytes.size();
    c.decoder.push(bytes);
    drain();
    take_replies(conn, replies);
    return c.alive;
}

void session_gateway::publish_metrics() const {
    // The full counter set is always published (zeros included) so the
    // manifest's net/* section has a stable shape across runs.
    obs::add_counter("net/bytes_in", stats_.bytes_in);
    obs::add_counter("net/bytes_out", stats_.bytes_out);
    obs::add_counter("net/frames_in", stats_.frames_in);
    obs::add_counter("net/samples_in", stats_.samples_in);
    obs::add_counter("net/samples_rejected", stats_.samples_rejected);
    obs::add_counter("net/reject_frames_out", stats_.reject_frames_out);
    obs::add_counter("net/status_frames_out", stats_.status_frames_out);
    obs::add_counter("net/ticks", stats_.ticks);
    obs::add_counter("net/sessions_opened", stats_.sessions_opened);
    obs::add_counter("net/sessions_rebound", stats_.sessions_rebound);
    obs::add_counter("net/sessions_closed", stats_.sessions_closed);
    obs::add_counter("net/seq_gaps", stats_.seq_gaps);
    obs::add_counter("net/decode_errors", stats_.decode_errors);
    obs::add_counter("net/connections_opened", stats_.connections_opened);
    obs::add_counter("net/connections_closed", stats_.connections_closed);
}

}  // namespace fallsense::net
