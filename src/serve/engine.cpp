#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace fallsense::serve {

const char* drop_policy_name(drop_policy policy) {
    switch (policy) {
        case drop_policy::drop_oldest: return "drop-oldest";
        case drop_policy::reject_newest: return "reject-newest";
    }
    return "?";
}

std::optional<drop_policy> parse_drop_policy(const std::string& text) {
    if (text == "oldest" || text == "drop-oldest") return drop_policy::drop_oldest;
    if (text == "reject" || text == "reject-newest") return drop_policy::reject_newest;
    return std::nullopt;
}

std::optional<std::string> engine_config::validate() const {
    if (auto error = detector.validate()) return error;
    if (queue_capacity == 0) return "engine queue_capacity must be positive";
    if (samples_per_tick == 0) return "engine samples_per_tick must be positive";
    if (drain_watermark > queue_capacity) {
        std::ostringstream os;
        os << "engine drain_watermark (" << drain_watermark
           << ") exceeds queue_capacity (" << queue_capacity << ")";
        return os.str();
    }
    if (max_samples_per_tick != 0 && max_samples_per_tick < samples_per_tick) {
        std::ostringstream os;
        os << "engine max_samples_per_tick (" << max_samples_per_tick
           << ") is below samples_per_tick (" << samples_per_tick << ")";
        return os.str();
    }
    return std::nullopt;
}

std::size_t engine_config::effective_watermark() const {
    return drain_watermark > 0 ? drain_watermark : queue_capacity / 2;
}

session_stats& session_stats::operator+=(const session_stats& other) {
    accepted += other.accepted;
    dropped += other.dropped;
    rejected += other.rejected;
    ingested += other.ingested;
    windows_scored += other.windows_scored;
    triggers += other.triggers;
    nonfinite += other.nonfinite;
    score_faults += other.score_faults;
    return *this;
}

session_engine::session_engine(const engine_config& config, batch_scorer& scorer)
    : config_(config),
      scorer_(&scorer),
      detectors_([&] {
          if (const auto error = config.validate()) throw std::invalid_argument(*error);
          return config.detector;
      }()),
      window_elems_(detectors_.window_elems()) {}

std::size_t session_engine::slot_of(session_id id) const {
    FS_ARG_CHECK(id < slots_.size() && slots_[id] != k_evicted, "unknown or evicted session id");
    return slots_[id];
}

const data::raw_sample& session_engine::queue_entry(std::size_t slot, std::size_t entry) const {
    const std::byte* block = queue_blocks_[slot / k_queue_block_slots].get();
    return std::launder(reinterpret_cast<const data::raw_sample*>(
        block))[entry * k_queue_block_slots + slot % k_queue_block_slots];
}

data::raw_sample& session_engine::queue_entry(std::size_t slot, std::size_t entry) {
    return const_cast<data::raw_sample&>(std::as_const(*this).queue_entry(slot, entry));
}

std::size_t session_engine::open_slot() {
    const std::size_t slot = detectors_.acquire();
    if (slot == stats_.size()) {
        if (slot % k_queue_block_slots == 0) {
            // Left uninitialised: only entries a queue actually reaches are
            // ever written, so only those pages become resident.
            queue_blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
                k_queue_block_slots * config_.queue_capacity * sizeof(data::raw_sample)));
        }
        queue_head_.push_back(0);
        queue_size_.push_back(0);
        drain_rate_.push_back(config_.samples_per_tick);
        stats_.emplace_back();
    } else {
        // Reused storage: everything but the stale queue entries, which no
        // read reaches past queue_size_, and the stats, zeroed at eviction.
        queue_head_[slot] = 0;
        queue_size_[slot] = 0;
        drain_rate_[slot] = config_.samples_per_tick;
    }
    return slot;
}

session_id session_engine::create_session() {
    slots_.push_back(static_cast<std::uint32_t>(open_slot()));
    ++live_count_;
    obs::add_counter("serve/sessions_created");
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_count_));
    return static_cast<session_id>(slots_.size() - 1);
}

void session_engine::evict_session(session_id id) {
    const std::size_t slot = slot_of(id);
    retired_ += std::exchange(stats_[slot], {});
    detectors_.release(slot);
    slots_[id] = k_evicted;
    --live_count_;
    obs::add_counter("serve/sessions_evicted");
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_count_));
}

bool session_engine::is_live(session_id id) const {
    return id < slots_.size() && slots_[id] != k_evicted;
}

bool sample_is_finite(const data::raw_sample& sample) {
    for (const float v : sample.accel) {
        if (!std::isfinite(v)) return false;
    }
    for (const float v : sample.gyro) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

bool session_engine::feed(session_id id, const data::raw_sample& sample) {
    const std::size_t slot = slot_of(id);
    session_stats& stats = stats_[slot];
    if (!sample_is_finite(sample)) {
        ++stats.nonfinite;
        obs::add_counter("serve/samples_nonfinite");
        return false;
    }
    const std::size_t capacity = config_.queue_capacity;
    std::size_t& head = queue_head_[slot];
    std::size_t& size = queue_size_[slot];
    if (size == capacity) {
        if (config_.policy == drop_policy::reject_newest) {
            ++stats.rejected;
            obs::add_counter("serve/samples_rejected");
            return false;
        }
        head = head + 1 == capacity ? 0 : head + 1;  // the oldest makes room
        --size;
        ++stats.dropped;
        obs::add_counter("serve/samples_dropped");
    }
    std::size_t tail = head + size;
    if (tail >= capacity) tail -= capacity;
    queue_entry(slot, tail) = sample;
    ++size;
    ++stats.accepted;
    obs::add_counter("serve/samples_in");
    return true;
}

std::size_t session_engine::tick_ingest() {
    ++ticks_;
    due_.clear();
    tick_ingested_ = 0;
    const bool adaptive = config_.adaptive_drain();
    const std::size_t watermark = config_.effective_watermark();
    const std::size_t capacity = config_.queue_capacity;
    // Phase A — ingest, serially in ascending session id.  Each due window
    // is assembled once, straight into its batch row, so the batch order is
    // the canonical one: ascending session, chronological within a session.
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        const std::size_t slot = slots_[id];
        if (slot == k_evicted) continue;
        std::size_t& size = queue_size_[slot];
        std::size_t& rate = drain_rate_[slot];
        if (adaptive) {
            // Pure function of the queue depth at tick start: double
            // toward the max while backlogged, halve back once drained.
            if (size > watermark) {
                rate = std::min(rate * 2, config_.max_samples_per_tick);
            } else {
                rate = std::max(rate / 2, config_.samples_per_tick);
            }
        }
        const std::size_t n = std::min(rate, size);
        if (n == 0) continue;
        std::size_t& head = queue_head_[slot];
        for (std::size_t k = 0; k < n; ++k) {
            const data::raw_sample& sample = queue_entry(slot, head);
            head = head + 1 == capacity ? 0 : head + 1;
            if (!detectors_.ingest(slot, sample)) continue;
            const std::size_t row = due_.size() * window_elems_;
            if (batch_.size() < row + window_elems_) batch_.resize(row + window_elems_);
            detectors_.assemble_window(slot, {batch_.data() + row, window_elems_});
            due_.push_back({static_cast<session_id>(id), detectors_.samples_seen(slot) - 1});
        }
        size -= n;
        if (size == 0) head = 0;  // a drained queue restarts at entry 0
        stats_[slot].ingested += n;
        tick_ingested_ += n;
    }
    if (tick_ingested_ > 0) obs::add_counter("stream/samples", tick_ingested_);
    return due_.size();
}

std::span<const float> session_engine::pending_windows() const {
    return {batch_.data(), due_.size() * window_elems_};
}

tick_result session_engine::tick_apply(std::span<const float> scores) {
    FS_ARG_CHECK(scores.size() == due_.size(),
                 "tick_apply needs one score per pending window");
    tick_result result;
    result.samples_ingested = tick_ingested_;
    result.windows_scored = due_.size();

    // Phase C — apply scores serially in batch order, which is the one
    // canonical trigger and debounce order.
    for (std::size_t i = 0; i < due_.size(); ++i) {
        const due_window& w = due_[i];
        const std::size_t slot = slots_[w.session];
        session_stats& stats = stats_[slot];
        ++stats.windows_scored;
        if (!std::isfinite(scores[i])) {
            ++stats.score_faults;
            obs::add_counter("serve/score_faults");
        }
        if (const auto d = detectors_.apply_score(slot, scores[i])) {
            // apply_score stamps the detection with the CURRENT tick; when
            // the drain rate is > 1 ingestion has moved past the scoring
            // tick, so use the recorded one.
            result.triggers.push_back({w.session, w.tick, d->probability});
            ++stats.triggers;
            obs::add_counter("serve/triggers");
        }
    }
    due_.clear();
    return result;
}

tick_result session_engine::tick() {
    OBS_SCOPE("serve/tick");
    const std::size_t total_windows = tick_ingest();
    if (total_windows > 0) {
        scores_.resize(total_windows);
        const std::span<float> out(scores_.data(), total_windows);
        if (obs::enabled()) {
            const auto start = std::chrono::steady_clock::now();
            scorer_->score(pending_windows(), total_windows, window_elems_, out);
            const std::chrono::duration<double, std::micro> elapsed =
                std::chrono::steady_clock::now() - start;
            obs::observe_latency_us("serve/batch_score_us", elapsed.count());
            obs::add_counter("serve/batches");
            obs::add_counter("serve/windows_scored", total_windows);
        } else {
            scorer_->score(pending_windows(), total_windows, window_elems_, out);
        }
    }
    return tick_apply({scores_.data(), total_windows});
}

void session_engine::capture_session(session_id id, session_checkpoint& out) const {
    const std::size_t slot = slot_of(id);
    out.stats = stats_[slot];
    out.drain_rate = drain_rate_[slot];
    const std::size_t capacity = config_.queue_capacity;
    out.queue.resize(queue_size_[slot]);
    for (std::size_t k = 0, at = queue_head_[slot]; k < out.queue.size(); ++k) {
        out.queue[k] = queue_entry(slot, at);
        at = at + 1 == capacity ? 0 : at + 1;
    }
    detectors_.capture(slot, out.detector);
}

session_id session_engine::restore_session(const session_checkpoint& cp) {
    FS_ARG_CHECK(cp.queue.size() <= config_.queue_capacity,
                 "session checkpoint queue exceeds the configured capacity");
    const std::size_t base = config_.samples_per_tick;
    const std::size_t max_rate = config_.adaptive_drain() ? config_.max_samples_per_tick : base;
    FS_ARG_CHECK(cp.drain_rate >= base && cp.drain_rate <= max_rate,
                 "session checkpoint drain rate is outside the configured range");
    const std::size_t slot = open_slot();
    try {
        detectors_.restore(slot, cp.detector);
    } catch (...) {
        detectors_.release(slot);
        throw;
    }
    stats_[slot] = cp.stats;
    drain_rate_[slot] = static_cast<std::size_t>(cp.drain_rate);
    for (std::size_t k = 0; k < cp.queue.size(); ++k) queue_entry(slot, k) = cp.queue[k];
    queue_size_[slot] = cp.queue.size();
    slots_.push_back(static_cast<std::uint32_t>(slot));
    ++live_count_;
    return static_cast<session_id>(slots_.size() - 1);
}

void session_engine::restore_evicted_slot() { slots_.push_back(k_evicted); }

void session_engine::restore_retired(const session_stats& retired, std::uint64_t ticks) {
    retired_ = retired;
    ticks_ = ticks;
}

std::size_t session_engine::queue_depth(session_id id) const {
    return queue_size_[slot_of(id)];
}

std::size_t session_engine::drain_rate(session_id id) const { return drain_rate_[slot_of(id)]; }

float session_engine::last_score(session_id id) const {
    return detectors_.last_score(slot_of(id));
}

const session_stats& session_engine::stats(session_id id) const { return stats_[slot_of(id)]; }

engine_stats session_engine::totals() const {
    engine_stats out;
    out += retired_;
    for (const session_stats& s : stats_) out += s;  // free slots hold zeros
    out.ticks = ticks_;
    out.sessions_created = slots_.size();
    out.sessions_evicted = slots_.size() - live_count_;
    return out;
}

}  // namespace fallsense::serve
