#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

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

struct session_engine::session_slot {
    session_slot(const core::detector_config& detector, std::size_t base_rate)
        : state(detector), drain_rate(base_rate) {}

    core::detector_state state;
    std::deque<data::raw_sample> queue;
    session_stats stats;
    std::size_t drain_rate;  ///< samples dequeued per tick (adaptive)
};

session_engine::session_engine(const engine_config& config, batch_scorer& scorer)
    : config_(config),
      scorer_(&scorer),
      window_elems_(config.detector.window_samples * core::k_feature_channels) {
    if (const auto error = config_.validate()) throw std::invalid_argument(*error);
}

session_engine::~session_engine() = default;

session_engine::session_slot& session_engine::slot(session_id id) {
    FS_ARG_CHECK(id < sessions_.size() && sessions_[id] != nullptr,
                 "unknown or evicted session id");
    return *sessions_[id];
}

const session_engine::session_slot& session_engine::slot(session_id id) const {
    FS_ARG_CHECK(id < sessions_.size() && sessions_[id] != nullptr,
                 "unknown or evicted session id");
    return *sessions_[id];
}

session_id session_engine::create_session() {
    sessions_.push_back(
        std::make_unique<session_slot>(config_.detector, config_.samples_per_tick));
    ++live_count_;
    ++totals_.sessions_created;
    obs::add_counter("serve/sessions_created");
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_count_));
    return static_cast<session_id>(sessions_.size() - 1);
}

void session_engine::evict_session(session_id id) {
    slot(id);  // validates
    sessions_[id].reset();
    --live_count_;
    ++totals_.sessions_evicted;
    obs::add_counter("serve/sessions_evicted");
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_count_));
}

bool session_engine::is_live(session_id id) const {
    return id < sessions_.size() && sessions_[id] != nullptr;
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
    session_slot& s = slot(id);
    if (!sample_is_finite(sample)) {
        ++s.stats.nonfinite;
        ++totals_.nonfinite;
        obs::add_counter("serve/samples_nonfinite");
        return false;
    }
    if (s.queue.size() >= config_.queue_capacity) {
        if (config_.policy == drop_policy::reject_newest) {
            ++s.stats.rejected;
            ++totals_.rejected;
            obs::add_counter("serve/samples_rejected");
            return false;
        }
        s.queue.pop_front();
        ++s.stats.dropped;
        ++totals_.dropped;
        obs::add_counter("serve/samples_dropped");
    }
    s.queue.push_back(sample);
    ++s.stats.accepted;
    ++totals_.accepted;
    obs::add_counter("serve/samples_in");
    return true;
}

std::size_t session_engine::tick_ingest() {
    ++totals_.ticks;
    due_.clear();
    tick_ingested_ = 0;
    const bool adaptive = config_.adaptive_drain();
    const std::size_t watermark = config_.effective_watermark();
    // Phase A — ingest, serially in ascending session id.  Each due window
    // is assembled once, straight into its batch row, so the batch order is
    // the canonical one: ascending session, chronological within a session.
    for (std::size_t id = 0; id < sessions_.size(); ++id) {
        if (!sessions_[id]) continue;
        session_slot& s = *sessions_[id];
        if (adaptive) {
            // Pure function of the queue depth at tick start: double
            // toward the max while backlogged, halve back once drained.
            if (s.queue.size() > watermark) {
                s.drain_rate = std::min(s.drain_rate * 2, config_.max_samples_per_tick);
            } else {
                s.drain_rate = std::max(s.drain_rate / 2, config_.samples_per_tick);
            }
        }
        for (std::size_t k = 0; k < s.drain_rate && !s.queue.empty(); ++k) {
            const data::raw_sample sample = s.queue.front();
            s.queue.pop_front();
            ++s.stats.ingested;
            ++tick_ingested_;
            if (!s.state.ingest(sample)) continue;
            const std::size_t row = due_.size() * window_elems_;
            if (batch_.size() < row + window_elems_) batch_.resize(row + window_elems_);
            s.state.assemble_window({batch_.data() + row, window_elems_});
            due_.push_back({static_cast<session_id>(id), s.state.samples_seen() - 1});
        }
    }
    totals_.ingested += tick_ingested_;
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
    totals_.windows_scored += due_.size();

    // Phase C — apply scores serially in batch order, which is the one
    // canonical trigger and debounce order.
    for (std::size_t i = 0; i < due_.size(); ++i) {
        const due_window& w = due_[i];
        session_slot& s = *sessions_[w.session];
        ++s.stats.windows_scored;
        if (const auto d = s.state.apply_score(scores[i])) {
            // apply_score stamps the detection with the CURRENT tick; when
            // the drain rate is > 1 ingestion has moved past the scoring
            // tick, so use the recorded one.
            result.triggers.push_back({w.session, w.tick, d->probability});
            ++s.stats.triggers;
            ++totals_.triggers;
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
    const session_slot& s = slot(id);
    out.stats = s.stats;
    out.drain_rate = s.drain_rate;
    out.queue.assign(s.queue.begin(), s.queue.end());
    s.state.capture(out.detector);
}

session_id session_engine::restore_session(const session_checkpoint& cp) {
    FS_ARG_CHECK(cp.queue.size() <= config_.queue_capacity,
                 "session checkpoint queue exceeds the configured capacity");
    const std::size_t base = config_.samples_per_tick;
    const std::size_t max_rate = config_.adaptive_drain() ? config_.max_samples_per_tick : base;
    FS_ARG_CHECK(cp.drain_rate >= base && cp.drain_rate <= max_rate,
                 "session checkpoint drain rate is outside the configured range");
    auto slot_ptr = std::make_unique<session_slot>(config_.detector, config_.samples_per_tick);
    slot_ptr->stats = cp.stats;
    slot_ptr->drain_rate = static_cast<std::size_t>(cp.drain_rate);
    slot_ptr->queue.assign(cp.queue.begin(), cp.queue.end());
    slot_ptr->state.restore(cp.detector);
    sessions_.push_back(std::move(slot_ptr));
    ++live_count_;
    return static_cast<session_id>(sessions_.size() - 1);
}

void session_engine::restore_evicted_slot() { sessions_.push_back(nullptr); }

std::size_t session_engine::queue_depth(session_id id) const { return slot(id).queue.size(); }

std::size_t session_engine::drain_rate(session_id id) const { return slot(id).drain_rate; }

float session_engine::last_score(session_id id) const { return slot(id).state.last_score(); }

const session_stats& session_engine::stats(session_id id) const { return slot(id).stats; }

}  // namespace fallsense::serve
