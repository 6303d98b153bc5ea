#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/scorer_factory.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::serve {

const char* score_mode_name(score_mode mode) {
    switch (mode) {
        case score_mode::fused: return "fused";
        case score_mode::per_shard: return "per_shard";
    }
    return "?";
}

std::optional<score_mode> parse_score_mode(const std::string& text) {
    if (text == "fused") return score_mode::fused;
    if (text == "per_shard" || text == "per-shard") return score_mode::per_shard;
    return std::nullopt;
}

namespace {

using clock = std::chrono::steady_clock;

double us_between(clock::time_point start, clock::time_point end) {
    return std::chrono::duration<double, std::micro>(end - start).count();
}

/// splitmix64 finalizer: a full-avalanche mix so consecutive session ids
/// spread evenly over the shards instead of striping.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

struct fleet_router::shard_slot {
    shard_slot(const engine_config& config, batch_scorer& scorer)
        : engine(config, scorer) {}

    session_engine engine;
    std::vector<session_id> local_to_global;  ///< index == shard-local id
    // Per-tick staging.
    std::size_t pending = 0;  ///< windows staged by the last tick_ingest
    std::size_t offset = 0;   ///< this shard's row offset in the fleet batch
    tick_result result;
};

fleet_router::fleet_router(const fleet_config& config, std::unique_ptr<batch_scorer> scorer)
    : config_(config), scorer_(std::move(scorer)) {
    FS_ARG_CHECK(config_.shards > 0, "fleet needs at least one shard");
    FS_ARG_CHECK(scorer_ != nullptr, "fleet needs a scorer");
    if (const auto error = config_.engine.validate()) throw std::invalid_argument(*error);
    shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
        shards_.push_back(std::make_unique<shard_slot>(config_.engine, *scorer_));
    }
    if (config_.mode == score_mode::per_shard) {
        replicas_ = make_scorer_replicas(*scorer_, config_.shards);
    }
    window_elems_ = shards_.front()->engine.window_elems();
    nonempty_.reserve(config_.shards);
    obs::set_gauge("serve/shards", static_cast<double>(config_.shards));
    obs::set_gauge("serve/swap_generation", 0.0);
}

fleet_router::~fleet_router() = default;

std::size_t fleet_router::shard_of(session_id id) const {
    return static_cast<std::size_t>(mix64(id) % shards_.size());
}

const session_engine& fleet_router::shard(std::size_t index) const {
    FS_ARG_CHECK(index < shards_.size(), "shard index out of range");
    return shards_[index]->engine;
}

const fleet_router::route& fleet_router::route_of(session_id id) const {
    FS_ARG_CHECK(id < routes_.size() && routes_[id].live,
                 "unknown or evicted session id");
    return routes_[id];
}

session_id fleet_router::create_session() {
    const auto id = static_cast<session_id>(routes_.size());
    const std::size_t s = shard_of(id);
    shard_slot& sh = *shards_[s];
    const session_id local = sh.engine.create_session();
    FS_CHECK(local == sh.local_to_global.size(), "shard-local session ids must be dense");
    sh.local_to_global.push_back(id);
    routes_.push_back({static_cast<std::uint32_t>(s), local, true});
    // The shard's engine set the gauge to its own live count; the fleet
    // value is the one observers should see.
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_session_count()));
    return id;
}

void fleet_router::evict_session(session_id id) {
    const route& r = route_of(id);
    shards_[r.shard]->engine.evict_session(r.local);
    routes_[id].live = false;
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_session_count()));
}

bool fleet_router::is_live(session_id id) const {
    return id < routes_.size() && routes_[id].live;
}

bool fleet_router::feed(session_id id, const data::raw_sample& sample) {
    const route& r = route_of(id);
    return shards_[r.shard]->engine.feed(r.local, sample);
}

tick_result fleet_router::tick() {
    OBS_SCOPE("serve/fleet_tick");
    ++ticks_;

    // Phase 1 — shard ingest in parallel.  Shards share no state, and each
    // engine ingests its own sessions serially inside its pool task.
    const clock::time_point t_start = clock::now();
    util::parallel_for(0, shards_.size(), 1, [this](std::size_t s) {
        shards_[s]->pending = shards_[s]->engine.tick_ingest();
    });
    const clock::time_point t_ingested = clock::now();

    // Phase 2 — score.  Offsets are a pure function of the (ascending)
    // shard order, shared by both modes so their score buffers tile
    // identically; only shards with pending windows participate.
    std::size_t total_windows = 0;
    nonempty_.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        shard_slot& sh = *shards_[s];
        sh.offset = total_windows;
        total_windows += sh.pending;
        if (sh.pending > 0) nonempty_.push_back(s);
    }
    if (total_windows > 0) {
        const shard_slot& last = *shards_[nonempty_.back()];
        FS_CHECK(last.offset + last.pending == total_windows,
                 "fleet shard offsets must tile the score buffer");
        scores_.resize(total_windows);
        if (config_.mode == score_mode::per_shard) {
            score_per_shard();
        } else {
            score_fused(total_windows);
        }
        if (obs::enabled()) {
            // Identical in both modes (one batch per scoring tick), so the
            // default run manifest never depends on the score mode.
            obs::add_counter("serve/batches");
            obs::add_counter("serve/windows_scored", total_windows);
        }
    }
    const clock::time_point t_scored = clock::now();

    // Phase 3 — shard apply in parallel (each shard's debounce state and
    // result slot are its own; obs counters are exact under concurrency).
    util::parallel_for(0, shards_.size(), 1, [this](std::size_t s) {
        shard_slot& sh = *shards_[s];
        sh.result = sh.engine.tick_apply({scores_.data() + sh.offset, sh.pending});
    });
    const clock::time_point t_applied = clock::now();
    timings_.ingest_us = us_between(t_start, t_ingested);
    timings_.score_us = us_between(t_ingested, t_scored);
    timings_.apply_us = us_between(t_scored, t_applied);
    if (obs::enabled()) {
        obs::observe_latency_us("serve/score_ingest_us", timings_.ingest_us);
        obs::observe_latency_us("serve/score_apply_us", timings_.apply_us);
    }

    // Merge in ascending shard order, rewriting shard-local session ids to
    // router-global ids: one canonical trigger order.
    tick_result result;
    for (const auto& sh : shards_) {
        result.samples_ingested += sh->result.samples_ingested;
        result.windows_scored += sh->result.windows_scored;
        for (trigger_event e : sh->result.triggers) {
            e.session = sh->local_to_global[e.session];
            result.triggers.push_back(e);
        }
        sh->result.triggers.clear();
    }
    return result;
}

void fleet_router::score_fused(std::size_t total_windows) {
    // Gather every shard's staged windows into one contiguous batch, then
    // one serial score call over the whole fleet.
    batch_.resize(total_windows * window_elems_);
    util::parallel_for(0, nonempty_.size(), 1, [this](std::size_t i) {
        const shard_slot& sh = *shards_[nonempty_[i]];
        const std::span<const float> w = sh.engine.pending_windows();
        std::copy(w.begin(), w.end(),
                  batch_.begin() +
                      static_cast<std::ptrdiff_t>(sh.offset * window_elems_));
    });
    const std::span<const float> in(batch_.data(), total_windows * window_elems_);
    const std::span<float> out(scores_.data(), total_windows);
    if (obs::enabled()) {
        const clock::time_point start = clock::now();
        scorer_->score(in, total_windows, window_elems_, out);
        obs::observe_latency_us("serve/batch_score_us", us_between(start, clock::now()));
    } else {
        scorer_->score(in, total_windows, window_elems_, out);
    }
}

void fleet_router::score_per_shard() {
    // Each nonempty shard scores its own staged windows with its private
    // replica, straight into its disjoint slice of scores_ — no fleet-wide
    // copy.  Slices tile scores_ exactly like the fused batch, and every
    // scorer is deterministic per window, so the bits match fused mode.
    util::parallel_for(0, nonempty_.size(), 1, [this](std::size_t i) {
        const std::size_t s = nonempty_[i];
        shard_slot& sh = *shards_[s];
        const std::span<const float> in = sh.engine.pending_windows();
        const std::span<float> out(scores_.data() + sh.offset, sh.pending);
        if (obs::enabled()) {
            // The registry is thread-safe when enabled, and histograms are
            // excluded from the default manifest — recording from inside
            // pool tasks never perturbs manifest parity across modes.
            const clock::time_point start = clock::now();
            replicas_[s]->score(in, sh.pending, window_elems_, out);
            obs::observe_latency_us("serve/score_shard_us", us_between(start, clock::now()));
        } else {
            replicas_[s]->score(in, sh.pending, window_elems_, out);
        }
    });
}

void fleet_router::install_scorer(std::unique_ptr<batch_scorer> next) {
    FS_ARG_CHECK(next != nullptr, "install_scorer needs a scorer");
    scorer_ = std::move(next);
    for (const auto& sh : shards_) sh->engine.rebind_scorer(*scorer_);
    if (config_.mode == score_mode::per_shard) {
        // Rebuild every replica before the next tick: the swap is atomic
        // at tick granularity in both modes.
        replicas_ = make_scorer_replicas(*scorer_, shards_.size());
    }
}

void fleet_router::swap_scorer(std::unique_ptr<batch_scorer> next) {
    install_scorer(std::move(next));
    ++swap_generation_;
    obs::add_counter("serve/scorer_swaps");
    obs::set_gauge("serve/swap_generation", static_cast<double>(swap_generation_));
}

fleet_checkpoint fleet_router::snapshot() const {
    fleet_checkpoint cp;
    cp.ticks = ticks_;
    cp.swap_generation = swap_generation_;
    cp.shard_count = static_cast<std::uint32_t>(shards_.size());
    cp.live.resize(routes_.size());
    cp.sessions.reserve(live_session_count());
    // Live-session stat sums per shard, to back out the retired remainder.
    std::vector<session_stats> live_sums(shards_.size());
    for (std::size_t id = 0; id < routes_.size(); ++id) {
        const route& r = routes_[id];
        cp.live[id] = r.live ? 1 : 0;
        if (!r.live) continue;
        session_checkpoint& sc = cp.sessions.emplace_back();
        shards_[r.shard]->engine.capture_session(r.local, sc);
        sc.global_id = static_cast<session_id>(id);
        session_stats& sum = live_sums[r.shard];
        sum.accepted += sc.stats.accepted;
        sum.dropped += sc.stats.dropped;
        sum.rejected += sc.stats.rejected;
        sum.ingested += sc.stats.ingested;
        sum.windows_scored += sc.stats.windows_scored;
        sum.triggers += sc.stats.triggers;
        sum.nonfinite += sc.stats.nonfinite;
        sum.score_faults += sc.stats.score_faults;
    }
    cp.retired.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const engine_stats& t = shards_[s]->engine.totals();
        const session_stats& sum = live_sums[s];
        cp.retired[s] = {t.accepted - sum.accepted,       t.dropped - sum.dropped,
                         t.rejected - sum.rejected,       t.ingested - sum.ingested,
                         t.windows_scored - sum.windows_scored, t.triggers - sum.triggers,
                         t.nonfinite - sum.nonfinite,       t.score_faults - sum.score_faults};
    }
    return cp;
}

void fleet_router::restore(const fleet_checkpoint& cp) {
    FS_ARG_CHECK(cp.shard_count > 0, "fleet checkpoint needs at least one shard");
    FS_ARG_CHECK(cp.retired.size() == cp.shard_count,
                 "fleet checkpoint retired stats must cover every capture shard");
    const std::size_t live_total =
        static_cast<std::size_t>(std::count(cp.live.begin(), cp.live.end(), std::uint8_t{1}));
    FS_ARG_CHECK(cp.sessions.size() == live_total,
                 "fleet checkpoint must carry exactly one record per live session");

    // Rebuild the shards from scratch under the CURRENT config (the shard
    // count may differ from the capture — that is rebalancing).
    shards_.clear();
    routes_.clear();
    shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
        shards_.push_back(std::make_unique<shard_slot>(config_.engine, *scorer_));
    }
    if (config_.mode == score_mode::per_shard) {
        replicas_ = make_scorer_replicas(*scorer_, config_.shards);
    }

    // Replay the dense global id space in order: every id hashes to its
    // shard exactly as live admission would have routed it.
    std::vector<session_stats> live_sums(shards_.size());
    std::vector<std::uint64_t> evicted(shards_.size(), 0);
    auto next = cp.sessions.begin();
    routes_.reserve(cp.live.size());
    for (std::size_t id = 0; id < cp.live.size(); ++id) {
        const std::size_t s = shard_of(static_cast<session_id>(id));
        shard_slot& sh = *shards_[s];
        session_id local = 0;
        if (cp.live[id]) {
            FS_ARG_CHECK(next != cp.sessions.end() && next->global_id == id,
                         "fleet checkpoint sessions must be ascending and match the live set");
            local = sh.engine.restore_session(*next);
            session_stats& sum = live_sums[s];
            sum.accepted += next->stats.accepted;
            sum.dropped += next->stats.dropped;
            sum.rejected += next->stats.rejected;
            sum.ingested += next->stats.ingested;
            sum.windows_scored += next->stats.windows_scored;
            sum.triggers += next->stats.triggers;
            sum.nonfinite += next->stats.nonfinite;
            sum.score_faults += next->stats.score_faults;
            ++next;
        } else {
            sh.engine.restore_evicted_slot();
            local = static_cast<session_id>(sh.local_to_global.size());
            ++evicted[s];
        }
        FS_CHECK(local == sh.local_to_global.size(), "shard-local session ids must be dense");
        sh.local_to_global.push_back(static_cast<session_id>(id));
        routes_.push_back({static_cast<std::uint32_t>(s), local, cp.live[id] != 0});
    }
    FS_ARG_CHECK(next == cp.sessions.end(),
                 "fleet checkpoint carries sessions missing from the live set");

    // Reinstall per-shard totals: live sums plus the retired remainder.
    // When the shard layout is unchanged the remainder is exact per shard;
    // under a resize the retired history cannot be attributed (the sessions
    // are gone), so it folds into shard 0 — fleet-wide sums stay exact.
    const bool same_layout = cp.shard_count == shards_.size();
    session_stats folded{};
    if (!same_layout) {
        for (const session_stats& r : cp.retired) {
            folded.accepted += r.accepted;
            folded.dropped += r.dropped;
            folded.rejected += r.rejected;
            folded.ingested += r.ingested;
            folded.windows_scored += r.windows_scored;
            folded.triggers += r.triggers;
            folded.nonfinite += r.nonfinite;
            folded.score_faults += r.score_faults;
        }
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        shard_slot& sh = *shards_[s];
        static const session_stats zero{};
        const session_stats& retired =
            same_layout ? cp.retired[s] : (s == 0 ? folded : zero);
        engine_stats t;
        t.accepted = live_sums[s].accepted + retired.accepted;
        t.dropped = live_sums[s].dropped + retired.dropped;
        t.rejected = live_sums[s].rejected + retired.rejected;
        t.ingested = live_sums[s].ingested + retired.ingested;
        t.windows_scored = live_sums[s].windows_scored + retired.windows_scored;
        t.triggers = live_sums[s].triggers + retired.triggers;
        t.nonfinite = live_sums[s].nonfinite + retired.nonfinite;
        t.score_faults = live_sums[s].score_faults + retired.score_faults;
        t.ticks = cp.ticks;
        t.sessions_created = sh.local_to_global.size();
        t.sessions_evicted = evicted[s];
        sh.engine.restore_totals(t);
    }
    ticks_ = cp.ticks;
    swap_generation_ = cp.swap_generation;
    // Re-assert the serve gauges to the restored truth (a ckpt obs merge
    // may have just replayed the capture-time values, which a rebalance
    // makes stale).
    obs::set_gauge("serve/sessions_live", static_cast<double>(live_session_count()));
    obs::set_gauge("serve/shards", static_cast<double>(shards_.size()));
    obs::set_gauge("serve/swap_generation", static_cast<double>(swap_generation_));
}

void fleet_router::rebalance(std::size_t new_shard_count) {
    FS_ARG_CHECK(new_shard_count > 0, "fleet needs at least one shard");
    const fleet_checkpoint cp = snapshot();
    config_.shards = new_shard_count;
    nonempty_.reserve(new_shard_count);
    restore(cp);
}

std::size_t fleet_router::live_session_count() const {
    std::size_t live = 0;
    for (const auto& sh : shards_) live += sh->engine.live_session_count();
    return live;
}

std::size_t fleet_router::queue_depth(session_id id) const {
    const route& r = route_of(id);
    return shards_[r.shard]->engine.queue_depth(r.local);
}

std::size_t fleet_router::drain_rate(session_id id) const {
    const route& r = route_of(id);
    return shards_[r.shard]->engine.drain_rate(r.local);
}

float fleet_router::last_score(session_id id) const {
    const route& r = route_of(id);
    return shards_[r.shard]->engine.last_score(r.local);
}

const session_stats& fleet_router::stats(session_id id) const {
    const route& r = route_of(id);
    return shards_[r.shard]->engine.stats(r.local);
}

engine_stats fleet_router::totals() const {
    engine_stats out;
    for (const auto& sh : shards_) {
        const engine_stats& t = sh->engine.totals();
        out.accepted += t.accepted;
        out.dropped += t.dropped;
        out.rejected += t.rejected;
        out.ingested += t.ingested;
        out.windows_scored += t.windows_scored;
        out.triggers += t.triggers;
        out.sessions_created += t.sessions_created;
        out.sessions_evicted += t.sessions_evicted;
        out.nonfinite += t.nonfinite;
        out.score_faults += t.score_faults;
    }
    out.ticks = ticks_;
    return out;
}

}  // namespace fallsense::serve
