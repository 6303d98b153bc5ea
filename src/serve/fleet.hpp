// Sharded fleet router with atomic model hot-swap.
//
// `fleet_router` scales the session_engine horizontally: K engines
// ("shards"), each hosting a disjoint subset of the fleet, with sessions
// assigned by a deterministic hash of their router-global session id.  A
// router tick runs the engine sub-phases fleet-wide:
//
//   1. shard ingest — every shard runs `tick_ingest` as one thread-pool
//      task (per-shard state is disjoint, and an engine ingests its
//      sessions serially — shards are the only parallel axis);
//   2. score — governed by `fleet_config::mode`:
//        fused (default): each shard's staged windows are copied, in
//        ascending shard order, into ONE row-major buffer scored by a
//        single `batch_scorer::score` call — the whole fleet's windows in
//        one GEMM;
//        per_shard: each shard scores its own staged windows inside its
//        pool task, using a private scorer replica (batch_scorer::clone),
//        writing into its disjoint slice of the shared score buffer — no
//        fleet-wide copy, K concurrent score calls;
//   3. shard apply — every shard applies its slice of the scores
//      (`tick_apply`) as one pool task; trigger lists are merged in
//      ascending shard order with shard-local session ids rewritten to
//      router-global ids.
//
// Phase offsets are a pure function of shard order, apply order within a
// shard is the engine's canonical order, and the merge order is fixed —
// so router output is bit-identical for any FALLSENSE_THREADS, the same
// contract the single engine carries.  The two score modes are also
// bit-identical to EACH OTHER: every scorer is deterministic per window
// (probability i depends only on window i), slice offsets match the fused
// batch offsets exactly, and replicas clone the installed scorer bit for
// bit.  Mode choice is pure throughput policy — see docs/serving.md.
//
// Hot-swap: the router owns the fleet's scorer.  `swap_scorer` installs a
// replacement strictly between ticks — every window staged at tick t is
// scored by the scorer installed at tick t, no window is ever dropped,
// split across models, or scored twice.  Each swap bumps a monotonic swap
// generation surfaced via `serve/swap_generation` / `serve/scorer_swaps`
// obs metrics (and therefore the run manifest).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace fallsense::serve {

/// How the fleet scores a tick's staged windows (see file comment).
enum class score_mode {
    fused,      ///< one fleet-wide batch, one serial score call
    per_shard,  ///< one scorer replica per shard, K concurrent score calls
};

const char* score_mode_name(score_mode mode);
/// Parse "fused" / "per_shard" (also "per-shard"); else nullopt.
std::optional<score_mode> parse_score_mode(const std::string& text);

struct fleet_config {
    engine_config engine{};
    /// Number of session_engine shards (>= 1).
    std::size_t shards = 1;
    /// Scoring strategy; triggers and manifests are bit-identical across
    /// modes, so this only moves the throughput/latency trade-off.
    score_mode mode = score_mode::fused;
};

/// A whole fleet's state at a tick boundary — what fleet_router::snapshot
/// captures and restore rebuilds (src/ckpt serializes it, docs/checkpoint.md
/// is the normative byte layout).  Session checkpoints carry router-global
/// ids and appear in ascending id order; `live` indexes the dense global id
/// space so evicted ids keep their place (ids are never reused).
struct fleet_checkpoint {
    std::uint64_t ticks = 0;
    std::uint64_t swap_generation = 0;
    /// Shard count at capture time.  A restore into a router configured
    /// with a different count re-routes every session (rebalancing).
    std::uint32_t shard_count = 0;
    std::vector<std::uint8_t> live;  ///< index == global id, 1 = live
    std::vector<session_checkpoint> sessions;  ///< live only, ascending id
    /// Per capture-shard sample counters of sessions evicted before the
    /// snapshot (shard totals minus live-session sums).  Restored exactly
    /// when the shard count is unchanged; folded into shard 0 otherwise
    /// (fleet-wide totals — the observable surface — stay exact either way).
    std::vector<session_stats> retired;
};

/// Wall-clock microseconds of the last tick's phases, recorded every tick
/// (two steady_clock reads per phase, no allocation) so benches can report
/// per-phase costs without enabling the obs registry.
struct tick_timings {
    double ingest_us = 0.0;
    double score_us = 0.0;
    double apply_us = 0.0;
};

class fleet_router {
public:
    /// The router owns `scorer`.  In fused mode it is shared by every
    /// shard and called serially once per tick; in per_shard mode it is
    /// the pristine source the per-shard replicas are cloned from.
    fleet_router(const fleet_config& config, std::unique_ptr<batch_scorer> scorer);
    ~fleet_router();

    /// Admit a new session; returns a router-global id (never reused).
    /// Its shard is `shard_of(id)` for the life of the session.
    session_id create_session();
    void evict_session(session_id id);
    bool is_live(session_id id) const;

    /// Offer one sample; admission semantics are the owning shard's.
    bool feed(session_id id, const data::raw_sample& sample);

    /// Advance every shard one tick; triggers carry router-global ids,
    /// merged in ascending shard order (chronological within a session).
    tick_result tick();

    // --- checkpointing (tick boundaries only; see docs/checkpoint.md) ---
    /// Capture every session, the routing table, and the tick/swap
    /// counters.  Pure read; the fleet is untouched.
    fleet_checkpoint snapshot() const;
    /// Rebuild this fleet from a checkpoint: shards are reconstructed
    /// from scratch and every session is re-routed by the id hash under
    /// the CURRENT shard count, so restoring a K-shard checkpoint into an
    /// M-shard router is exactly a rebalance.  Existing sessions are
    /// discarded.  Touches no obs counters (the snapshot's obs image
    /// travels separately through src/ckpt); serve gauges are re-asserted
    /// to the restored truth.
    void restore(const fleet_checkpoint& cp);
    /// Deterministic shard resize: snapshot, re-route every session by the
    /// existing splitmix64 id hash over `new_shard_count` shards, restore.
    /// Call strictly between ticks.  The resized fleet continues
    /// bit-identically to a fleet that had `new_shard_count` shards from
    /// the start and saw the same traffic.
    void rebalance(std::size_t new_shard_count);
    /// Replace the fleet's scorer WITHOUT bumping the swap generation or
    /// touching obs — restore paths use this to reinstall the scorer
    /// generation a snapshot was taken under.  swap_scorer is this plus
    /// the generation bump and metrics.
    void install_scorer(std::unique_ptr<batch_scorer> next);

    /// Install `next` as the fleet's scorer for all subsequent ticks and
    /// bump the swap generation.  The previous scorer is destroyed.  In
    /// per_shard mode every shard replica is atomically rebuilt from the
    /// new scorer between ticks — no tick ever mixes models.
    void swap_scorer(std::unique_ptr<batch_scorer> next);
    /// Number of completed swaps (0 until the first swap_scorer call).
    std::uint64_t swap_generation() const { return swap_generation_; }

    std::size_t shard_count() const { return shards_.size(); }
    /// Deterministic shard index for a session id (stable across churn).
    std::size_t shard_of(session_id id) const;
    const session_engine& shard(std::size_t index) const;

    batch_scorer& scorer() { return *scorer_; }
    std::size_t live_session_count() const;
    std::size_t queue_depth(session_id id) const;
    std::size_t drain_rate(session_id id) const;
    float last_score(session_id id) const;
    const session_stats& stats(session_id id) const;
    /// Shard totals summed; `ticks` counts router ticks (not shard ticks).
    engine_stats totals() const;
    const fleet_config& config() const { return config_; }
    /// Per-phase wall-clock of the most recent tick().
    const tick_timings& last_tick_timings() const { return timings_; }

private:
    struct shard_slot;
    struct route {
        std::uint32_t shard = 0;
        session_id local = 0;  ///< id inside the shard's engine
        bool live = false;
    };

    const route& route_of(session_id id) const;
    void score_fused(std::size_t total_windows);
    void score_per_shard();

    fleet_config config_;
    std::unique_ptr<batch_scorer> scorer_;
    /// per_shard mode only: replicas_[s] is shard s's private scorer,
    /// rebuilt from scorer_ on every swap.  Empty in fused mode.
    std::vector<std::unique_ptr<batch_scorer>> replicas_;
    std::size_t window_elems_ = 0;
    std::vector<std::unique_ptr<shard_slot>> shards_;
    std::vector<route> routes_;  ///< index == router-global session id
    std::uint64_t ticks_ = 0;
    std::uint64_t swap_generation_ = 0;
    tick_timings timings_;
    // Tick scratch, reused across ticks.
    std::vector<float> batch_;
    std::vector<float> scores_;
    std::vector<std::size_t> nonempty_;  ///< shards with pending windows
};

}  // namespace fallsense::serve
