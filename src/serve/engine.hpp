// Fleet-scale multi-session scoring engine.
//
// `session_engine` hosts N independent IMU streams in one process.  Each
// session is one slot of the engine's core::detector_table (ring buffer,
// streaming filter delay lines, sensor-fusion attitude, debounce run) —
// the same table the single-stream streaming_detector runs with one slot,
// so a hosted session is behaviorally identical to a dedicated detector
// fed the same accepted samples.  Per slot the engine adds a bounded input
// queue (a fixed ring of `queue_capacity` samples), its lifetime counters
// and its drain rate.  Session ids are dense and never reused; an id ->
// slot index maps them to slots, and a slot freed by eviction is reused by
// the next create_session.
//
// The queue rings are the one per-slot row that is mostly idle: a session
// drained every tick never holds more than a sample or two.  So they live
// in blocks of 32 slots stored entry-major (entry e of all 32 rings is
// contiguous), allocated without zero-filling, and a queue that drains to
// empty restarts at entry 0.  Such a session only ever writes entry 0, in
// the first 768 bytes of its block, and the rest of the block never
// becomes resident.
//
// A `tick()` advances every session by up to its drain rate in queued
// samples, assembles ALL windows that became due across sessions into one
// row-major batch, scores them with a single batch_scorer call, and then
// applies thresholds/debouncing per session.  The three phases keep the
// engine deterministic for any FALLSENSE_THREADS:
//
//   A. ingest — serial in ascending session id; each due window is
//      assembled once, straight into the next row of the engine's batch,
//      so rows run in ascending session, chronological within a session
//      (`stream/samples` is counted once per pass, with its sample count);
//   B. one scorer call — every scorer implementation guarantees
//      probability i depends only on window i;
//   C. score application — serial in batch order, so the trigger list and
//      debounce transitions have one canonical order.
//
// The engine has no parallel axis of its own.  The three phases are also
// exposed individually (`tick_ingest`, `pending_windows`, `tick_apply`) so
// an external batcher — the serve::fleet_router — can run phase A on its
// shard engines in parallel, concatenate their batches into one fleet-wide
// batch, score it with a single scorer call, and hand each engine its
// slice of scores.  `tick()` is exactly the composition of the three with
// the engine's own scorer in the middle.
//
// Admission is per-session and bounded: when a session's queue is full,
// `drop_policy::drop_oldest` evicts the oldest queued sample (freshest-data
// wins — right for a latency-critical alarm), `drop_policy::reject_newest`
// refuses the new sample (lossless for already-admitted data — right for
// replay/backfill).  Both count saturation per session and engine-wide.
//
// Adaptive drain: with `max_samples_per_tick` above `samples_per_tick`, a
// session whose queue depth exceeds `drain_watermark` doubles its per-tick
// drain rate toward the max, and halves it back toward the base once the
// backlog clears.  The rate is a pure function of the session's queue
// state at the start of each tick — never of timing or thread count — so
// the determinism contract is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/batch_scorer.hpp"

namespace fallsense::serve {

enum class drop_policy {
    drop_oldest,    ///< queue full: evict the oldest queued sample, admit the new one
    reject_newest,  ///< queue full: refuse the new sample
};

const char* drop_policy_name(drop_policy policy);
/// Parse "oldest" / "reject" (also the canonical "drop-oldest" /
/// "reject-newest"); anything else returns std::nullopt.
std::optional<drop_policy> parse_drop_policy(const std::string& text);

struct engine_config {
    core::detector_config detector{};
    /// Bounded per-session input queue (admission control).
    std::size_t queue_capacity = 64;
    drop_policy policy = drop_policy::drop_oldest;
    /// Baseline samples dequeued per session per tick.
    std::size_t samples_per_tick = 1;
    /// Adaptive drain ceiling: when above samples_per_tick, a backlogged
    /// session's drain rate doubles toward this value each tick its queue
    /// depth exceeds the watermark, and halves back once it no longer
    /// does.  0 (or == samples_per_tick) keeps the drain rate fixed.
    std::size_t max_samples_per_tick = 0;
    /// Queue depth above which a session counts as backlogged; 0 means
    /// half the queue capacity.
    std::size_t drain_watermark = 0;

    /// Configuration error, or std::nullopt when the config is usable.
    /// Engine and router constructors call this and throw
    /// std::invalid_argument with the returned description.
    std::optional<std::string> validate() const;
    /// The effective backlog threshold (resolves the 0 default).
    std::size_t effective_watermark() const;
    bool adaptive_drain() const { return max_samples_per_tick > samples_per_tick; }
};

using session_id = std::uint32_t;

/// Per-session lifetime counters (monotonic; survive until eviction).
struct session_stats {
    std::uint64_t accepted = 0;   ///< samples admitted to the queue
    std::uint64_t dropped = 0;    ///< oldest samples evicted (drop_oldest)
    std::uint64_t rejected = 0;   ///< new samples refused (reject_newest)
    std::uint64_t ingested = 0;   ///< samples consumed by ticks
    std::uint64_t windows_scored = 0;
    std::uint64_t triggers = 0;
    /// Samples refused for a NaN or infinite component.  In-memory fleet
    /// restores and rebalances keep it; the v1 snapshot encoding does not
    /// carry it (docs/checkpoint.md), so a decoded session restarts at 0.
    std::uint64_t nonfinite = 0;
    /// Windows whose score came back NaN or infinite: no trigger, the
    /// debounce run restarts and the last score keeps its previous value.
    /// Like `nonfinite`, in-memory restores keep it and the v1 snapshot
    /// encoding does not carry it.
    std::uint64_t score_faults = 0;
};

/// Engine-wide totals (sums over all sessions ever hosted).
struct engine_stats {
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t ingested = 0;
    std::uint64_t windows_scored = 0;
    std::uint64_t triggers = 0;
    std::uint64_t ticks = 0;
    std::uint64_t sessions_created = 0;
    std::uint64_t sessions_evicted = 0;
    std::uint64_t nonfinite = 0;  ///< samples refused for a non-finite component
    std::uint64_t score_faults = 0;  ///< windows scored NaN or infinite
};

/// True when every accel and gyro component of `sample` is finite — the
/// admission check session_engine::feed applies.  One NaN would poison a
/// session's Butterworth state for good, so such samples never enter.
bool sample_is_finite(const data::raw_sample& sample);

/// Everything needed to reconstruct one live session in another engine
/// (or process): lifetime counters, the adaptive drain rate, the queued
/// but not yet ingested samples, and the detector image.  src/ckpt
/// serializes exactly these fields (docs/checkpoint.md).
struct session_checkpoint {
    session_id global_id = 0;  ///< router-global id (stamped by the fleet)
    session_stats stats{};
    std::uint64_t drain_rate = 0;
    std::vector<data::raw_sample> queue;  ///< front (oldest) first
    core::detector_state_image detector{};
};

struct trigger_event {
    session_id session = 0;
    std::size_t sample_index = 0;  ///< session-local tick of the scored window
    float probability = 0.0f;
};

struct tick_result {
    std::uint64_t samples_ingested = 0;
    std::uint64_t windows_scored = 0;
    /// Ascending session id, then chronological within a session.
    std::vector<trigger_event> triggers;
};

class session_engine {
public:
    /// `scorer` is borrowed and must outlive the engine; the engine calls
    /// it serially (one batch per tick).
    session_engine(const engine_config& config, batch_scorer& scorer);

    /// Admit a new session (ids are never reused; slot storage is).
    session_id create_session();
    /// Remove a session; its queue and state are discarded.  Throws for
    /// unknown/already-evicted ids.
    void evict_session(session_id id);
    bool is_live(session_id id) const;

    /// Offer one sample to a session's queue.  Returns false iff the
    /// sample was refused: a non-finite component (counted in `nonfinite`
    /// and `serve/samples_nonfinite`, the session untouched), or
    /// reject_newest on a full queue (counted in `rejected`).
    bool feed(session_id id, const data::raw_sample& sample);

    /// Advance every live session by up to its drain rate in queued
    /// samples, batch-score all due windows, apply debouncing.
    tick_result tick();

    /// Phase A for an external batcher: ingest queued samples, assemble
    /// every window that became due into one row-major batch, and return
    /// the number of pending windows.  Must be followed by exactly one
    /// `tick_apply` (even when 0 windows are pending, so ingestion
    /// counters land in a result); no session may be evicted in between.
    std::size_t tick_ingest();
    /// Row-major [pending x window_elems] view of the windows assembled by
    /// the last `tick_ingest`; valid until the next `tick_ingest`.
    std::span<const float> pending_windows() const;
    std::size_t window_elems() const { return window_elems_; }
    /// Phase C with externally computed scores (`scores.size()` must equal
    /// the count returned by the preceding `tick_ingest`).  A non-finite
    /// score is a scorer fault: counted in `score_faults` and
    /// `serve/score_faults`, it fires nothing and restarts the debounce run.
    tick_result tick_apply(std::span<const float> scores);

    /// Point the engine's own `tick()` at a different scorer (the fleet
    /// router rebinds shards on hot-swap).  The scorer must outlive the
    /// engine; never call during a tick.
    void rebind_scorer(batch_scorer& scorer) { scorer_ = &scorer; }

    // --- checkpoint support (driven by fleet_router::snapshot/restore;
    //     only meaningful between ticks) ---
    /// Capture one live session's full state into `out` (reusing buffers).
    /// `out.global_id` is left untouched — the fleet owns global ids.
    void capture_session(session_id id, session_checkpoint& out) const;
    /// Recreate a session from a checkpoint as the next dense id, which is
    /// returned.  Unlike create_session this touches no obs metrics and no
    /// engine totals — a restore reinstalls totals wholesale afterwards via
    /// restore_totals, and the snapshot's obs image travels separately.
    session_id restore_session(const session_checkpoint& cp);
    /// Append an evicted (null) slot so local ids line up with the source
    /// engine's dense id space.
    void restore_evicted_slot();
    /// Install engine-wide totals (the fleet recomputes these per shard).
    void restore_totals(const engine_stats& totals) { totals_ = totals; }

    std::size_t live_session_count() const { return live_count_; }
    std::size_t queue_depth(session_id id) const;
    /// Current adaptive drain rate (== samples_per_tick when fixed).
    std::size_t drain_rate(session_id id) const;
    /// Session-local last finite score (NaN before the first).
    float last_score(session_id id) const;
    /// Valid until the next create_session / restore_session.
    const session_stats& stats(session_id id) const;
    const engine_stats& totals() const { return totals_; }
    const engine_config& config() const { return config_; }
    batch_scorer& scorer() { return *scorer_; }

private:
    static constexpr std::uint32_t k_evicted = UINT32_MAX;

    /// The live session's slot; throws for unknown or evicted ids.
    std::size_t slot_of(session_id id) const;
    /// A fresh slot from the detector table, with the engine's per-slot
    /// state (queue, counters, drain rate) grown or reset to match.  The
    /// only place queue blocks are allocated.
    std::size_t open_slot();
    /// Entry `entry` of `slot`'s queue ring.
    data::raw_sample& queue_entry(std::size_t slot, std::size_t entry);
    const data::raw_sample& queue_entry(std::size_t slot, std::size_t entry) const;

    engine_config config_;
    batch_scorer* scorer_;
    core::detector_table detectors_;
    std::size_t window_elems_ = 0;
    std::vector<std::uint32_t> slots_;  ///< index == id; k_evicted once evicted
    std::size_t live_count_ = 0;
    engine_stats totals_;
    static constexpr std::size_t k_queue_block_slots = 32;
    /// Queue rings of k_queue_block_slots slots per block, entry-major:
    /// [queue_capacity][k_queue_block_slots] samples, never zero-filled.
    std::vector<std::unique_ptr<std::byte[]>> queue_blocks_;
    // Per-slot arrays beside the detector table's, index == slot.
    std::vector<std::size_t> queue_head_;  ///< ring index of the oldest; 0 when empty
    std::vector<std::size_t> queue_size_;
    std::vector<std::size_t> drain_rate_;  ///< samples dequeued per tick (adaptive)
    std::vector<session_stats> stats_;
    /// One window assembled by the last tick_ingest, in batch order.
    struct due_window {
        session_id session;
        std::size_t tick;  ///< session-local tick the window was scored at
    };
    // Tick scratch (reused across ticks so the steady state allocates
    // nothing once batches have reached their high-water marks).
    std::vector<float> batch_;  ///< row-major [due x window_elems], never shrinks
    std::vector<due_window> due_;
    std::vector<float> scores_;
    std::uint64_t tick_ingested_ = 0;  ///< samples consumed by the last tick_ingest
};

}  // namespace fallsense::serve
