// sharded_capacity: 4096 wearers, closed loop (feed one sample per wearer,
// then tick, as fast as it goes), 4 shards, 4 pool threads, float32 CNN.
// Every 50 ticks the oldest wearer is evicted and a new one admitted; every
// 250 ticks the fleet is captured and encoded in memory (ckpt::capture +
// ckpt::encode_snapshot) between the feed and the tick, so snapshot ticks
// form the latency tail.  In the closed loop a window's due time is the
// moment its last sample was offered.  Decision latency and capacity are
// taken on the wall clock, so the pool's hand-offs and waits count in full.
//
// The traced run repeats the same traffic at one pool thread afterwards, so
// the trace holds fleet_router::tick spans at 4 and at 1 thread.
#include <algorithm>
#include <deque>
#include <memory>

#include "ckpt/store.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace rtbench {

namespace serve = fallsense::serve;

namespace {

constexpr std::size_t k_wearers = 4096;
constexpr std::size_t k_shards = 4;
constexpr std::size_t k_threads = 4;
constexpr std::uint64_t k_churn_every = 50;
constexpr std::uint64_t k_snapshot_every = 250;
/// The closed loop runs a fixed number of ticks, about one second's worth
/// per second asked for on a 4-vCPU host, so every run goes through the
/// same churn and snapshot cycles and ends with a comparable footprint.
constexpr double k_ticks_per_second = 300.0;
/// Offer times are read once per this many wearers.
constexpr std::size_t k_offer_chunk = 64;

struct sharded_fleet {
    std::vector<serve::session_stream> streams;
    std::atomic<std::uint64_t> ticks_done{0};
    bench_scorer* scorer = nullptr;
    std::unique_ptr<serve::fleet_router> router;
    std::deque<serve::session_id> live;  ///< admission order, so ascending id
    std::vector<std::size_t> stream_of;  ///< wearer id -> stream
    std::vector<std::uint64_t> offered;  ///< wearer id -> samples offered
    std::uint64_t retired_windows = 0;   ///< windows due from evicted wearers
    score_gate gate{k_wearers};
    double rss_after_synthesis_mb = 0.0;
    double setup_s = 0.0;

    bool feed(serve::session_id id) {
        const fallsense::data::raw_sample& s = streams[stream_of[id]].next();
        ++offered[id];
        const bool ok = router->feed(id, s);
        if (ok && gate.follows(id)) gate.on_accept(id, s);
        return ok;
    }

    /// Evict the oldest wearer and admit a new one on its stream, rewound.
    void churn() {
        trace::span s("serve.churn");
        const serve::session_id old = live.front();
        live.pop_front();
        gate.forget(old);
        retired_windows += window_rule(paper_detector()).windows(router->stats(old).ingested);
        router->evict_session(old);
        const serve::session_id fresh = router->create_session();
        stream_of.push_back(stream_of[old]);
        offered.push_back(0);
        streams[stream_of[old]].cursor = 0;
        live.push_back(fresh);
    }

    void snapshot() {
        trace::span s("ckpt.snapshot");
        const auto snap = fallsense::ckpt::capture(*router);
        const std::vector<std::uint8_t> bytes = fallsense::ckpt::encode_snapshot(snap);
        s.arg("bytes", static_cast<double>(bytes.size()));
        s.arg("wearers", static_cast<double>(live.size()));
    }
};

void setup(sharded_fleet& f, const options& opt) {
    const double cpu_t0 = process_cpu_seconds();
    f.streams = serve::synthesize_fleet_streams(k_wearers, opt.seed);
    f.rss_after_synthesis_mb = resident_mb();

    auto scorer = std::make_unique<bench_scorer>(
        serve::make_scorer(bench_spec(serve::scorer_backend::float32)), "nn.score",
        &f.ticks_done);
    f.scorer = scorer.get();
    serve::fleet_config cfg;
    cfg.engine.detector = paper_detector();
    cfg.shards = k_shards;
    f.router = std::make_unique<serve::fleet_router>(cfg, std::move(scorer));
    for (std::size_t i = 0; i < k_wearers; ++i) {
        f.live.push_back(f.router->create_session());
        f.stream_of.push_back(i);
    }
    f.offered.assign(k_wearers, 0);

    const window_rule rule(paper_detector());
    for (std::uint64_t t = 0; t < rule.hop - 1 + rule.window; ++t) {
        for (const serve::session_id id : f.live) {
            if (id % rule.hop <= t) f.feed(id);
        }
        const serve::tick_result r = f.router->tick();
        f.gate.after_tick(*f.router, r);
        f.ticks_done.fetch_add(1);
    }
    f.setup_s = process_cpu_seconds() - cpu_t0;
}

/// Closed loop for `ticks` ticks, on the wall clock: a window waits from its
/// wearer's offer through the rest of the feed loop, the snapshot when one
/// is taken, and the whole tick, the pool's hand-offs and waits included.
phase_stats run_timed(sharded_fleet& f, const options& opt, std::uint64_t ticks) {
    const window_rule rule(paper_detector());
    phase_stats ph;
    const serve::engine_stats before = f.router->totals();
    std::vector<bench_clock::time_point> chunk_time;
    std::vector<std::uint64_t> chunk_due;
    std::vector<serve::session_id> due;
    bool armed = !opt.perturb;
    const double cpu0 = process_cpu_seconds();
    for (std::uint64_t k = 0; k < ticks; ++k) {
        trace::set_tick(f.ticks_done.load());
        const bench_clock::time_point start = bench_clock::now();
        const auto block = static_cast<std::size_t>(static_cast<double>(k) / k_ticks_per_second);
        if (k > 0 && k % k_churn_every == 0) f.churn();
        chunk_time.clear();
        chunk_due.clear();
        due.clear();
        {
            trace::span s("serve.feed");
            s.arg("samples", static_cast<double>(f.live.size()));
            std::size_t j = 0;
            for (const serve::session_id id : f.live) {
                if (j++ % k_offer_chunk == 0) {
                    chunk_time.push_back(bench_clock::now());
                    chunk_due.push_back(0);
                }
                f.feed(id);
                if (rule.due_at(f.offered[id])) {
                    ++chunk_due.back();
                    if (!armed) due.push_back(id);
                }
            }
            ph.samples_offered += f.live.size();
        }
        if (k > 0 && k % k_snapshot_every == 0) f.snapshot();
        if (!armed && k >= 3) {
            // The fused batch orders windows by shard, then by id in a shard.
            std::sort(due.begin(), due.end(), [&](serve::session_id a, serve::session_id b) {
                const std::size_t sa = f.router->shard_of(a);
                const std::size_t sb = f.router->shard_of(b);
                return sa != sb ? sa < sb : a < b;
            });
            armed = arm_on_followed(*f.scorer, f.gate, due, f.ticks_done.load());
        }
        serve::tick_result r;
        {
            trace::span s("serve.tick");
            r = f.router->tick();
        }
        const bench_clock::time_point end = bench_clock::now();
        f.gate.after_tick(*f.router, r);
        f.ticks_done.fetch_add(1);
        for (std::size_t c = 0; c < chunk_time.size(); ++c) {
            ph.decided(block, ms_between(chunk_time[c], end), chunk_due[c]);
            ph.windows_due += chunk_due[c];
        }
        ph.served(block, ms_between(start, end) * 1e-3, r.samples_ingested);
        ph.windows_scored += r.windows_scored;
        ++ph.ticks;
    }
    ph.cpu_s = process_cpu_seconds() - cpu0;
    const serve::engine_stats after = f.router->totals();
    ph.samples_admitted = ph.samples_offered - (after.dropped - before.dropped) -
                          (after.rejected - before.rejected);
    return ph;
}

void check(sharded_fleet& f, report& out) {
    const std::vector<serve::session_id> live(f.live.begin(), f.live.end());
    check_windows_scored(*f.router, live, f.retired_windows, out);
    f.gate.verify(bench_spec(serve::scorer_backend::float32), paper_detector(), out);
    out.perturbed = out.perturbed || f.scorer->perturbed();
}

}  // namespace

report run_sharded_capacity(const options& opt) {
    // Forks, so it comes before the pool starts its threads.
    const keep_awake awake;
    const auto ticks = static_cast<std::uint64_t>(opt.seconds * k_ticks_per_second);
    fallsense::util::set_global_threads(k_threads);
    report out;
    double untraced_cpu = 0.0;
    {
        sharded_fleet f;
        setup(f, opt);
        if (opt.setup_only) {
            out.add("setup_s", "s", f.setup_s, 1);
            return out;
        }
        phase_stats ph = run_timed(f, opt, ticks);
        const double fleet_rss_mb = resident_mb() - f.rss_after_synthesis_mb;
        check(f, out);
        untraced_cpu = ph.cpu_us_per_sample();
        add_end_to_end(out, ph, f.setup_s, fleet_rss_mb);
    }
    if (opt.trace_out.empty()) return out;

    {
        sharded_fleet f;
        setup(f, opt);
        f.scorer->capture_batches(16, 24);
        trace::set_phase("main");
        trace::set_enabled(true);
        const phase_stats ph = run_timed(f, opt, ticks);
        trace::set_enabled(false);
        check(f, out);
        out.trace_values.emplace_back("cpu_us_per_sample.untraced", untraced_cpu);
        out.trace_values.emplace_back("cpu_us_per_sample.traced", ph.cpu_us_per_sample());
        out.trace_values.emplace_back("pool_threads.main", static_cast<double>(k_threads));
        trace::set_phase("layers");
        trace::set_enabled(true);
        replay_layers(f.scorer->captured(), bench_spec(serve::scorer_backend::float32), out);
        trace::set_enabled(false);
    }
    // Same traffic, same ticks, one pool thread.
    fallsense::util::set_global_threads(1);
    {
        sharded_fleet f;
        setup(f, opt);
        trace::set_phase("threads1");
        trace::set_enabled(true);
        run_timed(f, opt, ticks);
        trace::set_enabled(false);
        check(f, out);
    }
    fallsense::util::set_global_threads(k_threads);
    return out;
}

}  // namespace rtbench
