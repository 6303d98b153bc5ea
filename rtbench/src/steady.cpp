// steady_float: 2048 wearers, open loop at 100 Hz (one sample per wearer
// per 10 ms tick), one shard, one thread, float32 CNN.  Wearers join over
// the first hop of warm-up, so their window phases are staggered evenly and
// every tick scores about 1/20 of the fleet.
//
// The untraced phase runs a one-shard fleet_router.  The traced run drives
// one session_engine through tick_ingest -> pending_windows -> score ->
// tick_apply — exactly what a one-shard router tick composes — so core
// ingest and apply get their own spans; it runs that driver once with spans
// off and once with spans on, for the tracing overhead.
#include <memory>

#include "layers.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace rtbench {

namespace serve = fallsense::serve;

namespace {

constexpr std::size_t k_wearers = 2048;

struct steady_fleet {
    std::vector<serve::session_stream> streams;
    std::atomic<std::uint64_t> ticks_done{0};
    bench_scorer* scorer = nullptr;
    std::unique_ptr<serve::fleet_router> router;     ///< untraced phase
    std::unique_ptr<bench_scorer> engine_scorer;     ///< traced run: borrowed by engine
    std::unique_ptr<serve::session_engine> engine;   ///< traced run
    std::vector<float> scores;                       ///< engine tick scratch
    std::vector<std::uint64_t> offered;              ///< samples offered per wearer
    score_gate gate{k_wearers};
    double rss_after_synthesis_mb = 0.0;
    double setup_s = 0.0;

    bool feed(serve::session_id id) {
        const fallsense::data::raw_sample& s = streams[id].next();
        ++offered[id];
        const bool ok = router ? router->feed(id, s) : engine->feed(id, s);
        if (ok && gate.follows(id)) gate.on_accept(id, s);
        return ok;
    }

    serve::engine_stats totals() const { return router ? router->totals() : engine->totals(); }

    serve::tick_result tick() {
        if (router) return router->tick();
        trace::span t("serve.tick");
        std::size_t windows = 0;
        {
            trace::span s("core.ingest");
            const std::uint64_t before = engine->totals().ingested;
            windows = engine->tick_ingest();
            s.arg("samples", static_cast<double>(engine->totals().ingested - before));
        }
        scores.resize(windows);
        if (windows > 0) {
            engine_scorer->score(engine->pending_windows(), windows, engine->window_elems(),
                                 scores);
        }
        trace::span a("core.apply");
        a.arg("windows", static_cast<double>(windows));
        return engine->tick_apply({scores.data(), windows});
    }

    void after_tick(const serve::tick_result& r) {
        if (router) {
            gate.after_tick(*router, r);
        } else {
            gate.after_tick(*engine, r);
        }
        ticks_done.fetch_add(1);
    }
};

void setup(steady_fleet& f, const options& opt, bool engine_driver) {
    const double cpu_t0 = process_cpu_seconds();
    f.streams = serve::synthesize_fleet_streams(k_wearers, opt.seed);
    f.rss_after_synthesis_mb = resident_mb();

    auto scorer = std::make_unique<bench_scorer>(
        serve::make_scorer(bench_spec(serve::scorer_backend::float32)), "nn.score",
        &f.ticks_done);
    f.scorer = scorer.get();
    serve::engine_config engine;
    engine.detector = paper_detector();
    if (engine_driver) {
        f.engine_scorer = std::move(scorer);
        f.engine = std::make_unique<serve::session_engine>(engine, *f.engine_scorer);
        for (std::size_t i = 0; i < k_wearers; ++i) f.engine->create_session();
    } else {
        serve::fleet_config cfg;
        cfg.engine = engine;
        cfg.shards = 1;
        f.router = std::make_unique<serve::fleet_router>(cfg, std::move(scorer));
        for (std::size_t i = 0; i < k_wearers; ++i) f.router->create_session();
    }
    f.offered.assign(k_wearers, 0);

    // Wearer i joins at tick i % hop; warm up until every wearer holds a
    // full window.
    const window_rule rule(paper_detector());
    for (std::uint64_t t = 0; t < rule.hop - 1 + rule.window; ++t) {
        for (serve::session_id i = 0; i < k_wearers; ++i) {
            if (i % rule.hop <= t) f.feed(i);
        }
        f.after_tick(f.tick());
    }
    f.setup_s = process_cpu_seconds() - cpu_t0;
}

phase_stats run_timed(steady_fleet& f, const options& opt) {
    const window_rule rule(paper_detector());
    phase_stats ph;
    const serve::engine_stats before = f.totals();
    const slot_schedule sched{bench_clock::now() + std::chrono::milliseconds(2)};
    const auto slots = static_cast<std::uint64_t>(opt.seconds * k_sample_rate_hz);
    std::vector<serve::session_id> due;
    bool armed = !opt.perturb;
    service_stage node;
    const double cpu0 = process_cpu_seconds();
    for (std::uint64_t k = 0; k < slots; ++k) {
        trace::set_tick(f.ticks_done.load());
        const bench_clock::time_point start = sched.wait(k);
        const double cpu_start = thread_cpu_seconds();
        trace::record("loadgen.lag", sched.due(k), start, {});
        due.clear();
        {
            trace::span s("serve.feed");
            s.arg("samples", static_cast<double>(k_wearers));
            for (serve::session_id i = 0; i < k_wearers; ++i) {
                f.feed(i);
                if (rule.due_at(f.offered[i])) {
                    ++ph.windows_due;
                    if (!armed) due.push_back(i);
                }
            }
        }
        // One shard: the tick batches due windows in ascending wearer id.
        if (!armed && k >= 3) armed = arm_on_followed(*f.scorer, f.gate, due, f.ticks_done.load());
        const serve::tick_result r = f.tick();
        const double service_ms = (thread_cpu_seconds() - cpu_start) * 1e3;
        f.after_tick(r);
        const double due_ms = ms_between(sched.start, sched.due(k));
        ph.decided(k / k_slots_per_block, node.run(due_ms, service_ms) - due_ms, r.windows_scored);
        ph.served(k / k_slots_per_block, service_ms * 1e-3, r.samples_ingested);
        ph.windows_scored += r.windows_scored;
        ++ph.ticks;
    }
    ph.cpu_s = process_cpu_seconds() - cpu0;
    const serve::engine_stats after = f.totals();
    ph.samples_offered = ph.ticks * k_wearers;
    ph.samples_admitted = ph.samples_offered - (after.dropped - before.dropped) -
                          (after.rejected - before.rejected);
    return ph;
}

void check(steady_fleet& f, report& out) {
    std::vector<serve::session_id> all(k_wearers);
    for (std::size_t i = 0; i < k_wearers; ++i) all[i] = static_cast<serve::session_id>(i);
    if (f.router) {
        check_windows_scored(*f.router, all, 0, out);
    } else {
        check_windows_scored(*f.engine, all, 0, out);
    }
    f.gate.verify(bench_spec(serve::scorer_backend::float32), paper_detector(), out);
    out.perturbed = out.perturbed || f.scorer->perturbed();
}

}  // namespace

report run_steady_float(const options& opt) {
    fallsense::util::set_global_threads(1);
    report out;
    double untraced_cpu = 0.0;
    {
        steady_fleet f;
        setup(f, opt, false);
        if (opt.setup_only) {
            out.add("setup_s", "s", f.setup_s, 1);
            return out;
        }
        phase_stats ph = run_timed(f, opt);
        const double fleet_rss_mb = resident_mb() - f.rss_after_synthesis_mb;
        check(f, out);
        add_end_to_end(out, ph, f.setup_s, fleet_rss_mb);
    }
    if (opt.trace_out.empty()) return out;

    // The engine driver's tracing overhead is taken against the same driver
    // with spans off.
    {
        steady_fleet f;
        setup(f, opt, true);
        untraced_cpu = run_timed(f, opt).cpu_us_per_sample();
        check(f, out);
    }
    steady_fleet f;
    setup(f, opt, true);
    f.scorer->capture_batches(16, 24);
    trace::set_phase("main");
    trace::set_enabled(true);
    const phase_stats ph = run_timed(f, opt);
    trace::set_enabled(false);
    check(f, out);
    out.trace_values.emplace_back("cpu_us_per_sample.untraced", untraced_cpu);
    out.trace_values.emplace_back("cpu_us_per_sample.traced", ph.cpu_us_per_sample());

    const auto spec = bench_spec(serve::scorer_backend::float32);
    trace::set_phase("layers");
    trace::set_enabled(true);
    replay_layers(f.scorer->captured(), spec, out);
    trace::set_enabled(false);
    add_mcu_split(f.scorer->captured(), spec, out);
    out.trace_values.emplace_back("window_samples", static_cast<double>(spec.window_samples));
    return out;
}

}  // namespace rtbench
