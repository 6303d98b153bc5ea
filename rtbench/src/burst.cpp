// burst_wire_int8: 1024 wearers over one loopback TCP connection.  The
// generator thread runs net::wire_client; one server thread runs
// net::ingest_server::pump over a one-shard fleet_router with the int8
// scorer (one pool thread).  Each wearer uplinks a 10-sample burst every
// 100 ms, staggered so each 10 ms slot carries a tenth of the fleet, and
// every slot ends with one tick frame.  Admission is reject_newest on a
// 32-deep queue and the engine drains up to 10 samples per tick.
//
// A window's due time is its slot's send time; it is decided when the
// server's on_tick handler runs after the tick that scored it.  The traced
// run adds an in-memory replay of the same frames through a
// session_gateway, with sample bytes and the tick frame handed to on_bytes
// separately, so gateway and tick costs get their own spans.
#include <exception>
#include <memory>
#include <thread>

#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/server.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace rtbench {

namespace serve = fallsense::serve;
namespace net = fallsense::net;

namespace {

constexpr std::size_t k_wearers = 1024;
constexpr std::size_t k_burst = 10;   ///< samples per uplink burst
constexpr std::size_t k_groups = 10;  ///< slots per burst period (100 ms / 10 ms)
constexpr std::size_t k_queue = 32;
/// Slot 0 carries every wearer's prefix; slots 1..k_warm_slots-1 are
/// warm-up bursts that leave every wearer with a full window.
constexpr std::uint64_t k_warm_slots = 1 + 4 * k_groups;

serve::fleet_config burst_config() {
    serve::fleet_config cfg;
    cfg.engine.detector = paper_detector();
    cfg.engine.queue_capacity = k_queue;
    cfg.engine.policy = serve::drop_policy::reject_newest;
    cfg.engine.samples_per_tick = k_burst;
    cfg.shards = 1;
    return cfg;
}

/// Calls fn(wearer, samples) for the bursts of slot s.  Slot 0 carries a
/// prefix of 1 + i % hop samples (at most hop, well inside the queue) from
/// every wearer, in id order — so the gateway admits wire session i as
/// router session i, and window phases are staggered evenly across the hop.  Later slots carry a k_burst
/// sample burst from the wearers of group s % k_groups.
template <class Fn>
void for_each_burst(std::uint64_t s, Fn&& fn) {
    if (s == 0) {
        const std::uint64_t hop = window_rule(paper_detector()).hop;
        for (std::size_t i = 0; i < k_wearers; ++i) fn(i, 1 + i % hop);
        return;
    }
    for (std::size_t i = s % k_groups; i < k_wearers; i += k_groups) fn(i, k_burst);
}

struct tick_record {
    bench_clock::time_point end{};
    double server_cpu_s = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t ingested = 0;
};

/// The server side: fleet, socket server and the thread pumping it.  Until
/// the thread is joined only it touches the router, the tick records and
/// the gate's score side.
struct burst_server {
    std::atomic<std::uint64_t> ticks_done{0};
    bench_scorer* scorer = nullptr;
    std::unique_ptr<serve::fleet_router> router;
    std::unique_ptr<net::ingest_server> server;
    std::vector<tick_record> ticks;
    score_gate* gate = nullptr;
    std::thread thread;
    std::exception_ptr error;

    void start(score_gate& g, std::size_t expected_ticks) {
        gate = &g;
        auto s = std::make_unique<bench_scorer>(
            serve::make_scorer(bench_spec(serve::scorer_backend::int8)), "quant.score",
            &ticks_done);
        scorer = s.get();
        router = std::make_unique<serve::fleet_router>(burst_config(), std::move(s));
        ticks.reserve(expected_ticks);
        server = std::make_unique<net::ingest_server>(
            net::endpoint{}, *router, [this](const serve::tick_result& r) {
                tick_record rec;
                rec.end = bench_clock::now();
                rec.server_cpu_s = thread_cpu_seconds();
                rec.windows = r.windows_scored;
                rec.ingested = r.samples_ingested;
                ticks.push_back(rec);
                gate->after_tick(*router, r);
                ticks_done.fetch_add(1);
            });
        thread = std::thread([this] {
            try {
                server->run();
            } catch (...) {
                error = std::current_exception();
            }
        });
    }

    void wait_for_ticks(std::uint64_t n) const {
        while (ticks_done.load() < n) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    void join() {
        if (thread.joinable()) thread.join();
        if (error) std::rethrow_exception(error);
    }
};

struct burst_run {
    std::vector<serve::session_stream> streams;
    std::vector<std::uint32_t> sequence;  ///< next wire sequence == samples offered
    score_gate gate{k_wearers};
    burst_server server;
    std::unique_ptr<net::wire_client> client;
    std::vector<fallsense::data::raw_sample> burst;
    std::vector<serve::session_id> due;  ///< self-test scratch
    std::uint64_t next_slot = 0;
    std::uint64_t samples_sent = 0;
    double rss_after_synthesis_mb = 0.0;
    double setup_s = 0.0;

    ~burst_run() {
        // Never leave the server thread running (error paths included): a
        // bye frame ends its loop.
        if (server.thread.joinable()) {
            try {
                if (!client) {
                    client = std::make_unique<net::wire_client>(net::wire_client::connect_to(
                        net::endpoint{"127.0.0.1", server.server->port()}));
                }
                finish();
            } catch (...) {
            }
        }
        if (server.thread.joinable()) server.thread.join();
    }

    /// Encode and flush slot next_slot; returns samples sent and adds the
    /// windows the slot makes due to *windows_due.  With `armed` pointing
    /// at false (self-test), arms the perturbation on the first followed
    /// wearer whose window this slot's tick scores, before the bytes leave:
    /// the tick of slot s is the server's tick number s, and one shard
    /// batches due windows in ascending wearer id.
    std::uint64_t send_slot(std::uint64_t* windows_due, bool* armed) {
        const window_rule rule(paper_detector());
        const bool arming = armed != nullptr && !*armed;
        const std::uint64_t before_bytes = client->stats().bytes_sent;
        std::uint64_t samples = 0;
        due.clear();
        trace::span s("net.encode");
        for_each_burst(next_slot, [&](std::size_t i, std::size_t n) {
            const auto id = static_cast<serve::session_id>(i);
            burst.clear();
            for (std::size_t k = 0; k < n; ++k) burst.push_back(streams[i].next());
            if (gate.follows(id)) {
                for (const auto& x : burst) gate.on_accept(id, x);
            }
            client->queue_samples(id, sequence[i], burst);
            const std::uint64_t made_due = rule.windows(sequence[i] + n) - rule.windows(sequence[i]);
            if (windows_due != nullptr) *windows_due += made_due;
            if (arming && made_due > 0) due.push_back(id);
            sequence[i] += static_cast<std::uint32_t>(n);
            samples += n;
        });
        client->queue_tick();
        if (arming) *armed = arm_on_followed(*server.scorer, gate, due, next_slot);
        client->flush();
        s.arg("samples", static_cast<double>(samples));
        s.arg("bytes", static_cast<double>(client->stats().bytes_sent - before_bytes));
        client->poll_statuses();
        ++next_slot;
        samples_sent += samples;
        return samples;
    }

    /// Say bye and join the server thread.  The server closes its sockets
    /// only when destroyed, so status frames are drained without blocking.
    void finish() {
        client->queue_bye();
        client->flush();
        server.join();
        client->poll_statuses();
    }
};

void setup(burst_run& b, const options& opt, std::size_t timed_slots) {
    const double cpu_t0 = process_cpu_seconds();
    b.streams = serve::synthesize_fleet_streams(k_wearers, opt.seed);
    b.rss_after_synthesis_mb = resident_mb();
    b.sequence.assign(k_wearers, 0);
    b.server.start(b.gate, k_warm_slots + timed_slots + 16);
    b.client = std::make_unique<net::wire_client>(
        net::wire_client::connect_to(net::endpoint{"127.0.0.1", b.server.server->port()}));
    while (b.next_slot < k_warm_slots) b.send_slot(nullptr, nullptr);
    b.server.wait_for_ticks(k_warm_slots);
    b.setup_s = process_cpu_seconds() - cpu_t0;
}

phase_stats run_timed(burst_run& b, const options& opt, std::uint64_t slots) {
    phase_stats ph;
    std::vector<double> encode_ms(slots);
    bool armed = !opt.perturb;
    // The server thread is idle between warm-up and the first timed slot,
    // and after the last timed tick, so the router's totals can be read.
    const serve::engine_stats before = b.server.router->totals();
    const double cpu0 = process_cpu_seconds();
    const slot_schedule sched{bench_clock::now() + std::chrono::milliseconds(2)};
    const std::uint64_t first = b.next_slot;
    for (std::uint64_t k = 0; k < slots; ++k) {
        trace::set_tick(b.next_slot);
        const bench_clock::time_point start = sched.wait(k);
        trace::record("loadgen.lag", sched.due(k), start, {});
        const double cpu_start = thread_cpu_seconds();
        ph.samples_offered += b.send_slot(&ph.windows_due, k >= 3 ? &armed : nullptr);
        encode_ms[k] = (thread_cpu_seconds() - cpu_start) * 1e3;
    }
    b.server.wait_for_ticks(first + slots);
    ph.cpu_s = process_cpu_seconds() - cpu0;
    const serve::engine_stats after = b.server.router->totals();
    ph.samples_admitted = ph.samples_offered - (after.dropped - before.dropped) -
                          (after.rejected - before.rejected);
    // Service clock: the slot's bytes are encoded and sent by the client
    // stage, then read, decoded, fed and ticked by the server stage, whose
    // CPU time for slot k is its thread CPU between ticks k-1 and k.
    service_stage client;
    service_stage node;
    for (std::uint64_t k = 0; k < slots; ++k) {
        const tick_record& t = b.server.ticks[first + k];
        const double server_ms = (t.server_cpu_s - b.server.ticks[first + k - 1].server_cpu_s) * 1e3;
        const double due_ms = ms_between(sched.start, sched.due(k));
        const double decided = node.run(client.run(due_ms, encode_ms[k]), server_ms);
        ph.decided(k / k_slots_per_block, decided - due_ms, t.windows);
        ph.served(k / k_slots_per_block, server_ms * 1e-3, t.ingested);
        ph.windows_scored += t.windows;
        ++ph.ticks;
    }
    return ph;
}

/// After the server thread is joined: wire, admission and gate checks.
void check(burst_run& b, report& out) {
    const net::gateway_stats& gs = b.server.server->gateway().stats();
    if (gs.seq_gaps != 0) out.fail("gateway counted " + std::to_string(gs.seq_gaps) + " sequence gaps");
    if (gs.decode_errors != 0) {
        out.fail("gateway counted " + std::to_string(gs.decode_errors) + " decode errors");
    }
    if (gs.samples_in != b.samples_sent) {
        out.fail("gateway took " + std::to_string(gs.samples_in) + " samples, client sent " +
                 std::to_string(b.samples_sent));
    }
    const serve::fleet_router& router = *b.server.router;
    for (const serve::session_id id : b.gate.followed()) {
        if (router.stats(id).rejected != 0) {
            out.fail("followed wearer " + std::to_string(id) + " had samples refused");
        }
    }
    std::vector<serve::session_id> all(k_wearers);
    for (std::size_t i = 0; i < k_wearers; ++i) all[i] = static_cast<serve::session_id>(i);
    check_windows_scored(router, all, 0, out);
    b.gate.verify(bench_spec(serve::scorer_backend::int8), paper_detector(), out);
    out.perturbed = out.perturbed || b.server.scorer->perturbed();
}

/// Replay slots [0, warm + timed) of the same traffic through an in-memory
/// session_gateway; spans cover the timed slots only.
void replay_gateway(const options& opt, std::uint64_t timed_slots) {
    std::atomic<std::uint64_t> ticks{0};
    serve::fleet_router router(
        burst_config(),
        std::make_unique<bench_scorer>(serve::make_scorer(bench_spec(serve::scorer_backend::int8)),
                                       "quant.score", &ticks));
    net::session_gateway gateway(router, [&](const serve::tick_result&) { ticks.fetch_add(1); });
    const net::session_gateway::conn_id conn = gateway.open_connection();
    std::vector<serve::session_stream> streams = serve::synthesize_fleet_streams(k_wearers, opt.seed);
    std::vector<std::uint32_t> sequence(k_wearers, 0);
    std::vector<std::uint8_t> sample_bytes, tick_bytes, replies;
    std::vector<fallsense::data::raw_sample> burst;
    net::encode_tick(tick_bytes);
    for (std::uint64_t s = 0; s < k_warm_slots + timed_slots; ++s) {
        trace::set_enabled(s >= k_warm_slots);
        trace::set_tick(s);
        sample_bytes.clear();
        std::uint64_t samples = 0;
        for_each_burst(s, [&](std::size_t i, std::size_t n) {
            burst.clear();
            for (std::size_t k = 0; k < n; ++k) burst.push_back(streams[i].next());
            net::encode_samples(sample_bytes, static_cast<std::uint32_t>(i), sequence[i], burst);
            sequence[i] += static_cast<std::uint32_t>(n);
            samples += n;
        });
        {
            trace::span g("net.gateway");
            g.arg("samples", static_cast<double>(samples));
            g.arg("bytes", static_cast<double>(sample_bytes.size()));
            gateway.on_bytes(conn, sample_bytes, replies);
        }
        {
            trace::span t("serve.tick");
            gateway.on_bytes(conn, tick_bytes, replies);
        }
    }
    trace::set_enabled(false);
}

}  // namespace

report run_burst_wire_int8(const options& opt) {
    fallsense::util::set_global_threads(1);
    const auto slots = static_cast<std::uint64_t>(opt.seconds * k_sample_rate_hz);
    report out;
    double untraced_cpu = 0.0;
    {
        burst_run b;
        setup(b, opt, slots);
        if (opt.setup_only) {
            out.add("setup_s", "s", b.setup_s, 1);
            b.finish();
            return out;
        }
        phase_stats ph = run_timed(b, opt, slots);
        const double fleet_rss_mb = resident_mb() - b.rss_after_synthesis_mb;
        b.finish();
        check(b, out);
        untraced_cpu = ph.cpu_us_per_sample();
        add_end_to_end(out, ph, b.setup_s, fleet_rss_mb);
    }
    if (opt.trace_out.empty()) return out;

    {
        burst_run b;
        setup(b, opt, slots);
        trace::set_phase("main");
        trace::set_enabled(true);
        const phase_stats ph = run_timed(b, opt, slots);
        trace::set_enabled(false);
        b.finish();
        check(b, out);
        const tick_record& from = b.server.ticks[k_warm_slots];
        const tick_record& to = b.server.ticks[k_warm_slots + slots - 1];
        trace::set_enabled(true);
        trace::record("net.server", from.end, to.end, {{"cpu_s", to.server_cpu_s - from.server_cpu_s}});
        trace::set_enabled(false);
        out.trace_values.emplace_back("cpu_us_per_sample.untraced", untraced_cpu);
        out.trace_values.emplace_back("cpu_us_per_sample.traced", ph.cpu_us_per_sample());
        out.trace_values.emplace_back("net.status_frames",
                                      static_cast<double>(b.client->stats().status_frames_in));
    }
    trace::set_phase("replay");
    replay_gateway(opt, slots);
    return out;
}

}  // namespace rtbench
