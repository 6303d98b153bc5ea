// The three workloads and the helpers they share.  Each run_* function
// builds its fleet through the public fallsense APIs, runs the untraced
// timed phase for the end-to-end metrics, and — when options.trace_out is
// set — a traced phase over the same seed and schedule whose spans feed
// the per-layer metrics.
//
// Set-up (stream synthesis, scorer build with int8 calibration, admission,
// warm-up until every wearer holds a full window) is reported as process
// CPU seconds, which measures the work done in set-up without the time a
// shared host takes the CPU away.
#pragma once

#include <thread>
#include <vector>

#include "common.hpp"
#include "gate.hpp"
#include "serve/serve.hpp"

namespace rtbench {

report run_steady_float(const options& opt);
report run_burst_wire_int8(const options& opt);
report run_sharded_capacity(const options& opt);

/// Scorer spec shared by the fleet and the gate's batch-of-1 reference.
/// The model seed is fixed; the traffic seed varies per run.
inline fallsense::serve::scorer_spec bench_spec(fallsense::serve::scorer_backend backend) {
    fallsense::serve::scorer_spec spec;
    spec.backend = backend;
    spec.window_samples = paper_detector().window_samples;
    spec.seed = 42;
    return spec;
}

/// Open-loop schedule: slot k is due at start + k * period.
struct slot_schedule {
    bench_clock::time_point start;
    std::chrono::nanoseconds period{std::chrono::milliseconds(10)};
    bench_clock::time_point due(std::uint64_t k) const { return start + k * period; }
    /// Sleep until slot k is due; returns the time the generator resumed.
    bench_clock::time_point wait(std::uint64_t k) const {
        const bench_clock::time_point at = due(k);
        if (bench_clock::now() < at) std::this_thread::sleep_until(at);
        return bench_clock::now();
    }
};

/// Self-test: arm `scorer` to flip the score of the first followed wearer
/// in `due_in_batch_order` (the wearers whose window the coming tick
/// scores, in the order the fleet batches them).  Returns true if armed.
inline bool arm_on_followed(bench_scorer& scorer, const score_gate& gate,
                            const std::vector<fallsense::serve::session_id>& due_in_batch_order,
                            std::uint64_t tick) {
    for (std::size_t pos = 0; pos < due_in_batch_order.size(); ++pos) {
        if (gate.follows(due_in_batch_order[pos])) {
            scorer.arm_perturbation(tick, pos);
            return true;
        }
    }
    return false;
}

/// Every window due from the samples each wearer ingested was scored:
/// sum over `live` of rule.windows(ingested), plus `retired_windows` for
/// evicted wearers, equals the fleet's windows_scored total.
template <class Host>
void check_windows_scored(const Host& host, const std::vector<fallsense::serve::session_id>& live,
                          std::uint64_t retired_windows, report& out) {
    const window_rule rule(paper_detector());
    std::uint64_t due = retired_windows;
    for (const auto id : live) due += rule.windows(host.stats(id).ingested);
    const std::uint64_t scored = host.totals().windows_scored;
    if (due != scored) {
        out.fail("windows scored (" + std::to_string(scored) +
                 ") differ from windows due from samples ingested (" + std::to_string(due) + ")");
    }
}

}  // namespace rtbench
