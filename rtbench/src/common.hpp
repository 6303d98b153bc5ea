// Shared pieces of the real-time serving benchmark: command-line options,
// the report every workload fills, the decision-latency log, process
// resource probes, and the window-due arithmetic of the paper's
// 400 ms / 50 % overlap windows.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

namespace rtbench {

namespace core = fallsense::core;
using bench_clock = std::chrono::steady_clock;

/// A wearer streams at 100 Hz, so one sample period is the decision limit:
/// a node deciding later than this is falling behind real time.
inline constexpr double k_decision_limit_ms = 10.0;
inline constexpr double k_sample_rate_hz = 100.0;
/// Open-loop slots per block of a timed phase: one second of 10 ms slots.
inline constexpr std::uint64_t k_slots_per_block = 100;
/// The gate follows about one wearer in this many.
inline constexpr std::size_t k_gate_stride = 64;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Non-empty: run untraced, then traced, and write the spans here.
    std::string trace_out;
    /// Only time set-up (synthesis, scorer, admission, warm-up) and exit.
    bool setup_only = false;
    /// Self-test: flip one score bit once, so the gate must fail.
    bool perturb = false;
    std::string commit = "unknown";
};

struct metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::uint64_t count = 0;  ///< samples behind the value
};

/// What one workload run reports back to main().
struct report {
    std::uint64_t attempted = 0;  ///< windows due in the timed phase
    std::uint64_t failed = 0;     ///< windows due but never decided
    std::vector<metric> metrics;
    std::vector<std::string> failures;  ///< correctness-gate findings
    bool perturbed = false;             ///< the self-test bit flip fired
    /// Extra key/value pairs for the trace file's otherData block.
    std::vector<std::pair<std::string, double>> trace_values;

    void fail(std::string why) { failures.push_back(std::move(why)); }
    void add(std::string name, std::string unit, double value, std::uint64_t count) {
        metrics.push_back({std::move(name), std::move(unit), value, count});
    }
};

/// Decision latencies weighted by the windows they decided.
class latency_log {
public:
    void add(double ms, std::uint64_t windows);
    std::uint64_t windows() const { return total_; }
    /// Weighted quantile, q in (0, 1]; 0 when empty.
    double quantile(double q);
    /// Empty the log, keeping its storage.
    void clear();

private:
    std::vector<std::pair<double, std::uint64_t>> entries_;
    std::uint64_t total_ = 0;
    bool sorted_ = false;
};

/// Counters of one timed phase, turned into the end-to-end metrics.
///
/// The open-loop workloads, whose serving stages each run on one thread,
/// keep decision latency on a service clock: the same schedule replayed on
/// dedicated cores, where each stage takes the CPU time it actually used
/// (thread CPU clock) and starts when its input is ready and its previous
/// slot is done.  Time a shared host takes the CPU away (steal, run-queue
/// waits) is wall time but not CPU time, so it leaves the service clock
/// and the program's own cost and queueing remain.  sharded_capacity, where
/// the pool's hand-offs are part of the cost, uses the wall clock.
///
/// The phase is split into blocks of about a second.  Latency quantiles and
/// capacity are the median of their per-block values, so a disturbance of
/// the host shorter than half the phase does not move them.  Only the
/// current block's latencies are kept, so the benchmark's own bookkeeping
/// stays out of the fleet's resident memory.
class phase_stats {
public:
    std::uint64_t windows_due = 0;     ///< from samples offered during the phase
    std::uint64_t windows_scored = 0;  ///< by ticks of the phase
    std::uint64_t samples_offered = 0;
    std::uint64_t samples_admitted = 0;
    std::uint64_t samples_ingested = 0;
    std::uint64_t ticks = 0;
    double cpu_s = 0.0;  ///< process user+sys over the phase

    /// `windows` decided `ms` after they were due, in block `b`.
    void decided(std::size_t b, double ms, std::uint64_t windows);
    /// `samples` ingested in `seconds` of the node's serving time (on the
    /// latency's clock), in block `b`.
    void served(std::size_t b, double seconds, std::uint64_t samples);
    /// Close the last block; call once the phase has ended.
    void finish() { close_block(); }

    std::uint64_t windows_decided() const { return decided_; }
    /// Windows decided within the decision limit.
    std::uint64_t windows_in_limit() const { return in_limit_; }
    /// Median over blocks of the block's weighted latency quantile q, for
    /// q in {0.5, 0.9, 0.99}.
    double quantile(double q) const;
    /// Median over blocks of samples ingested per serving second / 100 Hz.
    double capacity_wearers() const;
    double cpu_us_per_sample() const;

private:
    void enter_block(std::size_t b);
    void close_block();

    std::uint64_t decided_ = 0;
    std::uint64_t in_limit_ = 0;
    std::size_t block_ = 0;
    latency_log block_latency_;
    std::uint64_t block_samples_ = 0;
    double block_serving_s_ = 0.0;
    std::vector<double> p50_, p90_, p99_, capacity_;  ///< per closed block
};

/// One serving stage replayed on a dedicated core (times in ms).
struct service_stage {
    double free_at_ms = -1e300;
    /// The stage takes `service_ms` once its input is ready and its
    /// previous work is done; returns the completion time.
    double run(double ready_ms, double service_ms) {
        free_at_ms = (ready_ms > free_at_ms ? ready_ms : free_at_ms) + service_ms;
        return free_at_ms;
    }
};

/// Appends every end-to-end metric of a timed phase to `out` and sets
/// attempted/failed.  `fleet_rss_mb` is resident memory at the end of the
/// timed phase minus resident memory after stream synthesis.  The tail,
/// decision_p99_ms, follows as a metric run.py prints but does not bound.
void add_end_to_end(report& out, phase_stats& phase, double setup_s, double fleet_rss_mb);

/// The detector settings every workload uses: the paper's 400 ms window
/// (40 samples at 100 Hz) with 50 % overlap.
core::detector_config paper_detector();

/// Window arithmetic of a detector_state: a window is due once `window`
/// samples have been ingested and every `hop` samples thereafter.
struct window_rule {
    std::uint64_t window = 40;
    std::uint64_t hop = 20;
    explicit window_rule(const core::detector_config& cfg);
    /// True when the n-th ingested sample (1-based) completes a window.
    bool due_at(std::uint64_t n) const { return n >= window && (n - window) % hop == 0; }
    /// Windows due after n samples.
    std::uint64_t windows(std::uint64_t n) const { return n < window ? 0 : (n - window) / hop + 1; }
};

/// Keeps every CPU this process may run on busy with one SCHED_IDLE spinner
/// process per CPU, from construction to destruction.  On a VM a halted
/// vCPU is woken through the hypervisor, which runs it only when a
/// co-tenant yields the core, so every thread-pool hand-off would pay the
/// neighbours' load; with the vCPUs kept awake a wake-up only preempts a
/// spinner, as on a dedicated host.  Used where pool hand-offs lie on the
/// wall-clock path (sharded_capacity).  Spinners give way to any normal
/// thread, are child processes (so getrusage(RUSAGE_SELF) leaves them
/// out), and are killed and reaped on destruction.  Construct it while the
/// process still has a single thread: it forks.
class keep_awake {
public:
    keep_awake();
    ~keep_awake();
    keep_awake(const keep_awake&) = delete;
    keep_awake& operator=(const keep_awake&) = delete;

private:
    std::vector<int> pids_;
};

double ms_between(bench_clock::time_point a, bench_clock::time_point b);
double process_cpu_seconds();  ///< getrusage(RUSAGE_SELF) user+sys
double thread_cpu_seconds();   ///< CLOCK_THREAD_CPUTIME_ID of the caller
/// Resident set (/proc/self/statm) after returning the allocator's free
/// pages to the system, so the figure is live memory rather than what
/// malloc happens to retain from earlier, freed allocations.
double resident_mb();

/// Host description printed with every result.
std::string provenance_json(const options& opt);

}  // namespace rtbench
