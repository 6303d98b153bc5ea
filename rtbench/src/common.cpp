#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

namespace rtbench {

void latency_log::add(double ms, std::uint64_t windows) {
    if (windows == 0) return;
    entries_.emplace_back(ms, windows);
    total_ += windows;
    sorted_ = false;
}

double latency_log::quantile(double q) {
    if (total_ == 0) return 0.0;
    if (!sorted_) {
        std::sort(entries_.begin(), entries_.end());
        sorted_ = true;
    }
    const double rank = q * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (const auto& [ms, w] : entries_) {
        seen += w;
        if (static_cast<double>(seen) >= rank) return ms;
    }
    return entries_.back().first;
}

void latency_log::clear() {
    entries_.clear();
    total_ = 0;
    sorted_ = false;
}

namespace {

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

void phase_stats::decided(std::size_t b, double ms, std::uint64_t windows) {
    enter_block(b);
    block_latency_.add(ms, windows);
    decided_ += windows;
    if (ms <= k_decision_limit_ms) in_limit_ += windows;
}

void phase_stats::served(std::size_t b, double seconds, std::uint64_t samples) {
    enter_block(b);
    block_serving_s_ += seconds;
    block_samples_ += samples;
    samples_ingested += samples;
}

void phase_stats::enter_block(std::size_t b) {
    if (b == block_) return;
    close_block();
    block_ = b;
}

void phase_stats::close_block() {
    if (block_latency_.windows() > 0 && block_serving_s_ > 0.0) {
        p50_.push_back(block_latency_.quantile(0.50));
        p90_.push_back(block_latency_.quantile(0.90));
        p99_.push_back(block_latency_.quantile(0.99));
        capacity_.push_back(static_cast<double>(block_samples_) / block_serving_s_ /
                            k_sample_rate_hz);
    }
    block_latency_.clear();
    block_samples_ = 0;
    block_serving_s_ = 0.0;
}

double phase_stats::quantile(double q) const {
    return median(q <= 0.5 ? p50_ : q <= 0.9 ? p90_ : p99_);
}

double phase_stats::capacity_wearers() const { return median(capacity_); }

double phase_stats::cpu_us_per_sample() const {
    return samples_ingested == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(samples_ingested);
}

void add_end_to_end(report& out, phase_stats& phase, double setup_s, double fleet_rss_mb) {
    phase.finish();
    const std::uint64_t decided = phase.windows_decided();
    out.add("decision_p50_ms", "ms", phase.quantile(0.50), decided);
    out.add("decision_p90_ms", "ms", phase.quantile(0.90), decided);
    out.add("decision_p99_ms", "ms", phase.quantile(0.99), decided);
    // A window never decided (a refused sample) misses the limit too.
    out.add("slo_met_share", "ratio",
            phase.windows_due == 0 ? 0.0
                                   : static_cast<double>(phase.windows_in_limit()) /
                                         static_cast<double>(phase.windows_due),
            phase.windows_due);
    out.add("admitted_share", "ratio",
            phase.samples_offered == 0 ? 0.0
                                       : static_cast<double>(phase.samples_admitted) /
                                             static_cast<double>(phase.samples_offered),
            phase.samples_offered);
    out.add("cpu_us_per_sample", "us", phase.cpu_us_per_sample(), phase.samples_ingested);
    out.add("capacity_wearers", "wearers", phase.capacity_wearers(), phase.samples_ingested);
    out.add("setup_s", "s", setup_s, 1);
    out.add("fleet_rss_mb", "MB", fleet_rss_mb, 1);
    out.attempted = phase.windows_due;
    out.failed = phase.windows_due > phase.windows_scored ? phase.windows_due - phase.windows_scored
                                                          : 0;
}

core::detector_config paper_detector() {
    core::detector_config cfg;
    cfg.window_samples = 40;
    cfg.overlap_fraction = 0.5;
    cfg.sample_rate_hz = k_sample_rate_hz;
    return cfg;
}

window_rule::window_rule(const core::detector_config& cfg)
    : window(cfg.window_samples),
      hop(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::lround(static_cast<double>(cfg.window_samples) *
                                                    (1.0 - cfg.overlap_fraction))))) {}

keep_awake::keep_awake() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    const pid_t parent = getpid();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        const pid_t pid = fork();
        if (pid < 0) break;
        if (pid == 0) {
            // Die with the parent even if it never reaches the destructor.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != parent) _exit(0);
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
            // A spinner at normal priority would compete with the program.
            const sched_param idle{};
            if (sched_setscheduler(0, SCHED_IDLE, &idle) != 0) _exit(0);
            for (;;) {
#if defined(__x86_64__) || defined(__i386__)
                asm volatile("pause");
#elif defined(__aarch64__)
                asm volatile("yield");
#else
                asm volatile("");
#endif
            }
        }
        pids_.push_back(pid);
    }
}

keep_awake::~keep_awake() {
    for (const int pid : pids_) kill(pid, SIGKILL);
    for (const int pid : pids_) waitpid(pid, nullptr, 0);
}

double ms_between(bench_clock::time_point a, bench_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double resident_mb() {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ifstream statm("/proc/self/statm");
    long total = 0;
    long resident = 0;
    statm >> total >> resident;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

namespace {

std::string cpu_model() {
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string model = line.substr(colon + 1);
                model.erase(0, model.find_first_not_of(' '));
                return model;
            }
        }
    }
    return "unknown";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

}  // namespace

std::string provenance_json(const options& opt) {
    std::ostringstream os;
    os << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\""
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd_backend\": \"" << fallsense::nn::active_simd_backend_name() << "\""
       << ", \"pool_threads\": " << fallsense::util::global_thread_count()
       << ", \"build_type\": \"" << RTBENCH_BUILD_TYPE << "\""
       << ", \"workload\": \"" << json_escape(opt.workload) << "\""
       << ", \"seed\": " << opt.seed << ", \"commit\": \"" << json_escape(opt.commit) << "\"}";
    return os.str();
}

}  // namespace rtbench
