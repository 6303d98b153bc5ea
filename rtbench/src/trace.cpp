#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace rtbench::trace {

namespace {

struct span_record {
    const char* name = nullptr;
    const char* phase = nullptr;
    bench_clock::time_point start{};
    bench_clock::time_point end{};
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t tick = 0;
    std::uint8_t nargs = 0;
    const char* keys[3] = {nullptr, nullptr, nullptr};
    double values[3] = {0.0, 0.0, 0.0};
};

struct thread_buffer {
    std::uint32_t tid = 0;
    std::uint64_t next_id = 0;
    std::vector<span_record> records;
};

std::atomic<bool> g_enabled{false};
std::atomic<const char*> g_phase{"main"};
bench_clock::time_point g_epoch = bench_clock::now();

// Buffers outlive their threads: the registry owns them, so spans of a
// joined server thread are still there when the trace is written.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<thread_buffer>> g_registry;

struct thread_state {
    thread_buffer* buffer = nullptr;
    std::vector<std::uint64_t> open;  ///< ids of spans open on this thread
    std::uint64_t tick = 0;
};

thread_state& local() {
    thread_local thread_state state;
    if (state.buffer == nullptr) {
        std::lock_guard<std::mutex> lock(g_registry_mutex);
        auto buffer = std::make_unique<thread_buffer>();
        buffer->tid = static_cast<std::uint32_t>(g_registry.size() + 1);
        buffer->records.reserve(1 << 15);
        state.buffer = buffer.get();
        g_registry.push_back(std::move(buffer));
    }
    return state;
}

std::uint64_t next_id(thread_state& st) {
    return (static_cast<std::uint64_t>(st.buffer->tid) << 40) | ++st.buffer->next_id;
}

double us_since_epoch(bench_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_tick(std::uint64_t tick) { local().tick = tick; }
void set_phase(const char* phase) { g_phase.store(phase, std::memory_order_relaxed); }

span::span(const char* name) {
    if (!enabled()) return;
    thread_state& st = local();
    active_ = true;
    name_ = name;
    id_ = next_id(st);
    parent_ = st.open.empty() ? 0 : st.open.back();
    tick_ = st.tick;
    phase_ = g_phase.load(std::memory_order_relaxed);
    st.open.push_back(id_);
    start_ = bench_clock::now();
}

span::~span() {
    if (!active_) return;
    const bench_clock::time_point end = bench_clock::now();
    thread_state& st = local();
    st.open.pop_back();
    span_record r;
    r.name = name_;
    r.phase = phase_;
    r.start = start_;
    r.end = end;
    r.id = id_;
    r.parent = parent_;
    r.tick = tick_;
    r.nargs = nargs_;
    for (std::uint8_t i = 0; i < nargs_; ++i) {
        r.keys[i] = keys_[i];
        r.values[i] = values_[i];
    }
    st.buffer->records.push_back(r);
}

void span::arg(const char* key, double value) {
    if (!active_ || nargs_ == 3) return;
    keys_[nargs_] = key;
    values_[nargs_] = value;
    ++nargs_;
}

void record(const char* name, bench_clock::time_point start, bench_clock::time_point end,
            std::initializer_list<std::pair<const char*, double>> args) {
    if (!enabled()) return;
    thread_state& st = local();
    span_record r;
    r.name = name;
    r.phase = g_phase.load(std::memory_order_relaxed);
    r.start = start;
    r.end = end;
    r.id = next_id(st);
    r.parent = st.open.empty() ? 0 : st.open.back();
    r.tick = st.tick;
    for (const auto& [key, value] : args) {
        if (r.nargs == 3) break;
        r.keys[r.nargs] = key;
        r.values[r.nargs] = value;
        ++r.nargs;
    }
    st.buffer->records.push_back(r);
}

void write_chrome_trace(const std::string& path, const std::string& other_data) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
    std::fputs("{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n", f);
    bool first = true;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buffer : g_registry) {
        for (const span_record& r : buffer->records) {
            const std::string name = r.name;
            const std::string cat = name.substr(0, name.find('.'));
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                         "\"parent\": %llu, \"tick\": %llu, \"phase\": \"%s\"",
                         first ? "" : ",\n", r.name, cat.c_str(), buffer->tid,
                         us_since_epoch(r.start),
                         std::chrono::duration<double, std::micro>(r.end - r.start).count(),
                         static_cast<unsigned long long>(r.id),
                         static_cast<unsigned long long>(r.parent),
                         static_cast<unsigned long long>(r.tick), r.phase);
            for (std::uint8_t i = 0; i < r.nargs; ++i) {
                std::fprintf(f, ", \"%s\": %.17g", r.keys[i], r.values[i]);
            }
            std::fputs("}}", f);
            first = false;
        }
    }
    std::fprintf(f, "\n],\n\"otherData\": %s\n}\n", other_data.c_str());
    if (std::fclose(f) != 0) throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace rtbench::trace
