// In-memory span recorder for the traced run.
//
// A span is opened around one call into a layer and closed when the call
// returns.  Each records its name, start, end, the span open on the same
// thread when it started (its parent), the tick it belongs to, the run
// phase, and up to three numeric arguments (windows, samples, bytes...).
// Records stay in per-thread buffers until write_chrome_trace() dumps them
// as Chrome trace-event JSON, the file run.py derives every per-layer
// metric from.  While recording is off a span costs one relaxed load.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "common.hpp"

namespace rtbench::trace {

void set_enabled(bool on);
bool enabled();
/// Tick id stamped on spans opened afterwards by the calling thread.
void set_tick(std::uint64_t tick);
/// Phase label stamped on every span opened afterwards (process-wide);
/// must be a string literal.
void set_phase(const char* phase);

class span {
public:
    explicit span(const char* name);
    ~span();
    span(const span&) = delete;
    span& operator=(const span&) = delete;
    /// Attach a numeric argument (at most three; extras are ignored).
    void arg(const char* key, double value);

private:
    bool active_ = false;
    const char* name_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t tick_ = 0;
    const char* phase_ = nullptr;
    bench_clock::time_point start_{};
    std::uint8_t nargs_ = 0;
    const char* keys_[3] = {nullptr, nullptr, nullptr};
    double values_[3] = {0.0, 0.0, 0.0};
};

/// Record a finished span with explicit times on the calling thread.
void record(const char* name, bench_clock::time_point start, bench_clock::time_point end,
            std::initializer_list<std::pair<const char*, double>> args);

/// Write every recorded span as Chrome trace-event JSON; `other_data` is a
/// JSON object placed under the top-level "otherData" key.
void write_chrome_trace(const std::string& path, const std::string& other_data);

}  // namespace rtbench::trace
