#include "nn/simd.hpp"

#include <atomic>

#include "util/env.hpp"

namespace fallsense::nn {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
simd_backend probe_best_backend() {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) {
        return simd_backend::avx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return simd_backend::avx2_fma;
    }
    return simd_backend::scalar;
}
#elif defined(__aarch64__) && defined(__ARM_NEON)
simd_backend probe_best_backend() { return simd_backend::neon; }  // NEON is baseline.
#else
simd_backend probe_best_backend() { return simd_backend::scalar; }
#endif

simd_backend best_backend() {
    static const simd_backend best = probe_best_backend();
    return best;
}

/// Requested mode, resolved lazily: -1 = uninitialized, else simd_mode.
/// An unset or unrecognized FALLSENSE_SIMD value means scalar — the
/// deterministic default; tools reject bad --simd values loudly instead.
std::atomic<int> g_requested{-1};

/// Backend cap, resolved lazily: -1 = uninitialized, else simd_backend.
/// Defaults to the best probed backend; FALLSENSE_SIMD_BACKEND or
/// set_simd_backend_cap() lowers it (CI pins per-tier legs, benches pin
/// per-backend rows).  An unrecognized env value is ignored.
std::atomic<int> g_backend_cap{-1};

simd_mode requested_mode() {
    int cached = g_requested.load(std::memory_order_relaxed);
    if (cached < 0) {
        simd_mode mode = simd_mode::scalar;
        const std::string text = util::env_string("FALLSENSE_SIMD");
        if (!text.empty()) {
            if (const auto parsed = parse_simd_mode(text)) mode = *parsed;
        }
        cached = static_cast<int>(mode);
        g_requested.store(cached, std::memory_order_relaxed);
    }
    return static_cast<simd_mode>(cached);
}

simd_backend backend_cap() {
    int cached = g_backend_cap.load(std::memory_order_relaxed);
    if (cached < 0) {
        simd_backend cap = best_backend();
        const std::string text = util::env_string("FALLSENSE_SIMD_BACKEND");
        if (!text.empty()) {
            if (const auto parsed = parse_simd_backend(text)) cap = *parsed;
        }
        cached = static_cast<int>(cap);
        g_backend_cap.store(cached, std::memory_order_relaxed);
    }
    return static_cast<simd_backend>(cached);
}

}  // namespace

const char* simd_mode_name(simd_mode mode) {
    return mode == simd_mode::native ? "native" : "scalar";
}

const char* simd_backend_label(simd_backend backend) {
    switch (backend) {
        case simd_backend::neon: return "neon";
        case simd_backend::avx2_fma: return "avx2-fma";
        case simd_backend::avx512: return "avx512";
        case simd_backend::scalar: break;
    }
    return "scalar";
}

std::optional<simd_mode> parse_simd_mode(const std::string& text) {
    if (text == "scalar") return simd_mode::scalar;
    if (text == "native") return simd_mode::native;
    return std::nullopt;
}

std::optional<simd_backend> parse_simd_backend(const std::string& text) {
    if (text == "scalar") return simd_backend::scalar;
    if (text == "neon") return simd_backend::neon;
    if (text == "avx2-fma") return simd_backend::avx2_fma;
    if (text == "avx512") return simd_backend::avx512;
    return std::nullopt;
}

bool simd_native_available() { return best_backend() != simd_backend::scalar; }

const char* simd_backend_name() { return simd_backend_label(best_backend()); }

simd_mode active_simd_mode() {
    const simd_mode mode = requested_mode();
    if (mode == simd_mode::native && active_simd_backend() == simd_backend::scalar) {
        return simd_mode::scalar;
    }
    return mode;
}

simd_backend active_simd_backend() {
    if (requested_mode() != simd_mode::native) return simd_backend::scalar;
    const simd_backend best = best_backend();
    const simd_backend cap = backend_cap();
    // The cap can only select a tier the host supports: every tier below
    // the probed best is executable (avx512 hosts run avx2-fma; any host
    // runs scalar), and a cap above it degrades to the probed best.
    return cap < best ? cap : best;
}

const char* active_simd_backend_name() {
    return simd_backend_label(active_simd_backend());
}

std::vector<simd_backend> available_simd_backends() {
    std::vector<simd_backend> backends{simd_backend::scalar};
    const simd_backend best = best_backend();
    if (best == simd_backend::neon) backends.push_back(simd_backend::neon);
    if (best >= simd_backend::avx2_fma && best != simd_backend::neon) {
        backends.push_back(simd_backend::avx2_fma);
    }
    if (best == simd_backend::avx512) backends.push_back(simd_backend::avx512);
    return backends;
}

void set_simd_mode(simd_mode mode) {
    g_requested.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void set_simd_backend_cap(simd_backend cap) {
    g_backend_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

}  // namespace fallsense::nn
