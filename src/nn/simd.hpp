// Runtime SIMD dispatch for the nn/quant kernels.
//
// The float kernels (gemm_nn, gemm_nn_bias_act, gemm_tn_acc and the
// inference conv1d_direct in nn/gemm.hpp) all run one register tile,
// compiled once per tier from a lane-traits template: the scalar tier
// (separate multiply and add — the bit-exact determinism baseline every
// golden manifest is pinned to) and the vector tiers (fused multiply-add),
// compiled for their ISA and selected at runtime from a one-time
// CPU-feature probe.  The int8 executor's quantizer and GEMM
// (src/quant/q8_kernels.hpp) dispatch the same way.
//
// Backends, best-first per architecture:
//   x86-64:  avx512 (AVX-512F+BW) -> avx2-fma (AVX2+FMA) -> scalar
//   aarch64: neon -> scalar
//
// Mode resolution, in priority order:
//   1. set_simd_mode() — tools expose it as `--simd scalar|native`.
//   2. The FALLSENSE_SIMD env var ("scalar" or "native").
//   3. Default: scalar.  Vector kernels are opt-in because float FMA
//      rounds differently from separate mul+add; scalar mode stays
//      byte-identical to the pre-dispatch kernels.  (Int8 kernels are
//      bit-identical in either mode — integer sums are exact.)
//
// Backend resolution inside native mode: the best probed backend, capped
// by set_simd_backend_cap() / the FALLSENSE_SIMD_BACKEND env var (benches
// use the cap to measure every backend the host supports, CI uses it to
// pin a leg to one tier).  Requesting `native` on a host whose CPU (or
// compiler) lacks any vector ISA silently degrades to the scalar kernels:
// `active_simd_mode()` / `active_simd_backend()` report what will
// actually execute.
//
// Every vector backend issues the identical per-element fused
// multiply-add sequence (one fmadd per reduction step, ascending k), so
// float results are bit-identical ACROSS vector backends — "native" is a
// single golden surface per problem, distinct from scalar only
// (tests/nn/float_executor_test.cpp pins it for every kernel and for the
// whole CNN).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace fallsense::nn {

enum class simd_mode {
    scalar,  ///< reference loops, bit-exact across builds of the same flags
    native,  ///< vectorized kernels for the probed host ISA
};

/// Vector kernel tiers, ordered worst-to-best within an architecture.
enum class simd_backend {
    scalar = 0,
    neon = 1,      ///< aarch64 baseline
    avx2_fma = 2,  ///< x86-64 AVX2+FMA
    avx512 = 3,    ///< x86-64 AVX-512F with AVX-512BW (int16 madd)
};

const char* simd_mode_name(simd_mode mode);

/// Canonical backend label: "scalar" / "neon" / "avx2-fma" / "avx512".
const char* simd_backend_label(simd_backend backend);

/// Parse "scalar" / "native"; anything else returns nullopt.
std::optional<simd_mode> parse_simd_mode(const std::string& text);

/// Parse a backend label; anything else returns nullopt.
std::optional<simd_backend> parse_simd_backend(const std::string& text);

/// True when a vector backend is compiled in AND the running CPU supports
/// it (probed once, cached).
bool simd_native_available();

/// Name of the best vector backend `native` mode could run: "avx512",
/// "avx2-fma", "neon", or "scalar" when no vector backend is available.
/// Ignores the cap — this is the hardware probe, not the resolution.
const char* simd_backend_name();

/// The mode the kernels will actually execute: the requested mode,
/// degraded to scalar when no vector backend is available.
simd_mode active_simd_mode();

/// The backend the kernels will actually execute right now: scalar when
/// the active mode is scalar, otherwise the best probed backend capped by
/// set_simd_backend_cap() / FALLSENSE_SIMD_BACKEND.
simd_backend active_simd_backend();

/// Label of active_simd_backend() — what bench/obs manifests record as
/// the *resolved* `simd` field.
const char* active_simd_backend_name();

/// Every backend the host can execute, worst-first, starting with scalar
/// (always present).  Benches iterate this to emit one row per backend.
std::vector<simd_backend> available_simd_backends();

/// Override the requested mode for this process (tools' --simd flag).
void set_simd_mode(simd_mode mode);

/// Cap native-mode resolution at `cap` (degrading further if the host
/// lacks it).  Benches pin one backend per row with this; pass the best
/// probed backend (or simd_backend::avx512) to restore the default.
void set_simd_backend_cap(simd_backend cap);

}  // namespace fallsense::nn
