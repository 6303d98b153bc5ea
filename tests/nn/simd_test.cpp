// Runtime GEMM dispatch (nn/simd.hpp): mode/backend parsing and
// resolution, the scalar-kernel determinism baseline, float tolerance
// between the scalar and vectorized kernels, the cross-backend "one native
// golden surface" contract, the fused bias+activation epilogue's
// bit-identity with the unfused op sequence, and the int8 path's
// bit-identity across modes and backends (integer accumulation is exact,
// so dispatch may never change a logit).
#include "nn/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "layer_walk.hpp"

namespace fallsense::nn {
namespace {

/// Restore the dispatch mode on scope exit so tests compose with any
/// FALLSENSE_SIMD the suite was launched under (the CI native leg).
struct simd_mode_guard {
    simd_mode saved;
    explicit simd_mode_guard(simd_mode mode) : saved(active_simd_mode()) {
        set_simd_mode(mode);
    }
    ~simd_mode_guard() { set_simd_mode(saved); }
};

/// Pin native-mode resolution to one backend; restores the uncapped
/// default (the best probed tier) on exit.
struct simd_backend_cap_guard {
    explicit simd_backend_cap_guard(simd_backend cap) { set_simd_backend_cap(cap); }
    ~simd_backend_cap_guard() { set_simd_backend_cap(simd_backend::avx512); }
};

/// Restores the default pool size even when an assertion fails mid-test.
struct thread_guard {
    ~thread_guard() { util::set_global_threads(0); }
};

TEST(SimdTest, ParseAcceptsTheTwoModes) {
    EXPECT_EQ(parse_simd_mode("scalar"), simd_mode::scalar);
    EXPECT_EQ(parse_simd_mode("native"), simd_mode::native);
    EXPECT_FALSE(parse_simd_mode("avx2").has_value());
    EXPECT_FALSE(parse_simd_mode("").has_value());
    EXPECT_FALSE(parse_simd_mode("Scalar").has_value());
}

TEST(SimdTest, ModeNamesRoundTrip) {
    EXPECT_EQ(parse_simd_mode(simd_mode_name(simd_mode::scalar)), simd_mode::scalar);
    EXPECT_EQ(parse_simd_mode(simd_mode_name(simd_mode::native)), simd_mode::native);
}

TEST(SimdTest, BackendNameMatchesAvailability) {
    const std::string backend = simd_backend_name();
    if (simd_native_available()) {
        EXPECT_NE(backend, "scalar");
    } else {
        EXPECT_EQ(backend, "scalar");
    }
}

TEST(SimdTest, RequestedNativeDegradesWhenUnavailable) {
    simd_mode_guard guard(simd_mode::native);
    if (simd_native_available()) {
        EXPECT_EQ(active_simd_mode(), simd_mode::native);
    } else {
        EXPECT_EQ(active_simd_mode(), simd_mode::scalar);
    }
    set_simd_mode(simd_mode::scalar);
    EXPECT_EQ(active_simd_mode(), simd_mode::scalar);
}

/// gemm_nn in a given mode over deterministic inputs.
std::vector<float> gemm_result(simd_mode mode, std::size_t m, std::size_t n, std::size_t k) {
    simd_mode_guard guard(mode);
    util::rng gen(99);
    std::vector<float> a(m * k);
    std::vector<float> b(k * n);
    for (float& v : a) v = static_cast<float>(gen.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(gen.uniform(-1.0, 1.0));
    std::vector<float> c(m * n);
    gemm_nn(m, n, k, a.data(), b.data(), c.data(), /*accumulate=*/false);
    return c;
}

TEST(SimdTest, ScalarModeIsDeterministic) {
    // The scalar kernels are the golden baseline: repeat runs bit-equal.
    const auto first = gemm_result(simd_mode::scalar, 13, 21, 37);
    const auto second = gemm_result(simd_mode::scalar, 13, 21, 37);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(SimdTest, NativeGemmMatchesScalarWithinTolerance) {
    if (!simd_native_available()) GTEST_SKIP() << "no vector backend on this host";
    // Odd n exercises the masked / scalar column tails; m > 4 exercises
    // both the quad and single-row kernels.  FMA rounds once where the
    // scalar kernels round twice, so equality is to tolerance, not bits.
    const auto scalar = gemm_result(simd_mode::scalar, 13, 21, 37);
    const auto native = gemm_result(simd_mode::native, 13, 21, 37);
    ASSERT_EQ(scalar.size(), native.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_NEAR(native[i], scalar[i], 1e-4 * (1.0 + std::abs(scalar[i])))
            << "element " << i;
    }
}

TEST(SimdTest, NativeDenseForwardMatchesScalarWithinTolerance) {
    if (!simd_native_available()) GTEST_SKIP() << "no vector backend on this host";
    util::rng gen(7);
    dense l(23, 11, gen);  // 11 outputs: the 8-lane strip plus a tail
    tensor x({5, 23});
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(gen.uniform(-1.0, 1.0));
    }
    tensor scalar_y, native_y;
    {
        simd_mode_guard guard(simd_mode::scalar);
        scalar_y = l.forward(x, false);
    }
    {
        simd_mode_guard guard(simd_mode::native);
        native_y = l.forward(x, false);
    }
    ASSERT_EQ(scalar_y.size(), native_y.size());
    for (std::size_t i = 0; i < scalar_y.size(); ++i) {
        EXPECT_NEAR(native_y[i], scalar_y[i], 1e-4 * (1.0 + std::abs(scalar_y[i])));
    }
}

TEST(SimdBackendTest, ParseBackendAcceptsCanonicalLabels) {
    EXPECT_EQ(parse_simd_backend("scalar"), simd_backend::scalar);
    EXPECT_EQ(parse_simd_backend("neon"), simd_backend::neon);
    EXPECT_EQ(parse_simd_backend("avx2-fma"), simd_backend::avx2_fma);
    EXPECT_EQ(parse_simd_backend("avx512"), simd_backend::avx512);
    EXPECT_FALSE(parse_simd_backend("avx2").has_value());
    EXPECT_FALSE(parse_simd_backend("AVX512").has_value());
    EXPECT_FALSE(parse_simd_backend("").has_value());
}

TEST(SimdBackendTest, BackendLabelsRoundTrip) {
    for (const simd_backend b : {simd_backend::scalar, simd_backend::neon,
                                 simd_backend::avx2_fma, simd_backend::avx512}) {
        EXPECT_EQ(parse_simd_backend(simd_backend_label(b)), b);
    }
}

TEST(SimdBackendTest, AvailableBackendsStartWithScalarWorstFirst) {
    const std::vector<simd_backend> backends = available_simd_backends();
    ASSERT_FALSE(backends.empty());
    EXPECT_EQ(backends.front(), simd_backend::scalar);
    for (std::size_t i = 1; i < backends.size(); ++i) {
        EXPECT_LT(static_cast<int>(backends[i - 1]), static_cast<int>(backends[i]));
    }
    if (simd_native_available()) {
        // The probe name reports the best tier, which must be listed last.
        EXPECT_EQ(std::string(simd_backend_label(backends.back())), simd_backend_name());
    } else {
        EXPECT_EQ(backends.size(), 1u);
    }
}

TEST(SimdBackendTest, CapResolvesToEveryAvailableBackend) {
    simd_mode_guard mode(simd_mode::native);
    for (const simd_backend b : available_simd_backends()) {
        simd_backend_cap_guard cap(b);
        EXPECT_EQ(active_simd_backend(), b);
        EXPECT_EQ(std::string(active_simd_backend_name()), simd_backend_label(b));
    }
}

TEST(SimdBackendTest, ScalarModeIgnoresBackendCap) {
    simd_mode_guard mode(simd_mode::scalar);
    simd_backend_cap_guard cap(simd_backend::avx512);
    EXPECT_EQ(active_simd_backend(), simd_backend::scalar);
    EXPECT_STREQ(active_simd_backend_name(), "scalar");
}

/// gemm_nn with native mode pinned to `backend` over deterministic inputs.
std::vector<float> gemm_backend_result(simd_backend backend, std::size_t m, std::size_t n,
                                       std::size_t k) {
    simd_backend_cap_guard cap(backend);
    return gemm_result(backend == simd_backend::scalar ? simd_mode::scalar
                                                       : simd_mode::native,
                       m, n, k);
}

TEST(SimdBackendTest, VectorBackendsShareOneGoldenSurface) {
    // Every vector backend issues the identical per-element fmadd sequence
    // (ascending k, one rounding per step), so their float results are bit
    // for bit the same: "native" is a single golden surface.  On hosts with
    // one vector tier this degenerates to a determinism re-run.
    const std::vector<simd_backend> backends = available_simd_backends();
    if (backends.size() < 2) GTEST_SKIP() << "no vector backend on this host";
    const auto reference = gemm_backend_result(backends[1], 13, 21, 37);
    for (std::size_t bi = 1; bi < backends.size(); ++bi) {
        const auto result = gemm_backend_result(backends[bi], 13, 21, 37);
        ASSERT_EQ(result.size(), reference.size());
        for (std::size_t i = 0; i < result.size(); ++i) {
            EXPECT_EQ(result[i], reference[i])
                << "element " << i << " differs between "
                << simd_backend_label(backends[1]) << " and "
                << simd_backend_label(backends[bi]);
        }
    }
}

TEST(SimdBackendTest, PerBackendGoldensAreDeterministic) {
    // The pinned golden contract per backend: repeat runs are bit-equal.
    // Scalar is the cross-build baseline; each vector tier is additionally
    // pinned against the shared native surface above.
    for (const simd_backend b : available_simd_backends()) {
        const auto first = gemm_backend_result(b, 9, 17, 129);
        const auto second = gemm_backend_result(b, 9, 17, 129);
        ASSERT_EQ(first.size(), second.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            EXPECT_EQ(first[i], second[i]) << simd_backend_label(b) << " element " << i;
        }
    }
}

TEST(SimdBackendTest, GemmTnAccBitIdenticalAcrossThreadCountsPerBackend) {
    thread_guard threads;
    const std::size_t m = 27, n = 16, k = 2048;
    util::rng gen(57);
    std::vector<float> a(k * m), b(k * n), c0(m * n);
    for (float& v : a) v = static_cast<float>(gen.normal());
    for (float& v : b) v = static_cast<float>(gen.normal());
    for (float& v : c0) v = static_cast<float>(gen.normal());
    for (const simd_backend backend : available_simd_backends()) {
        simd_mode_guard mode(backend == simd_backend::scalar ? simd_mode::scalar
                                                             : simd_mode::native);
        simd_backend_cap_guard cap(backend);
        util::set_global_threads(1);
        std::vector<float> c1 = c0;
        gemm_tn_acc(m, n, k, a.data(), b.data(), c1.data());
        util::set_global_threads(4);
        std::vector<float> c4 = c0;
        gemm_tn_acc(m, n, k, a.data(), b.data(), c4.data());
        util::set_global_threads(0);
        for (std::size_t i = 0; i < m * n; ++i) {
            EXPECT_EQ(c1[i], c4[i])
                << simd_backend_label(backend) << " element " << i
                << " differs between 1 and 4 threads";
        }
    }
}

TEST(SimdBackendTest, GemmTnAccMatchesReferencePerBackend) {
    const std::size_t m = 12, n = 7, k = 640;
    util::rng gen(58);
    std::vector<float> a(k * m), b(k * n);
    for (float& v : a) v = static_cast<float>(gen.normal());
    for (float& v : b) v = static_cast<float>(gen.normal());
    std::vector<double> expected(m * n, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                expected[i * n + j] +=
                    static_cast<double>(a[kk * m + i]) * b[kk * n + j];
            }
        }
    }
    for (const simd_backend backend : available_simd_backends()) {
        simd_mode_guard mode(backend == simd_backend::scalar ? simd_mode::scalar
                                                             : simd_mode::native);
        simd_backend_cap_guard cap(backend);
        std::vector<float> c(m * n, 0.0f);
        gemm_tn_acc(m, n, k, a.data(), b.data(), c.data());
        for (std::size_t i = 0; i < m * n; ++i) {
            EXPECT_NEAR(c[i], expected[i], 1e-3 * (1.0 + std::abs(expected[i])))
                << simd_backend_label(backend);
        }
    }
}

/// Apply `act` exactly as the unfused activation layers do (relu's ternary,
/// sigmoid_scalar per element).
void apply_unfused(fused_act act, std::vector<float>& c) {
    if (act == fused_act::relu) {
        for (float& v : c) v = v > 0.0f ? v : 0.0f;
    } else if (act == fused_act::sigmoid) {
        for (float& v : c) v = sigmoid_scalar(v);
    }
}

TEST(SimdFusionTest, FusedEpilogueBitIdenticalToUnfusedPerBackend) {
    // The fused kernel seeds each output row with the bias, runs the exact
    // ascending-k accumulation of the unfused kernel, and applies the
    // activation per element — so fused output must equal
    // bias-seed + gemm + separate activation bit for bit, on every backend.
    const std::size_t m = 7, n = 11, k = 33;
    util::rng gen(61);
    std::vector<float> a(m * k), b(k * n), bias(n);
    for (float& v : a) v = static_cast<float>(gen.normal());
    for (float& v : b) v = static_cast<float>(gen.normal());
    for (float& v : bias) v = static_cast<float>(gen.normal());
    for (const simd_backend backend : available_simd_backends()) {
        simd_mode_guard mode(backend == simd_backend::scalar ? simd_mode::scalar
                                                             : simd_mode::native);
        simd_backend_cap_guard cap(backend);
        for (const fused_act act :
             {fused_act::none, fused_act::relu, fused_act::sigmoid}) {
            std::vector<float> unfused(m * n);
            gemm_nn_bias_act(m, n, k, a.data(), b.data(), bias.data(),
                             fused_act::none, unfused.data());
            apply_unfused(act, unfused);
            std::vector<float> fused(m * n);
            gemm_nn_bias_act(m, n, k, a.data(), b.data(), bias.data(), act,
                             fused.data());
            for (std::size_t i = 0; i < m * n; ++i) {
                EXPECT_EQ(fused[i], unfused[i])
                    << simd_backend_label(backend) << " "
                    << fused_act_name(act) << " element " << i;
            }
        }
    }
}

TEST(SimdFusionTest, FusedBiasActMatchesNaiveReference) {
    const std::size_t m = 5, n = 9, k = 21;
    util::rng gen(62);
    std::vector<float> a(m * k), b(k * n), bias(n);
    for (float& v : a) v = static_cast<float>(gen.normal());
    for (float& v : b) v = static_cast<float>(gen.normal());
    for (float& v : bias) v = static_cast<float>(gen.normal());
    std::vector<float> c(m * n);
    gemm_nn_bias_act(m, n, k, a.data(), b.data(), bias.data(), fused_act::relu,
                     c.data());
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = bias[j];
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
            }
            const double expected = acc > 0.0 ? acc : 0.0;
            EXPECT_NEAR(c[i * n + j], expected, 1e-4 * (1.0 + std::abs(expected)));
        }
    }
}

TEST(SimdFusionTest, OnlyGemmLayersReportFusable) {
    util::rng gen(63);
    conv1d conv(3, 4, 3, gen);
    dense fc(4, 2, gen);
    maxpool1d pool(2);
    relu act;
    EXPECT_TRUE(conv.can_fuse(fused_act::relu));
    EXPECT_TRUE(conv.can_fuse(fused_act::sigmoid));
    EXPECT_TRUE(fc.can_fuse(fused_act::relu));
    // Non-GEMM layers only accept the trivial "no epilogue" request.
    EXPECT_TRUE(pool.can_fuse(fused_act::none));
    EXPECT_FALSE(pool.can_fuse(fused_act::relu));
    EXPECT_FALSE(act.can_fuse(fused_act::sigmoid));
}

TEST(SimdFusionTest, DefaultLayerRejectsFusedEpilogue) {
    maxpool1d pool(2);
    std::vector<float> in(8, 1.0f), out(4);
    EXPECT_THROW(pool.forward_into_fused(in, {4, 2}, 1, {}, out, fused_act::relu),
                 std::logic_error);
}

/// The paper's branch topology in miniature: Conv1D -> ReLU -> MaxPool ->
/// Flatten -> Dense -> ReLU -> Dense(1).  Both GEMM layers have a fusable
/// activation behind them.
std::unique_ptr<sequential> make_fusable_stack(std::uint64_t seed) {
    util::rng gen(seed);
    auto net = std::make_unique<sequential>();
    net->emplace<conv1d>(3, 8, 3, gen);
    net->emplace<relu>();
    net->emplace<maxpool1d>(2);
    net->emplace<flatten>();
    net->emplace<dense>(9 * 8, 16, gen);
    net->emplace<relu>();
    net->emplace<dense>(16, 1, gen, false);
    return net;
}

TEST(SimdFusionTest, SequentialFusionBitIdenticalToUnfusedPerBackend) {
    // The plan absorbs the ReLU layers into the preceding GEMM calls;
    // because the fused kernel replays the exact unfused op sequence,
    // forward_into output must equal the layer-by-layer walk bit for bit —
    // per backend, and also the allocating forward() path.
    const shape_t row_shape{20, 3};
    const std::size_t batch = 5;
    tensor x({batch, 20, 3});
    util::rng gen(64);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(gen.uniform(-1.5, 1.5));
    }
    for (const simd_backend backend : available_simd_backends()) {
        simd_mode_guard mode(backend == simd_backend::scalar ? simd_mode::scalar
                                                             : simd_mode::native);
        simd_backend_cap_guard cap(backend);
        auto net = make_fusable_stack(65);
        const tensor reference = net->forward(x, /*training=*/false);

        const std::size_t bytes = net->infer_workspace_bytes(row_shape, batch);
        std::vector<float> ws((bytes + sizeof(float) - 1) / sizeof(float));
        std::vector<float> fused(batch);
        net->forward_into(std::span<const float>(x.data(), x.size()), row_shape, batch, ws,
                          fused);
        const std::vector<float> unfused =
            walk_layers(*net, std::vector<float>(x.data(), x.data() + x.size()), row_shape, batch);
        ASSERT_EQ(fused.size(), unfused.size());
        for (std::size_t i = 0; i < fused.size(); ++i) {
            EXPECT_EQ(fused[i], unfused[i])
                << simd_backend_label(backend) << " logit " << i;
            EXPECT_EQ(fused[i], reference[i])
                << simd_backend_label(backend) << " logit " << i << " vs forward()";
        }
    }
}

TEST(SimdFusionTest, TrainingForwardStillMaterializesReluMask) {
    // Fusion only rewires the inference plan: the training-path forward
    // keeps the explicit ReLU layer (its mask feeds backward), so gradients
    // are untouched by it.
    auto net = make_fusable_stack(66);
    tensor x({2, 20, 3});
    util::rng gen(67);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(gen.uniform(-1.0, 1.0));
    }
    const tensor y = net->forward(x, /*training=*/true);
    tensor gy(y.shape());
    gy.fill(1.0f);
    const tensor gx = net->backward(gy);  // throws if any mask is missing
    EXPECT_EQ(gx.shape(), x.shape());
}

TEST(SimdTest, Int8ScoringIsBitIdenticalAcrossModes) {
    // Int8 accumulators are exact int32 sums, so the vector executor must
    // reproduce the scalar tier bit for bit — dispatch may change latency,
    // never a logit.  (Without a vector backend both modes run the scalar
    // tier and the check is trivially true.)  The batch counts cover every
    // register-tile row tail and both sides of the chunk grain.
    serve::scorer_spec spec;
    spec.backend = serve::scorer_backend::int8;
    spec.window_samples = 20;
    spec.seed = 3;

    const std::size_t elems = 20 * core::k_feature_channels;
    constexpr std::size_t k_max_count = 65;
    std::vector<float> windows(k_max_count * elems);
    util::rng gen(31);
    for (float& v : windows) v = static_cast<float>(gen.uniform(-1.2, 1.2));

    for (const std::size_t count : {1, 2, 3, 5, 17, 51, 65}) {
        const std::span<const float> batch(windows.data(), count * elems);
        std::vector<float> scalar_out(count);
        std::vector<float> native_out(count);
        {
            simd_mode_guard guard(simd_mode::scalar);
            serve::make_scorer(spec)->score(batch, count, elems, scalar_out);
        }
        {
            simd_mode_guard guard(simd_mode::native);
            serve::make_scorer(spec)->score(batch, count, elems, native_out);
        }
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(native_out[i], scalar_out[i]) << "count " << count << " window " << i;
        }

        // And per pinned backend: every tier sums the same exact int32
        // products, so each reproduces the scalar logits bit for bit.
        for (const simd_backend backend : available_simd_backends()) {
            simd_mode_guard guard(backend == simd_backend::scalar ? simd_mode::scalar
                                                                  : simd_mode::native);
            simd_backend_cap_guard cap(backend);
            std::vector<float> backend_out(count);
            serve::make_scorer(spec)->score(batch, count, elems, backend_out);
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(backend_out[i], scalar_out[i])
                    << simd_backend_label(backend) << " count " << count << " window " << i;
            }
        }
    }
}

}  // namespace
}  // namespace fallsense::nn
