// Kernel-level checks of the batched int8 executor (quant/q8_kernels.hpp):
// every tier's GEMM — accumulation over ragged row, output and reduction
// tails, and the vectorized requantize epilogue — must equal the scalar
// reference tier bit for bit, including on exact rounding ties.
#include "quant/q8_kernels.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace fallsense::quant {
namespace {

struct gemm_case {
    std::size_t m, k, n;
    std::vector<std::int8_t> weight;  ///< [k, n]
    std::vector<std::int32_t> bias;   ///< [n]
    std::vector<std::int16_t> a;      ///< m rows of q8_row_width(k), padding zeroed
};

/// Runs `c` through the kernels of `backend`; returns m rows of
/// q8_row_width(n) outputs.
std::vector<std::int16_t> run(nn::simd_backend backend, const gemm_case& c,
                              const q8_layer& layer) {
    const std::size_t lda = q8_row_width(c.k);
    const std::size_t ldc = q8_row_width(c.n);
    std::vector<std::int16_t> out(c.m * ldc, std::int16_t{-999});
    q8_kernels_for(backend).gemm({c.m, c.a.data(), lda, c.weight.data(), &layer, out.data(), ldc});
    return out;
}

void expect_tiers_match_scalar(const gemm_case& c, const q8_layer& layer, const char* what) {
    const std::vector<std::int16_t> expected = run(nn::simd_backend::scalar, c, layer);
    for (const nn::simd_backend backend : nn::available_simd_backends()) {
        const std::vector<std::int16_t> got = run(backend, c, layer);
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(got[i], expected[i])
                << what << " " << nn::simd_backend_label(backend) << " m=" << c.m
                << " k=" << c.k << " n=" << c.n << " row " << i / q8_row_width(c.n)
                << " col " << i % q8_row_width(c.n);
        }
    }
}

TEST(Q8KernelTest, RaggedGemmMatchesScalarOnEveryTier) {
    // Row counts around the 4-row tile, output counts around the 8/16-lane
    // vectors and the 16/64-output tiles, odd and even reductions.
    util::rng gen(5);
    for (const std::size_t m : {1, 3, 4, 5, 9}) {
        for (const std::size_t n : {1, 2, 7, 15, 16, 17, 33, 64, 65, 130}) {
            for (const std::size_t k : {1, 2, 3, 9, 31}) {
                gemm_case c{m, k, n, {}, {}, {}};
                c.weight.resize(k * n);
                for (auto& w : c.weight) w = static_cast<std::int8_t>(gen.uniform_int(-128, 127));
                c.bias.resize(n);
                for (auto& b : c.bias) b = static_cast<std::int32_t>(gen.uniform_int(-3000, 3000));
                const std::size_t lda = q8_row_width(k);
                c.a.assign(m * lda, 0);
                for (std::size_t r = 0; r < m; ++r) {
                    for (std::size_t i = 0; i < k; ++i) {
                        c.a[r * lda + i] = static_cast<std::int16_t>(gen.uniform_int(-255, 255));
                    }
                }
                const q8_layer layer = pack_q8_layer(c.weight, c.bias, k, n,
                                                     encode_multiplier(0.004), 9, -128);
                expect_tiers_match_scalar(c, layer, "random");
            }
        }
    }
}

TEST(Q8KernelTest, RequantizeEpilogueMatchesScalarOnTies) {
    // acc = bias[o] + a[r]: a dense run of accumulators, so power-of-two
    // multipliers hit exact ties on both signs; extreme mantissas and
    // shifts, accumulators near the int32 limits, with and without the
    // ReLU floor, and zero points at both ends of int8.
    constexpr std::size_t k_n = 37;
    constexpr std::size_t k_m = 11;
    gemm_case c{k_m, 1, k_n, std::vector<std::int8_t>(k_n, 1), {}, {}};
    for (std::size_t o = 0; o < k_n; ++o) {
        c.bias.push_back(static_cast<std::int32_t>(o) - 18);
    }
    c.bias[0] = std::numeric_limits<std::int32_t>::max() - 255;
    c.bias[1] = std::numeric_limits<std::int32_t>::min() + 255;
    c.bias[2] = 1 << 20;
    c.bias[3] = -(1 << 20);
    for (std::size_t r = 0; r < k_m; ++r) {
        c.a.push_back(static_cast<std::int16_t>((static_cast<int>(r) - 5) * 7));
        c.a.push_back(0);
    }
    const quantized_multiplier multipliers[] = {
        encode_multiplier(0.5),      encode_multiplier(0.25),  encode_multiplier(0.0625),
        encode_multiplier(1.0 / 3),  encode_multiplier(0.3),   encode_multiplier(1e-7),
        {1 << 30, 0},                {std::numeric_limits<std::int32_t>::max(), 0},
        {1 << 30, 31},               {std::numeric_limits<std::int32_t>::max(), 31},
    };
    for (const quantized_multiplier& mult : multipliers) {
        for (const std::int32_t zp : {-128, -100, 0, 100, 127}) {
            for (const bool relu : {false, true}) {
                const q8_layer layer =
                    pack_q8_layer(c.weight, c.bias, 1, k_n, mult, zp, relu ? zp : -128);
                expect_tiers_match_scalar(c, layer, relu ? "relu" : "linear");
            }
        }
    }
}

}  // namespace
}  // namespace fallsense::quant
