// The float CNN executor pinned across backends: the register tile behind
// gemm_nn / gemm_nn_bias_act / gemm_tn_acc / conv1d_direct at ragged
// shapes, and the whole paper CNN through predict_proba_rows — bit-equal
// across vector tiers, and equal to the layer-by-layer walk on every tier
// including scalar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/models.hpp"
#include "nn/activations.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "layer_walk.hpp"

namespace fallsense::nn {
namespace {

/// Pins one backend (scalar mode for scalar, native mode capped at the
/// tier otherwise) and restores mode, cap and threads on exit.
struct backend_scope {
    simd_mode saved_mode;
    explicit backend_scope(simd_backend backend) : saved_mode(active_simd_mode()) {
        set_simd_mode(backend == simd_backend::scalar ? simd_mode::scalar : simd_mode::native);
        set_simd_backend_cap(backend);
    }
    ~backend_scope() {
        set_simd_mode(saved_mode);
        set_simd_backend_cap(simd_backend::avx512);
        util::set_global_threads(0);
    }
};

std::vector<simd_backend> vector_backends() {
    std::vector<simd_backend> out = available_simd_backends();
    out.erase(out.begin());  // scalar
    return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_vector(std::size_t count, util::rng& gen) {
    std::vector<float> v(count);
    for (float& x : v) x = static_cast<float>(gen.normal());
    return v;
}

// ------------------------------------------------------------ the CNN

constexpr std::size_t k_window = 40;
constexpr std::size_t k_channels = 9;
const std::size_t k_batches[] = {1, 2, 3, 5, 17, 51, 65, 103};

std::vector<float> windows(std::size_t count) {
    util::rng gen(1000 + count);
    std::vector<float> x(count * k_window * k_channels);
    for (float& v : x) v = static_cast<float>(gen.uniform(-2.0, 2.0));
    return x;
}

std::vector<float> predict(model& net, const std::vector<float>& x, std::size_t count) {
    std::vector<float> out(count);
    predict_proba_rows(net, x, count, {k_window, k_channels}, out);
    return out;
}

/// Run `stack` through its own plan (sequential::forward_into): each
/// Conv1D/Dense absorbs the ReLU that follows it.
std::vector<float> planned(sequential& stack, std::vector<float> act, shape_t shape,
                           std::size_t batch) {
    std::vector<float> out(batch * shape_volume(stack.output_shape(shape)));
    std::vector<float> ws(
        std::max<std::size_t>(1, (stack.infer_workspace_bytes(shape, batch) + 3) / 4));
    stack.forward_into(act, shape, batch, ws, out);
    return out;
}

using stack_runner = std::vector<float> (*)(sequential&, std::vector<float>, shape_t,
                                            std::size_t);

/// The paper CNN scored stack by stack: slice each branch's channels, run
/// the branch, concatenate, run the trunk, sigmoid.  With `walk_layers`
/// every layer runs on its own; with `planned` this is multi_branch_network's
/// slice/walk/concat path for branches that are not one direct conv.
std::vector<float> layer_walk(multi_branch_network& net, const std::vector<float>& x,
                              std::size_t count, stack_runner run = &walk_layers) {
    std::vector<std::vector<float>> outs;
    std::size_t concat_width = 0;
    std::size_t channel_base = 0;
    for (std::size_t bi = 0; bi < net.branch_count(); ++bi) {
        const std::size_t group = net.group_channels()[bi];
        std::vector<float> slice(count * k_window * group);
        for (std::size_t r = 0; r < count * k_window; ++r) {
            std::copy_n(x.data() + r * k_channels + channel_base, group,
                        slice.data() + r * group);
        }
        outs.push_back(run(net.branch(bi), slice, {k_window, group}, count));
        concat_width += outs.back().size() / count;
        channel_base += group;
    }
    std::vector<float> concat(count * concat_width);
    std::size_t base = 0;
    for (const std::vector<float>& o : outs) {
        const std::size_t width = o.size() / count;
        for (std::size_t r = 0; r < count; ++r) {
            std::copy_n(o.data() + r * width, width, concat.data() + r * concat_width + base);
        }
        base += width;
    }
    std::vector<float> logits = run(net.trunk(), concat, {concat_width}, count);
    for (float& v : logits) v = sigmoid_scalar(v);
    return logits;
}

TEST(FloatExecutorTest, CnnScoresBitIdenticalAcrossVectorBackends) {
    const std::vector<simd_backend> tiers = vector_backends();
    if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
    auto net = core::build_fallsense_cnn(k_window, 9);
    for (const std::size_t count : k_batches) {
        const std::vector<float> x = windows(count);
        std::vector<float> reference;
        {
            backend_scope scope(tiers.front());
            reference = predict(*net, x, count);
        }
        for (const simd_backend tier : tiers) {
            backend_scope scope(tier);
            EXPECT_TRUE(same_bits(predict(*net, x, count), reference))
                << simd_backend_label(tier) << " vs " << simd_backend_label(tiers.front())
                << ", batch " << count;
        }
    }
}

TEST(FloatExecutorTest, FusedPlanEqualsLayerByLayerWalkPerBackend) {
    // The planned path runs each branch as one direct conv with ReLU and
    // pooling in registers, writing into the concat row; the walk runs
    // every layer separately through its own buffers.  Same bits, on every
    // tier, at every batch size; and the same again for the stacks' own
    // fused plans, the path a branch takes when it is not one direct conv.
    auto net = core::build_fallsense_cnn(k_window, 9);
    for (const simd_backend backend : available_simd_backends()) {
        backend_scope scope(backend);
        for (const std::size_t count : k_batches) {
            const std::vector<float> x = windows(count);
            const std::vector<float> walked = layer_walk(*net, x, count);
            EXPECT_TRUE(same_bits(predict(*net, x, count), walked))
                << simd_backend_label(backend) << " direct, batch " << count;
            EXPECT_TRUE(same_bits(layer_walk(*net, x, count, &planned), walked))
                << simd_backend_label(backend) << " stack plans, batch " << count;
        }
    }
}

TEST(FloatExecutorTest, ConvDirectReadsAChannelGroupInPlace) {
    // conv1d_direct over channels [3, 6) of 9-channel windows, written at
    // a row stride wider than its output, equals the conv on the sliced
    // copy, then the activation, then maxpool1d's `v > best` fold of each
    // row pair (the odd last row dropped).  A NaN in one window makes the
    // fold's operand order observable when no ReLU sits in between.
    util::rng gen(31);
    const std::size_t batch = 4, time = 13, in_ch = 3, kernel = 3, out_ch = 5;
    std::vector<float> x = random_vector(batch * time * k_channels, gen);
    x[(1 * time + 4) * k_channels + 4] = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> w = random_vector(kernel * in_ch * out_ch, gen);
    const std::vector<float> b = random_vector(out_ch, gen);
    const std::size_t out_time = time - kernel + 1;  // 11 → 5 pooled
    const std::size_t pooled = out_time / 2;
    const std::size_t y_stride = pooled * out_ch + 7;
    std::vector<float> slice(batch * time * in_ch);
    for (std::size_t r = 0; r < batch * time; ++r) {
        std::copy_n(x.data() + r * k_channels + 3, in_ch, slice.data() + r * in_ch);
    }
    std::vector<float> col(batch * out_time * kernel * in_ch);
    im2col(slice.data(), batch, time, in_ch, kernel, col.data());
    for (const simd_backend backend : available_simd_backends()) {
        backend_scope scope(backend);
        for (const fused_act act : {fused_act::relu, fused_act::none}) {
            std::vector<float> y(batch * y_stride, -123.0f);
            conv1d_direct(batch, {.x = x.data() + 3,
                                  .x_window_stride = time * k_channels,
                                  .x_row_stride = k_channels,
                                  .time = time,
                                  .in_ch = in_ch,
                                  .kernel = kernel,
                                  .out_ch = out_ch,
                                  .weight = w.data(),
                                  .bias = b.data(),
                                  .act = act,
                                  .pool = 2,
                                  .y = y.data(),
                                  .y_window_stride = y_stride});
            std::vector<float> conv(batch * out_time * out_ch);
            gemm_nn_bias_act(batch * out_time, out_ch, kernel * in_ch, col.data(), w.data(),
                             b.data(), act, conv.data());
            std::vector<float> want(batch * y_stride, -123.0f);
            for (std::size_t n = 0; n < batch; ++n) {
                for (std::size_t t = 0; t < pooled; ++t) {
                    for (std::size_t o = 0; o < out_ch; ++o) {
                        const float* c = conv.data() + (n * out_time + 2 * t) * out_ch + o;
                        float best = c[0];
                        if (c[out_ch] > best) best = c[out_ch];
                        want[n * y_stride + t * out_ch + o] = best;
                    }
                }
            }
            EXPECT_TRUE(same_bits(y, want))
                << simd_backend_label(backend) << " " << fused_act_name(act);
        }
    }
}

// ------------------------------------------------------ ragged tiles

// The x86 and NEON tiers' tiles are MR = 6 rows high; m covers 1, MR-1,
// MR, MR+1, 2·MR+1 and two batch-like sizes, n every lane-width edge of
// the 4/8/16-lane tiers, k the reduction lengths of the CNN (9 = conv
// patch, 912 = concat).
const std::size_t k_ms[] = {1, 5, 6, 7, 13, 33, 103};
const std::size_t k_ns[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 130};
const std::size_t k_ks[] = {1, 3, 9, 64, 912};

/// Per element: seed (bias[j], or prior[i, j]), then `c = c + a·b` (scalar
/// tier) or `c = fma(a, b, c)` (vector tiers) in ascending k; no activation.
std::vector<float> reference_nn(bool fused, std::size_t m, std::size_t n, std::size_t k,
                                const std::vector<float>& a, const std::vector<float>& b,
                                const std::vector<float>& seed, bool bias) {
    std::vector<float> c(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = bias ? seed[j] : seed[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = a[i * k + kk];
                const float bv = b[kk * n + j];
                acc = fused ? std::fma(av, bv, acc) : acc + av * bv;
            }
            c[i * n + j] = acc;
        }
    }
    return c;
}

/// The activation layers' element operations.
std::vector<float> activate(std::vector<float> c, fused_act act) {
    for (float& v : c) {
        if (act == fused_act::relu) v = v > 0.0f ? v : 0.0f;
        if (act == fused_act::sigmoid) v = sigmoid_scalar(v);
    }
    return c;
}

TEST(FloatExecutorTest, GemmTilesMatchTheElementSequenceAtRaggedShapes) {
    // Scalar keeps the legacy mul-then-add bits; every vector tier equals
    // the fused-multiply-add sequence, hence every other vector tier.
    util::rng gen(71);
    for (const std::size_t m : k_ms) {
        for (const std::size_t n : k_ns) {
            for (const std::size_t k : k_ks) {
                const std::vector<float> a = random_vector(m * k, gen);
                const std::vector<float> b = random_vector(k * n, gen);
                const std::vector<float> bias = random_vector(n, gen);
                const std::vector<float> prior = random_vector(m * n, gen);
                std::vector<float> want_acc[2], want_bias[2];  // [fused]
                for (const bool fused : {false, true}) {
                    want_acc[fused] = reference_nn(fused, m, n, k, a, b, prior, false);
                    want_bias[fused] = reference_nn(fused, m, n, k, a, b, bias, true);
                }
                for (const simd_backend backend : available_simd_backends()) {
                    backend_scope scope(backend);
                    const bool fused = backend != simd_backend::scalar;
                    std::vector<float> c = prior;
                    gemm_nn(m, n, k, a.data(), b.data(), c.data(), /*accumulate=*/true);
                    EXPECT_TRUE(same_bits(c, want_acc[fused]))
                        << simd_backend_label(backend) << " gemm_nn " << m << "x" << n << "x"
                        << k;
                    for (const fused_act act :
                         {fused_act::none, fused_act::relu, fused_act::sigmoid}) {
                        gemm_nn_bias_act(m, n, k, a.data(), b.data(), bias.data(), act,
                                         c.data());
                        EXPECT_TRUE(same_bits(c, activate(want_bias[fused], act)))
                            << simd_backend_label(backend) << " bias+" << fused_act_name(act)
                            << " " << m << "x" << n << "x" << k;
                    }
                }
            }
        }
    }
}

TEST(FloatExecutorTest, GemmTnAccTilesAgreeAcrossTiersAndThreadsAtRaggedShapes) {
    util::rng gen(72);
    for (const std::size_t m : k_ms) {
        for (const std::size_t n : k_ns) {
            for (const std::size_t k : k_ks) {
                const std::vector<float> a = random_vector(k * m, gen);
                const std::vector<float> b = random_vector(k * n, gen);
                const std::vector<float> prior = random_vector(m * n, gen);
                std::vector<float> vector_reference;
                for (const simd_backend backend : available_simd_backends()) {
                    backend_scope scope(backend);
                    std::vector<float> one = prior;
                    util::set_global_threads(1);
                    gemm_tn_acc(m, n, k, a.data(), b.data(), one.data());
                    std::vector<float> four = prior;
                    util::set_global_threads(4);
                    gemm_tn_acc(m, n, k, a.data(), b.data(), four.data());
                    EXPECT_TRUE(same_bits(one, four))
                        << simd_backend_label(backend) << " 1 vs 4 threads " << m << "x" << n
                        << "x" << k;
                    if (backend == simd_backend::scalar) continue;
                    if (vector_reference.empty()) vector_reference = one;
                    EXPECT_TRUE(same_bits(one, vector_reference))
                        << simd_backend_label(backend) << " differs from the first vector tier "
                        << m << "x" << n << "x" << k;
                }
            }
        }
    }
}

}  // namespace
}  // namespace fallsense::nn
