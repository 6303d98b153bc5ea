// Zero-allocation contract of the serving tick (src/serve/fleet.hpp).
//
// A dedicated test binary that replaces global operator new with a
// counting allocator, warms a fleet to its high-water marks, and then
// asserts that steady-state feeds and ticks perform ZERO heap allocations —
// in both score modes and for every scorer backend.  Scope: admission into
// the per-session queue rings, the tick hot path (queue drain, window
// staging, batch gather, score dispatch, apply/merge)
// plus all three scorer paths end to end — the callback adapter, the int8
// deployment graph (quant::batch_inference_scratch), and the float CNN,
// whose forwards run out of the model's planned workspace arena
// (nn::model::forward_into via nn::predict_scratch).  Also pins the
// TRAINING path: a steady-state nn::train_step (gather, forward(training),
// weighted BCE, backward, Adam) recycles every tensor through the
// thread-local buffer pool and performs zero heap allocations.  Kept out
// of fallsense_tests: a global operator new override must own its whole
// binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
    return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fallsense::serve {
namespace {

constexpr std::size_t k_window = 20;
constexpr std::size_t k_warm_ticks = 80;
constexpr std::size_t k_measured_ticks = 60;

/// Sub-threshold constant scorer (capture is a single float, so the
/// std::function stays in its small-buffer store): no triggers, so the
/// per-tick trigger vector never grows.
std::unique_ptr<batch_scorer> quiet_scorer() {
    scorer_spec spec;
    spec.backend = scorer_backend::callback;
    spec.window_samples = k_window;
    spec.callback = [](std::span<const float>) { return 0.05f; };
    spec.label = "quiet";
    return make_scorer(spec);
}

/// Deterministically seeded CNN scorer (float32 or int8).  The untrained
/// model's logits stay small, so with the detector threshold at 1.0 its
/// sigmoid scores never trigger and no trigger-path buffers grow.
std::unique_ptr<batch_scorer> cnn_scorer(scorer_backend backend) {
    scorer_spec spec;
    spec.backend = backend;
    spec.window_samples = k_window;
    spec.seed = 7;
    return make_scorer(spec);
}

/// Feed every session one synthetic sample, then tick, counting
/// allocations around both: admission into the fixed queue rings is part
/// of the steady state too.
std::uint64_t ticks_allocations(fleet_router& fleet, const std::vector<session_id>& ids,
                                std::size_t ticks, std::size_t tick0, bool measured) {
    std::uint64_t allocations = 0;
    data::raw_sample sample{};
    for (std::size_t t = 0; t < ticks; ++t) {
        const std::uint64_t before = allocation_count();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            sample.accel[0] = static_cast<float>(i) * 0.2f;
            sample.accel[1] = static_cast<float>((tick0 + t) % 13) * 0.1f;
            sample.accel[2] = 1.0f;
            fleet.feed(ids[i], sample);
        }
        fleet.tick();
        if (measured) allocations += allocation_count() - before;
    }
    return allocations;
}

void expect_steady_state_tick_is_allocation_free(score_mode mode,
                                                 std::unique_ptr<batch_scorer> scorer,
                                                 double threshold) {
    fleet_config config;
    config.engine.detector.window_samples = k_window;
    config.engine.detector.threshold = threshold;  // scorer never fires
    config.engine.queue_capacity = 4;
    config.shards = 3;
    config.mode = mode;
    fleet_router fleet(config, std::move(scorer));
    std::vector<session_id> ids;
    for (int i = 0; i < 12; ++i) ids.push_back(fleet.create_session());

    // Warm-up: scratch buffers (staged windows, fleet batch, score slice,
    // live-session index, scorer arenas and inference plans) grow to their
    // high-water marks.
    ticks_allocations(fleet, ids, k_warm_ticks, 0, false);
    const std::uint64_t allocations =
        ticks_allocations(fleet, ids, k_measured_ticks, k_warm_ticks, true);
    EXPECT_EQ(allocations, 0u) << score_mode_name(mode) << " mode feeds and ticks allocated";
}

TEST(ServeAllocTest, FusedSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(score_mode::fused, quiet_scorer(), 0.65);
}

TEST(ServeAllocTest, PerShardSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(score_mode::per_shard, quiet_scorer(), 0.65);
}

TEST(ServeAllocTest, FloatCnnFusedSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(
        score_mode::fused, cnn_scorer(scorer_backend::float32), 1.0);
}

TEST(ServeAllocTest, FloatCnnPerShardSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(
        score_mode::per_shard, cnn_scorer(scorer_backend::float32), 1.0);
}

TEST(ServeAllocTest, Int8CnnFusedSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(
        score_mode::fused, cnn_scorer(scorer_backend::int8), 1.0);
}

TEST(ServeAllocTest, Int8CnnPerShardSteadyStateTickIsAllocationFree) {
    expect_steady_state_tick_is_allocation_free(
        score_mode::per_shard, cnn_scorer(scorer_backend::int8), 1.0);
}

/// Build k_count synthetic windows laid out back to back.
std::vector<float> synthetic_windows(std::size_t count, std::size_t elems) {
    std::vector<float> windows(count * elems);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        windows[i] = std::sin(static_cast<double>(i) * 0.37) * 0.8;
    }
    return windows;
}

void expect_batch_scoring_is_allocation_free(scorer_backend backend) {
    const auto scorer = cnn_scorer(backend);

    constexpr std::size_t k_count = 48;
    const std::size_t elems = k_window * core::k_feature_channels;
    const std::vector<float> windows = synthetic_windows(k_count, elems);
    std::vector<float> out(k_count);

    scorer->score(windows, k_count, elems, out);  // warm-up batch
    const std::uint64_t before = allocation_count();
    scorer->score(windows, k_count, elems, out);
    EXPECT_EQ(allocation_count() - before, 0u)
        << scorer_backend_name(backend) << " batch scoring allocated";
    for (const float p : out) {
        EXPECT_GE(p, 0.0f);
        EXPECT_LE(p, 1.0f);
    }
}

TEST(ServeAllocTest, Int8BatchScoringIsAllocationFreeAfterWarmup) {
    // The deployment scorer's whole inference — quantize, conv branches,
    // pooling, dense trunk, requantize, sigmoid — runs out of the
    // persistent quant::batch_inference_scratch after one warm-up batch.
    expect_batch_scoring_is_allocation_free(scorer_backend::int8);
}

TEST(ServeAllocTest, FloatBatchScoringIsAllocationFreeAfterWarmup) {
    // The float path — workspace-bytes query, chunked forward_into through
    // the model's arena plan, sigmoid over the logit buffer — reuses the
    // nn::predict_scratch arena once the first batch has sized it.
    expect_batch_scoring_is_allocation_free(scorer_backend::float32);
}

TEST(ServeAllocTest, TrainStepIsAllocationFreeAfterWarmup) {
    // Steady-state training: once the first steps have grown the gather
    // batch, the im2col/weight scratches, the gemm_tn_acc reduction buffer,
    // and the tensor buffer pool to their high-water marks, a full
    // train_step — gather, forward(training) with materialized ReLU masks,
    // weighted BCE, backward, Adam update — allocates nothing.
    constexpr std::size_t k_rows = 48;
    constexpr std::size_t k_time = 20;
    constexpr std::size_t k_channels = 3;
    util::rng gen(41);
    nn::labeled_data data;
    data.features = nn::tensor({k_rows, k_time, k_channels});
    for (std::size_t i = 0; i < data.features.size(); ++i) {
        data.features[i] = static_cast<float>(gen.uniform(-1.0, 1.0));
    }
    for (std::size_t i = 0; i < k_rows; ++i) {
        data.labels.push_back((i % 3 == 0) ? 1.0f : 0.0f);
    }

    nn::sequential net;
    net.emplace<nn::conv1d>(k_channels, 8, 3, gen);
    net.emplace<nn::relu>();
    net.emplace<nn::maxpool1d>(2);
    net.emplace<nn::flatten>();
    net.emplace<nn::dense>(9 * 8, 16, gen);
    net.emplace<nn::relu>();
    net.emplace<nn::dense>(16, 1, gen, false);

    nn::adam optim(net.parameters(), 1e-3);
    nn::train_step_scratch scratch;
    std::vector<std::size_t> idx(16);
    std::iota(idx.begin(), idx.end(), 0);

    for (int step = 0; step < 8; ++step) {
        nn::train_step(net, data, idx, 1.2, 0.9, optim, scratch);
    }
    const std::uint64_t before = allocation_count();
    double loss = 0.0;
    for (int step = 0; step < 8; ++step) {
        loss = nn::train_step(net, data, idx, 1.2, 0.9, optim, scratch);
    }
    EXPECT_EQ(allocation_count() - before, 0u) << "steady-state train_step allocated";
    EXPECT_TRUE(std::isfinite(loss));
}

}  // namespace
}  // namespace fallsense::serve
