// Kernel micro-benchmarks (google-benchmark): the hot paths of the
// preprocessing pipeline, float training layers, and int8 inference — the
// engineering substrate behind the paper-level numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/preprocess.hpp"
#include "data/synthesizer.hpp"
#include "dsp/biquad.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/lstm.hpp"
#include "nn/simd.hpp"
#include "nn/trainer.hpp"
#include "quant/quantized_cnn.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fallsense;

nn::tensor random_tensor(nn::shape_t shape, std::uint64_t seed) {
    util::rng gen(seed);
    nn::tensor t(std::move(shape));
    for (float& v : t.values()) v = static_cast<float>(gen.normal());
    return t;
}

void BM_ButterworthProcess(benchmark::State& state) {
    dsp::butterworth_lowpass filter(4, 5.0, 100.0);
    float x = 0.37f;
    for (auto _ : state) {
        x = filter.process(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_ButterworthProcess);

void BM_ComplementaryFilterUpdate(benchmark::State& state) {
    dsp::complementary_filter fusion;
    const dsp::vec3 accel{0.1, 0.05, 0.99};
    const dsp::vec3 gyro{0.01, -0.02, 0.005};
    for (auto _ : state) {
        const dsp::euler_angles a = fusion.update(accel, gyro);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ComplementaryFilterUpdate);

void BM_DenseForward(benchmark::State& state) {
    const auto in_features = static_cast<std::size_t>(state.range(0));
    util::rng gen(1);
    nn::dense layer(in_features, 64, gen);
    const nn::tensor x = random_tensor({32, in_features}, 2);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DenseForward)->Arg(128)->Arg(512)->Arg(912);

void BM_DenseForwardNaive(benchmark::State& state) {
    const auto in_features = static_cast<std::size_t>(state.range(0));
    util::rng gen(1);
    nn::dense layer(in_features, 64, gen);
    const nn::tensor x = random_tensor({32, in_features}, 2);
    std::vector<float> y(32 * 64);
    for (auto _ : state) {
        nn::reference::dense_forward(x.data(), layer.weight().value.data(),
                                     layer.bias().value.data(), 32, in_features, 64,
                                     y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DenseForwardNaive)->Arg(128)->Arg(512)->Arg(912);

// The paper's branch shape: [batch, 150, 3] -> filters, kernel 3.  Naive
// vs GEMM is the headline kernel comparison; the acceptance bar is >= 3x.
void BM_Conv1dForward(benchmark::State& state) {
    const auto filters = static_cast<std::size_t>(state.range(0));
    util::rng gen(3);
    nn::conv1d layer(3, filters, 3, gen);
    const nn::tensor x = random_tensor({32, 150, 3}, 4);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Conv1dForward)->Arg(16)->Arg(32)->Arg(64);

void BM_Conv1dForwardNaive(benchmark::State& state) {
    const auto filters = static_cast<std::size_t>(state.range(0));
    util::rng gen(3);
    nn::conv1d layer(3, filters, 3, gen);
    const nn::tensor x = random_tensor({32, 150, 3}, 4);
    std::vector<float> y(32 * 148 * filters);
    for (auto _ : state) {
        nn::reference::conv1d_forward(x.data(), layer.weight().value.data(),
                                      layer.bias().value.data(), 32, 150, 3, filters, 3,
                                      y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Conv1dForwardNaive)->Arg(16)->Arg(32)->Arg(64);

void BM_Conv1dBackward(benchmark::State& state) {
    util::rng gen(3);
    nn::conv1d layer(3, 16, 3, gen);
    const nn::tensor x = random_tensor({32, 150, 3}, 4);
    const nn::tensor gy = random_tensor({32, 148, 16}, 5);
    layer.forward(x, true);
    for (auto _ : state) {
        nn::tensor gx = layer.backward(gy);
        benchmark::DoNotOptimize(gx);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Conv1dBackward);

void BM_Conv1dBackwardNaive(benchmark::State& state) {
    util::rng gen(3);
    nn::conv1d layer(3, 16, 3, gen);
    const nn::tensor x = random_tensor({32, 150, 3}, 4);
    const nn::tensor gy = random_tensor({32, 148, 16}, 5);
    std::vector<float> gx(32 * 150 * 3), gw(3 * 3 * 16), gb(16);
    for (auto _ : state) {
        std::fill(gx.begin(), gx.end(), 0.0f);
        nn::reference::conv1d_backward(x.data(), layer.weight().value.data(), gy.data(), 32,
                                       150, 3, 16, 3, gx.data(), gw.data(), gb.data());
        benchmark::DoNotOptimize(gx.data());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Conv1dBackwardNaive);

// Raw GEMM thread-scaling sweep: 512x512x512 at FALLSENSE_THREADS
// overridden to {1, 2, 4, 8}.
void BM_GemmNNThreads(benchmark::State& state) {
    util::set_global_threads(static_cast<std::size_t>(state.range(0)));
    const std::size_t m = 512, n = 512, k = 512;
    const nn::tensor a = random_tensor({m, k}, 6);
    const nn::tensor b = random_tensor({k, n}, 7);
    nn::tensor c({m, n});
    for (auto _ : state) {
        nn::gemm_nn(m, n, k, a.data(), b.data(), c.data(), false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * m * n * k));
    util::set_global_threads(0);
}
BENCHMARK(BM_GemmNNThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Conv1d forward at the paper's branch shape across thread counts.
void BM_Conv1dForwardThreads(benchmark::State& state) {
    util::set_global_threads(static_cast<std::size_t>(state.range(0)));
    util::rng gen(3);
    nn::conv1d layer(3, 16, 3, gen);
    const nn::tensor x = random_tensor({256, 150, 3}, 4);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 256);
    util::set_global_threads(0);
}
BENCHMARK(BM_Conv1dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- Runtime-dispatch (nn/simd.hpp) per-backend rows ------------------
//
// Each *Simd benchmark is registered once per backend reported by
// available_simd_backends() on this host (scalar always, then the vector
// tiers worst-first — neon / avx2-fma / avx512 as the CPU allows), named
// BM_*Simd/backend:<label>.  scripts/run_bench.sh divides every vector
// row's real_time into the scalar row of the same kernel, producing the
// per-backend "simd_speedup" section of BENCH_kernel.json; the acceptance
// bar is >= 1.5x on at least one dispatched GEMM kernel
// (docs/performance.md).  BM_CnnFloatInferSimd times the paper's CNN end
// to end per backend.  BM_GemmNNSimd/<layer>:<m>x<n>x<k>
// rows time gemm_nn at each CNN layer's shape, so a tile change shows per
// layer without the serving benchmark.

/// Pin dispatch to one resolved backend for a benchmark run: scalar pins
/// scalar mode, any vector tier pins native mode capped at that backend.
/// The destructor lifts the cap and restores whatever FALLSENSE_SIMD /
/// FALLSENSE_SIMD_BACKEND resolved at startup.
struct simd_backend_scope {
    nn::simd_mode saved_mode = nn::active_simd_mode();
    explicit simd_backend_scope(nn::simd_backend backend) {
        nn::set_simd_backend_cap(backend);
        nn::set_simd_mode(backend == nn::simd_backend::scalar ? nn::simd_mode::scalar
                                                              : nn::simd_mode::native);
    }
    ~simd_backend_scope() {
        nn::set_simd_backend_cap(nn::simd_backend::avx512);
        nn::set_simd_mode(saved_mode);
    }
};

void BM_GemmNNSimd(benchmark::State& state, nn::simd_backend backend, std::size_t m,
                   std::size_t n, std::size_t k) {
    simd_backend_scope scope(backend);
    const nn::tensor a = random_tensor({m, k}, 6);
    const nn::tensor b = random_tensor({k, n}, 7);
    nn::tensor c({m, n});
    for (auto _ : state) {
        nn::gemm_nn(m, n, k, a.data(), b.data(), c.data(), false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * m * n * k));
}

void BM_DenseForwardSimd(benchmark::State& state, nn::simd_backend backend) {
    simd_backend_scope scope(backend);
    util::rng gen(1);
    nn::dense layer(912, 64, gen);
    const nn::tensor x = random_tensor({32, 912}, 2);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

void BM_Conv1dForwardSimd(benchmark::State& state, nn::simd_backend backend) {
    simd_backend_scope scope(backend);
    util::rng gen(3);
    nn::conv1d layer(3, 64, 3, gen);
    const nn::tensor x = random_tensor({32, 150, 3}, 4);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

// Int8 deployment path: the batched int8 executor keeps int32
// accumulation exact, so every vector row must produce bit-identical
// logits — these rows measure what the vector kernels buy without
// changing a single score.  BM_CnnInt8InferenceSimd times one window
// (predict_logit, a batch of one); BM_CnnInt8InferRowsSimd scores 32
// windows per call through predict_proba_batch, the serving shape, at
// the same batch as BM_CnnFloatInferSimd.
void BM_CnnInt8InferenceSimd(benchmark::State& state, nn::simd_backend backend) {
    simd_backend_scope scope(backend);
    const std::size_t window = 40;
    auto net = core::build_fallsense_cnn(window, 9);
    const quant::cnn_spec spec = quant::extract_cnn_spec(*net, window);
    const nn::tensor calibration = random_tensor({32, window, 9}, 10);
    const quant::quantized_cnn qmodel(spec, calibration);
    const nn::tensor seg = random_tensor({window, 9}, 11);
    for (auto _ : state) {
        const float logit = qmodel.predict_logit(seg.values());
        benchmark::DoNotOptimize(logit);
    }
}

void BM_CnnInt8InferRowsSimd(benchmark::State& state, nn::simd_backend backend) {
    simd_backend_scope scope(backend);
    const std::size_t window = 40;
    auto net = core::build_fallsense_cnn(window, 9);
    const quant::cnn_spec spec = quant::extract_cnn_spec(*net, window);
    const nn::tensor calibration = random_tensor({32, window, 9}, 10);
    const quant::quantized_cnn qmodel(spec, calibration);
    const nn::tensor rows = random_tensor({32, window, 9}, 8);
    std::vector<float> probs(32);
    quant::batch_inference_scratch scratch;
    for (auto _ : state) {
        qmodel.predict_proba_batch(rows.values(), 32, probs, scratch);
        benchmark::DoNotOptimize(probs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

// End-to-end float CNN inference through the model's planned workspace
// path (nn::predict_proba_rows): direct-conv branches and fused
// Dense→ReLU epilogues.
void BM_CnnFloatInferSimd(benchmark::State& state, nn::simd_backend backend) {
    simd_backend_scope scope(backend);
    const std::size_t window = 40;
    auto net = core::build_fallsense_cnn(window, 7);
    const nn::tensor rows = random_tensor({32, window, 9}, 8);
    std::vector<float> probs(32);
    nn::predict_scratch scratch;
    for (auto _ : state) {
        nn::predict_proba_rows(*net, rows.values(), 32, {window, 9}, probs, scratch);
        benchmark::DoNotOptimize(probs.data());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

void BM_LstmForward(benchmark::State& state) {
    util::rng gen(5);
    nn::lstm layer(9, 24, gen);
    const nn::tensor x = random_tensor({32, 40, 9}, 6);
    for (auto _ : state) {
        nn::tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_LstmForward);

void BM_CnnFloatInference(benchmark::State& state) {
    const auto window = static_cast<std::size_t>(state.range(0));
    auto net = core::build_fallsense_cnn(window, 7);
    const quant::cnn_spec spec = quant::extract_cnn_spec(*net, window);
    const nn::tensor seg = random_tensor({window, 9}, 8);
    for (auto _ : state) {
        const float logit = spec.forward_logit(seg.values());
        benchmark::DoNotOptimize(logit);
    }
}
BENCHMARK(BM_CnnFloatInference)->Arg(20)->Arg(30)->Arg(40);

void BM_CnnInt8Inference(benchmark::State& state) {
    const auto window = static_cast<std::size_t>(state.range(0));
    auto net = core::build_fallsense_cnn(window, 9);
    const quant::cnn_spec spec = quant::extract_cnn_spec(*net, window);
    const nn::tensor calibration = random_tensor({32, window, 9}, 10);
    const quant::quantized_cnn qmodel(spec, calibration);
    const nn::tensor seg = random_tensor({window, 9}, 11);
    for (auto _ : state) {
        const float logit = qmodel.predict_logit(seg.values());
        benchmark::DoNotOptimize(logit);
    }
}
BENCHMARK(BM_CnnInt8Inference)->Arg(20)->Arg(30)->Arg(40);

void BM_SynthesizeFallTrial(benchmark::State& state) {
    data::subject_profile subject;
    data::motion_tuning tuning;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        util::rng gen(++seed);
        const data::trial t =
            data::synthesize_task(30, subject, tuning, data::synthesis_config{}, gen);
        benchmark::DoNotOptimize(t.sample_count());
    }
}
BENCHMARK(BM_SynthesizeFallTrial);

void BM_PreprocessTrial(benchmark::State& state) {
    util::rng gen(12);
    data::subject_profile subject;
    data::motion_tuning tuning;
    const data::trial t =
        data::synthesize_task(6, subject, tuning, data::synthesis_config{}, gen);
    for (auto _ : state) {
        const std::vector<float> stream = core::preprocess_trial(t, core::preprocess_config{});
        benchmark::DoNotOptimize(stream.size());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t.sample_count()));
}
BENCHMARK(BM_PreprocessTrial);

struct gemm_shape {
    const char* layer;
    std::size_t m, n, k;
};
constexpr gemm_shape k_cnn_gemm_shapes[] = {
    {"conv", 38 * 103, 16, 9},
    {"dense64", 103, 64, 912},
    {"dense32", 103, 32, 64},
    {"dense1", 103, 1, 32},
};

/// Register one row per probed backend for every dispatched kernel, plus
/// the fused-vs-unfused float CNN pair.  Runtime registration (instead of
/// the BENCHMARK macro) because the row set depends on what the host CPU
/// reports at startup.
void register_simd_benchmarks() {
    for (const nn::simd_backend backend : nn::available_simd_backends()) {
        const std::string tag = std::string("/backend:") + nn::simd_backend_label(backend);
        benchmark::RegisterBenchmark(("BM_GemmNNSimd" + tag).c_str(), BM_GemmNNSimd,
                                     backend, 192, 192, 192);
        // The CNN's own layer shapes at a 103-window serving batch (one
        // steady_float tick): each branch conv as 38 rows per window, then
        // the three trunk dense layers.
        for (const gemm_shape& g : k_cnn_gemm_shapes) {
            const std::string name = std::string("BM_GemmNNSimd/") + g.layer + ":" +
                                     std::to_string(g.m) + "x" + std::to_string(g.n) + "x" +
                                     std::to_string(g.k) + tag;
            benchmark::RegisterBenchmark(name.c_str(), BM_GemmNNSimd, backend, g.m, g.n, g.k);
        }
        benchmark::RegisterBenchmark(("BM_DenseForwardSimd" + tag).c_str(),
                                     BM_DenseForwardSimd, backend);
        benchmark::RegisterBenchmark(("BM_Conv1dForwardSimd" + tag).c_str(),
                                     BM_Conv1dForwardSimd, backend);
        benchmark::RegisterBenchmark(("BM_CnnInt8InferenceSimd" + tag).c_str(),
                                     BM_CnnInt8InferenceSimd, backend);
        benchmark::RegisterBenchmark(("BM_CnnInt8InferRowsSimd" + tag).c_str(),
                                     BM_CnnInt8InferRowsSimd, backend);
        benchmark::RegisterBenchmark(("BM_CnnFloatInferSimd" + tag).c_str(),
                                     BM_CnnFloatInferSimd, backend);
    }
}

}  // namespace

int main(int argc, char** argv) {
    register_simd_benchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
