#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "core/models.hpp"
#include "core/windowing.hpp"
#include "mcu/cost_model.hpp"
#include "mcu/stm32_spec.hpp"
#include "nn/activations.hpp"
#include "nn/trainer.hpp"
#include "quant/cnn_spec.hpp"
#include "util/rng.hpp"

namespace rtbench {

namespace nn = fallsense::nn;
namespace serve = fallsense::serve;

namespace {

/// The scorer factory's model for `spec`: the paper's CNN seeded from
/// derive_seed(spec.seed, "serve/model").  replay_layers checks that it
/// reproduces the scorer's outputs bit for bit.
std::unique_ptr<nn::multi_branch_network> scorer_model(const serve::scorer_spec& spec) {
    return fallsense::core::build_fallsense_cnn(
        spec.window_samples, fallsense::util::derive_seed(spec.seed, "serve/model"));
}

const char* layer_span(const nn::layer& l, const nn::shape_t& in_shape) {
    switch (l.kind()) {
        case nn::layer_kind::conv1d: return "nn.layer.conv";
        case nn::layer_kind::relu: return "nn.layer.relu";
        case nn::layer_kind::maxpool1d: return "nn.layer.pool";
        case nn::layer_kind::dense: {
            const std::size_t width = l.output_shape(in_shape)[0];
            if (width == 64) return "nn.layer.dense64";
            if (width == 32) return "nn.layer.dense32";
            if (width == 1) return "nn.layer.dense1";
            return "nn.layer.dense";
        }
        default: return nullptr;  // flatten: a reshape, counted as glue
    }
}

std::size_t floats_for(std::size_t bytes) { return (bytes + sizeof(float) - 1) / sizeof(float); }

/// Run `stack` one layer at a time over `act` (batch rows of `shape`);
/// leaves the output in `act` and returns its per-row shape.
nn::shape_t run_stack(nn::sequential& stack, std::vector<float>& act, nn::shape_t shape,
                      std::size_t batch, std::vector<float>& next, std::vector<float>& ws) {
    for (std::size_t j = 0; j < stack.layer_count(); ++j) {
        nn::layer& l = stack.layer_at(j);
        const nn::shape_t out_shape = l.output_shape(shape);
        next.resize(batch * nn::shape_volume(out_shape));
        ws.resize(std::max<std::size_t>(1, floats_for(l.infer_workspace_bytes(shape, batch))));
        const std::span<const float> in(act.data(), batch * nn::shape_volume(shape));
        if (const char* name = layer_span(l, shape)) {
            trace::span s(name);
            s.arg("windows", static_cast<double>(batch));
            l.forward_into(in, shape, batch, ws, next);
        } else {
            l.forward_into(in, shape, batch, ws, next);
        }
        std::swap(act, next);
        shape = out_shape;
    }
    return shape;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// One replay of every batch; records failures when `out` is given.
void replay_pass(nn::multi_branch_network& model,
                 const std::vector<bench_scorer::batch>& batches, const serve::scorer_spec& spec,
                 report* out) {
    const std::size_t time = spec.window_samples;
    const std::size_t channels = fallsense::core::k_feature_channels;
    const nn::shape_t row_shape{time, channels};
    nn::predict_scratch scratch;
    std::vector<float> whole;
    std::vector<float> slice, act, next, ws, concat, probs;
    bool whole_ok = true;
    bool layers_ok = true;
    for (const bench_scorer::batch& b : batches) {
        const std::size_t n = b.count;
        whole.assign(n, 0.0f);
        {
            trace::span s("nn.forward");
            s.arg("windows", static_cast<double>(n));
            nn::predict_proba_rows(model, b.windows, n, row_shape, whole, scratch);
        }
        whole_ok = whole_ok && same_bits(whole, b.scores);

        std::size_t concat_width = 0;
        std::size_t channel_base = 0;
        std::vector<std::vector<float>> branch_out(model.branch_count());
        std::vector<std::size_t> widths(model.branch_count());
        for (std::size_t bi = 0; bi < model.branch_count(); ++bi) {
            const std::size_t group = model.group_channels()[bi];
            slice.resize(n * time * group);
            for (std::size_t r = 0; r < n * time; ++r) {
                std::copy_n(b.windows.data() + r * channels + channel_base, group,
                            slice.data() + r * group);
            }
            act.swap(slice);
            const nn::shape_t shape =
                run_stack(model.branch(bi), act, {time, group}, n, next, ws);
            widths[bi] = nn::shape_volume(shape);
            branch_out[bi] = act;
            concat_width += widths[bi];
            channel_base += group;
        }
        concat.resize(n * concat_width);
        std::size_t base = 0;
        for (std::size_t bi = 0; bi < branch_out.size(); ++bi) {
            for (std::size_t r = 0; r < n; ++r) {
                std::copy_n(branch_out[bi].data() + r * widths[bi], widths[bi],
                            concat.data() + r * concat_width + base);
            }
            base += widths[bi];
        }
        act = concat;
        run_stack(model.trunk(), act, {concat_width}, n, next, ws);
        probs.resize(n);
        {
            trace::span s("nn.layer.sigmoid");
            s.arg("windows", static_cast<double>(n));
            for (std::size_t i = 0; i < n; ++i) probs[i] = nn::sigmoid_scalar(act[i]);
        }
        layers_ok = layers_ok && same_bits(probs, b.scores);
    }
    if (out != nullptr && !whole_ok) {
        out->fail("layer replay: the rebuilt model's forward differs from the scorer");
    }
    if (out != nullptr && !layers_ok) {
        out->fail("layer replay: layer-by-layer outputs differ from the scorer");
    }
}

}  // namespace

void replay_layers(const std::vector<bench_scorer::batch>& batches,
                   const serve::scorer_spec& spec, report& out) {
    const auto model = scorer_model(spec);
    // A first, untraced pass builds the inference plans and warms the
    // caches, so the traced pass times steady-state layer calls.
    const bool tracing = trace::enabled();
    trace::set_enabled(false);
    replay_pass(*model, batches, spec, nullptr);
    trace::set_enabled(tracing);
    replay_pass(*model, batches, spec, &out);
}

void add_mcu_split(const std::vector<bench_scorer::batch>& batches,
                   const serve::scorer_spec& spec, report& out) {
    std::size_t rows = 0;
    for (const auto& b : batches) rows += b.count;
    if (rows == 0) return;
    const std::size_t elems = spec.window_samples * fallsense::core::k_feature_channels;
    nn::tensor calib({rows, spec.window_samples, fallsense::core::k_feature_channels});
    float* dst = calib.data();
    for (const auto& b : batches) {
        std::copy_n(b.windows.data(), b.count * elems, dst);
        dst += b.count * elems;
    }
    auto model = scorer_model(spec);
    const fallsense::quant::quantized_cnn qmodel(
        fallsense::quant::extract_cnn_spec(*model, spec.window_samples), calib);
    const fallsense::mcu::device_spec board = fallsense::mcu::stm32f722();
    out.trace_values.emplace_back(
        "mcu.fusion_ms", fallsense::mcu::estimate_fusion(spec.window_samples, board).milliseconds);
    out.trace_values.emplace_back("mcu.inference_ms",
                                  fallsense::mcu::estimate_inference(qmodel, board).milliseconds);
}

}  // namespace rtbench
