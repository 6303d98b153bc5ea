// Batched window scoring for the serving engine.
//
// The session engine (engine.hpp) collects every window due at a tick
// across all hosted sessions and hands them to one `batch_scorer::score`
// call as a row-major [count x window_elems] buffer.  Batching is where
// serving throughput comes from: one pass over a thousand windows streams
// each layer's weights once through the register tiles and pays the plan
// lookup and dispatch once, where per-window scoring pays them a thousand
// times (bench/serve_scaling quantifies the gap).
//
// Every implementation is deterministic: probability i depends only on
// window i, never on the batch around it or on FALLSENSE_THREADS.  For the
// float CNN that follows from the GEMM serial-reduction guarantee
// (src/nn/gemm.hpp); for the int8 path each window is an independent
// inference fanned out with index-addressed outputs.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "core/pipeline.hpp"
#include "nn/layer.hpp"
#include "nn/trainer.hpp"
#include "quant/quantized_cnn.hpp"

namespace fallsense::serve {

class batch_scorer {
public:
    virtual ~batch_scorer() = default;

    /// Score `count` row-major windows of `window_elems` floats each,
    /// laid out back to back in `windows`; write one probability per
    /// window into `out` (size == count).  Called serially by the engine.
    virtual void score(std::span<const float> windows, std::size_t count,
                       std::size_t window_elems, std::span<float> out) = 0;

    /// Short label for manifests and reports, e.g. "cnn-float".
    virtual std::string describe() const = 0;

    /// Independent replica: same scoring function bit for bit, zero shared
    /// mutable state — safe to run concurrently with the source and with
    /// other replicas.  The fleet router's per_shard score mode keeps one
    /// replica per shard so shards score inside their own pool tasks.
    virtual std::unique_ptr<batch_scorer> clone() const = 0;

    batch_scorer() = default;
    batch_scorer(const batch_scorer&) = delete;
    batch_scorer& operator=(const batch_scorer&) = delete;
};

/// Float CNN path: one nn model forward per batch via
/// nn::predict_proba_rows.  The model is owned (a model's forward caches
/// make it stateful, so it must not be shared with concurrent users).
class float_cnn_scorer : public batch_scorer {
public:
    float_cnn_scorer(std::unique_ptr<nn::model> model, std::size_t window_samples);

    void score(std::span<const float> windows, std::size_t count,
               std::size_t window_elems, std::span<float> out) override;
    std::string describe() const override { return "cnn-float"; }
    /// Deep-copies the model (nn::model::clone), so replica forwards never
    /// touch the source model's caches.
    std::unique_ptr<batch_scorer> clone() const override;

private:
    std::unique_ptr<nn::model> model_;
    std::size_t window_samples_;
    nn::shape_t row_shape_;        ///< {window_samples, channels}, built once
    nn::predict_scratch scratch_;  ///< reused workspace arena + logit buffer
};

/// Int8 deployment path: quant::quantized_cnn::predict_proba_batch.
class int8_cnn_scorer : public batch_scorer {
public:
    explicit int8_cnn_scorer(std::shared_ptr<const quant::quantized_cnn> model);

    void score(std::span<const float> windows, std::size_t count,
               std::size_t window_elems, std::span<float> out) override;
    std::string describe() const override { return "cnn-int8"; }
    /// Shares the immutable quantized graph (weights and quantization
    /// records are read-only after construction); every replica owns its
    /// own activation scratch, so there is no shared mutable state.
    std::unique_ptr<batch_scorer> clone() const override;

private:
    std::shared_ptr<const quant::quantized_cnn> model_;
    quant::batch_inference_scratch scratch_;  ///< per-chunk activation buffers
};

/// Adapter over the single-window core::segment_scorer callback, scored
/// serially — the degenerate "no batching" case used by tests and as the
/// apples-to-apples baseline in bench/serve_scaling.
class callback_batch_scorer : public batch_scorer {
public:
    explicit callback_batch_scorer(core::segment_scorer scorer, std::string label = "callback");

    void score(std::span<const float> windows, std::size_t count,
               std::size_t window_elems, std::span<float> out) override;
    std::string describe() const override { return label_; }
    /// Copies the callback (callbacks must be pure per-window functions —
    /// the batch_scorer determinism contract — so a copy is independent).
    std::unique_ptr<batch_scorer> clone() const override;

private:
    core::segment_scorer scorer_;
    std::string label_;
};

}  // namespace fallsense::serve
