// Int8 deployment graph of the fallsense CNN.
//
// Built from a `cnn_spec` plus calibration data (post-training
// quantization, Section III-D): weights symmetric int8, activations
// asymmetric int8, biases int32, requantization via 64-bit fixed-point
// multipliers — the arithmetic STM32Cube.AI / TFLite-Micro execute on the
// paper's STM32F722.  The executor also counts multiply-accumulates and
// tracks its activation arena so the MCU cost model (src/mcu) can derive
// latency and RAM numbers from the same object that computes predictions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quant/cnn_spec.hpp"
#include "quant/q8_kernels.hpp"
#include "quant/qparams.hpp"

namespace fallsense::quant {

/// Reusable buffers for int8 batch inference.  Each grows once to its
/// high-water mark (a pure function of the model shape and the largest
/// batch) and is reused, so steady-state batches perform zero heap
/// allocations — the serving tick's contract.  Chunk c of the fixed-grain
/// batch dispatch owns its own region of `arena`, so concurrent chunks
/// never share a buffer; a scratch must not be shared by concurrent
/// batches.
struct batch_inference_scratch {
    std::vector<std::int8_t> qinput;  ///< [count, time, channels] quantized input
    std::vector<std::int16_t> arena;  ///< per chunk: branch patch, conv rows, trunk rows
};

struct q_conv_branch {
    std::vector<std::int8_t> weight;  ///< [kernel, cin, cout], symmetric
    std::vector<std::int32_t> bias;   ///< scale = s_in * s_w
    qparams weight_q;
    quantized_multiplier requant;     ///< s_in * s_w / s_out
    std::size_t kernel = 0;
    std::size_t in_channels = 0;
    std::size_t out_channels = 0;
    std::size_t pool = 2;
};

struct q_dense {
    std::vector<std::int8_t> weight;  ///< [in, out], symmetric
    std::vector<std::int32_t> bias;
    qparams weight_q;
    qparams output_q;
    quantized_multiplier requant;
    std::size_t in_features = 0;
    std::size_t out_features = 0;
    bool relu = false;
};

/// Operation counts of one inference — consumed by the MCU latency model.
struct op_counts {
    std::uint64_t macs = 0;          ///< int8 multiply-accumulates
    std::uint64_t requants = 0;      ///< fixed-point requantize ops
    std::uint64_t pool_compares = 0; ///< int8 max-pool comparisons
};

/// Pre-assembled int8 graph — the firmware loader path (mcu::deserialize_
/// deployment_blob) builds one of these from a flashed blob.
struct quantized_cnn_parts {
    std::size_t time_steps = 0;
    qparams input_q;
    qparams concat_q;
    std::vector<q_conv_branch> branches;
    std::vector<q_dense> trunk;
};

class quantized_cnn {
public:
    /// Quantize `spec` using activation ranges from `calibration_segments`.
    quantized_cnn(const cnn_spec& spec, const nn::tensor& calibration_segments);

    /// Assemble from already-quantized parts (firmware loading).  Throws
    /// std::invalid_argument unless the parts are structurally consistent
    /// (shapes, trunk chaining, final logit) and executable: scales finite
    /// and positive, activation zero points in [-128, 127], weights
    /// symmetric, multiplier mantissas in [2^30, 2^31) with right shifts in
    /// [0, 31], and no layer's worst-case accumulator sum|w|·255 + |bias|
    /// beyond int32.
    explicit quantized_cnn(quantized_cnn_parts parts);

    /// Inference for one float segment (row-major [time x channels]):
    /// quantize input, run the int8 graph, dequantize the logit, sigmoid.
    float predict_proba(std::span<const float> segment) const;
    /// The dequantized logit (pre-sigmoid): a batch of one.
    float predict_logit(std::span<const float> segment) const;

    /// Batch-scoring entry point for serving (src/serve): `count` segments
    /// laid out back to back in `segments`; writes one probability per
    /// segment into `out`.  Segments are independent int8 inferences run in
    /// fixed-grain chunks (util::parallel_for_chunks) with index-addressed
    /// outputs — bit-identical to per-segment predict_proba for any
    /// FALLSENSE_THREADS and any simd backend (src/quant/q8_kernels.hpp).
    void predict_proba_batch(std::span<const float> segments, std::size_t count,
                             std::span<float> out) const;
    /// Batch scoring with caller-owned scratch (the serving scorers keep
    /// one across ticks so steady-state batches allocate nothing).
    void predict_proba_batch(std::span<const float> segments, std::size_t count,
                             std::span<float> out, batch_inference_scratch& scratch) const;

    std::size_t time_steps() const { return time_steps_; }
    std::size_t input_channels() const { return input_channels_; }
    const qparams& input_q() const { return input_q_; }
    const qparams& concat_q() const { return concat_q_; }
    std::span<const q_conv_branch> branches() const { return branches_; }
    std::span<const q_dense> trunk() const { return trunk_; }

    /// Bytes of constant data (weights + biases + quantization records) —
    /// the flash footprint contribution of the model.
    std::size_t weight_bytes() const;
    std::size_t bias_bytes() const;
    /// Peak bytes of live int8 activations during one inference (the
    /// scratch arena a static planner would allocate).
    std::size_t activation_arena_bytes() const;
    /// MAC/requant counts of one inference.
    op_counts count_ops() const;

private:
    void validate() const;
    void pack();
    void run_batch(const float* segments, std::size_t count, float* logits,
                   batch_inference_scratch& scratch) const;
    void run_chunk(const float* segments, std::size_t count, float* logits,
                   std::int8_t* qinput, std::int16_t* arena) const;

    std::size_t time_steps_ = 0;
    std::size_t input_channels_ = 0;
    std::vector<std::size_t> group_channels_;
    qparams input_q_;
    qparams concat_q_;
    std::vector<q_conv_branch> branches_;
    std::vector<q_dense> trunk_;

    // Host execution plan (pack()): one packed copy of every layer and the
    // per-chunk arena layout, in int16 elements.
    std::vector<q8_layer> packed_branches_;
    std::vector<q8_layer> packed_trunk_;
    std::size_t patch_elems_ = 0;    ///< widest branch input patch (+ padding)
    std::size_t conv_elems_ = 0;     ///< widest branch conv output
    std::size_t concat_stride_ = 0;  ///< trunk input row
    std::size_t hidden_stride_ = 0;  ///< widest trunk output row
    std::size_t chunk_elems_ = 0;    ///< one chunk's arena
};

}  // namespace fallsense::quant
