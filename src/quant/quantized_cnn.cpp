#include "quant/quantized_cnn.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "nn/activations.hpp"
#include "nn/simd.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::quant {

namespace {

float max_abs(std::span<const float> values) {
    float m = 0.0f;
    for (const float v : values) m = std::max(m, std::abs(v));
    return m;
}

std::vector<std::int8_t> quantize_weights(const nn::tensor& w, const qparams& qp) {
    std::vector<std::int8_t> out(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) out[i] = quantize_value(w[i], qp);
    return out;
}

std::vector<std::int32_t> quantize_bias(const nn::tensor& b, float input_scale,
                                        float weight_scale) {
    const double scale = static_cast<double>(input_scale) * weight_scale;
    std::vector<std::int32_t> out(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        out[i] = static_cast<std::int32_t>(std::llround(static_cast<double>(b[i]) / scale));
    }
    return out;
}

/// Fixed batch-dispatch grain: chunk boundaries (and therefore which arena
/// region a segment uses) are a pure function of the segment index.
constexpr std::size_t k_batch_grain = 16;

}  // namespace

quantized_cnn::quantized_cnn(const cnn_spec& spec, const nn::tensor& calibration_segments) {
    spec.validate();
    const activation_ranges ranges = calibrate(spec, calibration_segments);

    time_steps_ = spec.time_steps;
    group_channels_ = spec.group_channels;
    input_channels_ = spec.input_channels();
    input_q_ = choose_activation_qparams(ranges.input_min, ranges.input_max);
    // All branch outputs are concatenated, so they share one quantization.
    concat_q_ = choose_activation_qparams(ranges.concat_min, ranges.concat_max);

    for (const conv_branch_spec& b : spec.branches) {
        q_conv_branch qb;
        qb.weight_q = choose_weight_qparams(max_abs(b.conv_weight.values()));
        qb.weight = quantize_weights(b.conv_weight, qb.weight_q);
        qb.bias = quantize_bias(b.conv_bias, input_q_.scale, qb.weight_q.scale);
        qb.requant = encode_multiplier(static_cast<double>(input_q_.scale) *
                                       qb.weight_q.scale / concat_q_.scale);
        qb.kernel = b.kernel();
        qb.in_channels = b.in_channels();
        qb.out_channels = b.out_channels();
        qb.pool = b.pool;
        branches_.push_back(std::move(qb));
    }

    qparams prev_q = concat_q_;
    for (std::size_t li = 0; li < spec.trunk.size(); ++li) {
        const dense_spec& d = spec.trunk[li];
        q_dense qd;
        qd.weight_q = choose_weight_qparams(max_abs(d.weight.values()));
        qd.weight = quantize_weights(d.weight, qd.weight_q);
        qd.bias = quantize_bias(d.bias, prev_q.scale, qd.weight_q.scale);
        qd.output_q =
            choose_activation_qparams(ranges.trunk_min[li], ranges.trunk_max[li]);
        qd.requant = encode_multiplier(static_cast<double>(prev_q.scale) * qd.weight_q.scale /
                                       qd.output_q.scale);
        qd.in_features = d.in_features();
        qd.out_features = d.out_features();
        qd.relu = d.relu_after;
        prev_q = qd.output_q;
        trunk_.push_back(std::move(qd));
    }
    validate();
    pack();
}

quantized_cnn::quantized_cnn(quantized_cnn_parts parts)
    : time_steps_(parts.time_steps),
      input_q_(parts.input_q),
      concat_q_(parts.concat_q),
      branches_(std::move(parts.branches)),
      trunk_(std::move(parts.trunk)) {
    FS_ARG_CHECK(time_steps_ > 0, "quantized model without time steps");
    FS_ARG_CHECK(!branches_.empty(), "quantized model without branches");
    FS_ARG_CHECK(!trunk_.empty(), "quantized model without trunk");
    std::size_t concat_width = 0;
    for (const q_conv_branch& b : branches_) {
        FS_ARG_CHECK(b.kernel > 0 && b.in_channels > 0 && b.out_channels > 0 && b.pool > 0,
                     "degenerate branch dimensions");
        FS_ARG_CHECK(time_steps_ >= b.kernel, "kernel longer than window");
        FS_ARG_CHECK(b.weight.size() == b.kernel * b.in_channels * b.out_channels,
                     "branch weight size mismatch");
        FS_ARG_CHECK(b.bias.size() == b.out_channels, "branch bias size mismatch");
        group_channels_.push_back(b.in_channels);
        input_channels_ += b.in_channels;
        const std::size_t conv_time = time_steps_ - b.kernel + 1;
        concat_width += (conv_time / b.pool) * b.out_channels;
    }
    std::size_t prev = concat_width;
    for (const q_dense& d : trunk_) {
        FS_ARG_CHECK(d.in_features == prev, "trunk width chain mismatch");
        FS_ARG_CHECK(d.weight.size() == d.in_features * d.out_features,
                     "dense weight size mismatch");
        FS_ARG_CHECK(d.bias.size() == d.out_features, "dense bias size mismatch");
        prev = d.out_features;
    }
    FS_ARG_CHECK(prev == 1, "quantized trunk must end in one logit");
    validate();
    pack();
}

namespace {

void check_scale(const qparams& qp) {
    FS_ARG_CHECK(std::isfinite(qp.scale) && qp.scale > 0.0f,
                 "quantization scale must be finite and positive");
}

void check_activation(const qparams& qp) {
    check_scale(qp);
    FS_ARG_CHECK(qp.zero_point >= -128 && qp.zero_point <= 127,
                 "activation zero point outside int8");
}

void check_weights(const qparams& qp) {
    check_scale(qp);
    FS_ARG_CHECK(qp.zero_point == 0, "int8 weights must be symmetric");
}

void check_multiplier(const quantized_multiplier& m) {
    FS_ARG_CHECK(m.mantissa >= (std::int32_t{1} << 30),
                 "requantize mantissa outside [2^30, 2^31)");
    FS_ARG_CHECK(m.right_shift >= 0 && m.right_shift <= 31,
                 "requantize right shift outside [0, 31]");
}

/// Every |x - zp| is at most 255, so sum|w|·255 + |bias| bounds each
/// output's accumulator at every step of the reduction, in any order.
void check_accumulator_bound(std::span<const std::int8_t> weight,
                             std::span<const std::int32_t> bias) {
    const std::size_t n = bias.size();
    for (std::size_t o = 0; o < n; ++o) {
        std::int64_t bound = std::abs(static_cast<std::int64_t>(bias[o]));
        for (std::size_t i = o; i < weight.size(); i += n) {
            bound += std::abs(static_cast<std::int64_t>(weight[i])) * 255;
        }
        FS_ARG_CHECK(bound <= std::numeric_limits<std::int32_t>::max(),
                     "layer accumulator can overflow int32");
    }
}

}  // namespace

void quantized_cnn::validate() const {
    check_activation(input_q_);
    check_activation(concat_q_);
    for (const q_conv_branch& b : branches_) {
        check_weights(b.weight_q);
        check_multiplier(b.requant);
        check_accumulator_bound(b.weight, b.bias);
    }
    for (const q_dense& d : trunk_) {
        check_weights(d.weight_q);
        check_activation(d.output_q);
        check_multiplier(d.requant);
        check_accumulator_bound(d.weight, d.bias);
    }
}

void quantized_cnn::pack() {
    std::size_t concat_width = 0;
    for (const q_conv_branch& b : branches_) {
        // The conv feeds a ReLU: clamp at the concat zero point.
        packed_branches_.push_back(pack_q8_layer(b.weight, b.bias, b.kernel * b.in_channels,
                                                 b.out_channels, b.requant,
                                                 concat_q_.zero_point, concat_q_.zero_point));
        const std::size_t conv_time = time_steps_ - b.kernel + 1;
        // +1: with an odd kernel×cin the vector tiers read one padding tap
        // past the last row's patch.
        patch_elems_ = std::max(patch_elems_, time_steps_ * b.in_channels + 1);
        conv_elems_ = std::max(conv_elems_, conv_time * q8_row_width(b.out_channels));
        concat_width += (conv_time / b.pool) * b.out_channels;
    }
    concat_stride_ = q8_row_width(concat_width);
    for (const q_dense& d : trunk_) {
        const std::int32_t clamp_min = d.relu ? d.output_q.zero_point : -128;
        packed_trunk_.push_back(pack_q8_layer(d.weight, d.bias, d.in_features, d.out_features,
                                              d.requant, d.output_q.zero_point, clamp_min));
        hidden_stride_ = std::max(hidden_stride_, q8_row_width(d.out_features));
    }
    chunk_elems_ = patch_elems_ + conv_elems_ +
                   k_batch_grain * (concat_stride_ + 2 * hidden_stride_);
}

float quantized_cnn::predict_logit(std::span<const float> segment) const {
    FS_ARG_CHECK(segment.size() == time_steps_ * input_channels_,
                 "segment size mismatch");
    batch_inference_scratch scratch;
    float logit = 0.0f;
    run_batch(segment.data(), 1, &logit, scratch);
    return logit;
}

float quantized_cnn::predict_proba(std::span<const float> segment) const {
    return nn::sigmoid_scalar(predict_logit(segment));
}

void quantized_cnn::predict_proba_batch(std::span<const float> segments, std::size_t count,
                                        std::span<float> out) const {
    batch_inference_scratch scratch;
    predict_proba_batch(segments, count, out, scratch);
}

void quantized_cnn::predict_proba_batch(std::span<const float> segments, std::size_t count,
                                        std::span<float> out,
                                        batch_inference_scratch& scratch) const {
    FS_ARG_CHECK(segments.size() == count * time_steps_ * input_channels_,
                 "batch segment buffer size mismatch");
    FS_ARG_CHECK(out.size() == count, "batch output size mismatch");
    run_batch(segments.data(), count, out.data(), scratch);
    for (float& p : out) p = nn::sigmoid_scalar(p);
}

void quantized_cnn::run_batch(const float* segments, std::size_t count, float* logits,
                              batch_inference_scratch& scratch) const {
    if (count == 0) return;
    obs::add_counter("quant/inferences", count);
    const std::size_t elems = time_steps_ * input_channels_;
    const std::size_t chunk_count = (count + k_batch_grain - 1) / k_batch_grain;
    if (scratch.qinput.size() < count * elems) scratch.qinput.resize(count * elems);
    if (scratch.arena.size() < chunk_count * chunk_elems_) {
        scratch.arena.resize(chunk_count * chunk_elems_);
    }
    // Single-reference capture keeps the dispatch closure inside the
    // std::function small-buffer store — no per-batch heap allocation.
    struct dispatch_ctx {
        const quantized_cnn* self;
        const float* segments;
        float* logits;
        std::size_t elems;
        std::int8_t* qinput;
        std::int16_t* arena;
    } ctx{this, segments, logits, elems, scratch.qinput.data(), scratch.arena.data()};
    util::parallel_for_chunks(
        0, count, k_batch_grain, [&ctx](std::size_t c, std::size_t lo, std::size_t hi) {
            ctx.self->run_chunk(ctx.segments + lo * ctx.elems, hi - lo, ctx.logits + lo,
                                ctx.qinput + lo * ctx.elems,
                                ctx.arena + c * ctx.self->chunk_elems_);
        });
}

void quantized_cnn::run_chunk(const float* segments, std::size_t count, float* logits,
                              std::int8_t* qinput, std::int16_t* arena) const {
    const q8_kernels& kernels = q8_kernels_for(nn::active_simd_backend());
    const std::size_t elems = time_steps_ * input_channels_;
    std::int16_t* const patch = arena;
    std::int16_t* const conv = patch + patch_elems_;
    std::int16_t* const concat = conv + conv_elems_;
    std::int16_t* const act_a = concat + k_batch_grain * concat_stride_;
    std::int16_t* const act_b = act_a + k_batch_grain * hidden_stride_;

    // Quantize: the chunk's whole input in one vector pass.
    kernels.quantize(segments, count * elems, input_q_, qinput);

    // Branches: per window, gather each branch's channels into a [time,
    // cin] patch of (x - zp), run the conv as a GEMM whose rows are the
    // overlapping kernel×cin windows of that patch, and max-pool straight
    // into the window's concat row.
    for (std::size_t w = 0; w < count; ++w) {
        const std::int8_t* x = qinput + w * elems;
        std::int16_t* row = concat + w * concat_stride_;
        std::size_t channel_base = 0;
        for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
            const q_conv_branch& b = branches_[bi];
            const std::size_t cin = b.in_channels;
            std::int16_t* p = patch;
            for (std::size_t t = 0; t < time_steps_; ++t) {
                for (std::size_t ch = 0; ch < cin; ++ch) {
                    *p++ = static_cast<std::int16_t>(x[t * input_channels_ + channel_base + ch] -
                                                     input_q_.zero_point);
                }
            }
            std::fill(p, patch + patch_elems_, std::int16_t{0});
            const std::size_t conv_time = time_steps_ - b.kernel + 1;
            const std::size_t ldc = q8_row_width(b.out_channels);
            kernels.gemm({conv_time, patch, cin, b.weight.data(), &packed_branches_[bi], conv, ldc});
            const std::size_t pooled_time = conv_time / b.pool;
            for (std::size_t t = 0; t < pooled_time; ++t) {
                const std::int16_t* src = conv + t * b.pool * ldc;
                for (std::size_t o = 0; o < b.out_channels; ++o) {
                    std::int16_t best = src[o];
                    for (std::size_t k = 1; k < b.pool; ++k) best = std::max(best, src[k * ldc + o]);
                    *row++ = best;
                }
            }
            channel_base += cin;
        }
        std::fill(row, concat + (w + 1) * concat_stride_, std::int16_t{0});
    }

    // Trunk: one batch GEMM per dense layer, ping-ponging the act buffers.
    const std::int16_t* a = concat;
    std::size_t lda = concat_stride_;
    std::int16_t* next = act_a;
    for (std::size_t li = 0; li < trunk_.size(); ++li) {
        kernels.gemm({count, a, lda, trunk_[li].weight.data(), &packed_trunk_[li], next,
                      hidden_stride_});
        a = next;
        lda = hidden_stride_;
        next = (next == act_a) ? act_b : act_a;
    }
    const float logit_scale = trunk_.back().output_q.scale;
    for (std::size_t w = 0; w < count; ++w) {
        // dequantize_value: scale · (q - zp), and the trunk rows hold q - zp.
        logits[w] = logit_scale * static_cast<float>(a[w * lda]);
    }
}

std::size_t quantized_cnn::weight_bytes() const {
    std::size_t bytes = 0;
    for (const q_conv_branch& b : branches_) bytes += b.weight.size();
    for (const q_dense& d : trunk_) bytes += d.weight.size();
    return bytes;
}

std::size_t quantized_cnn::bias_bytes() const {
    std::size_t bytes = 0;
    for (const q_conv_branch& b : branches_) bytes += b.bias.size() * sizeof(std::int32_t);
    for (const q_dense& d : trunk_) bytes += d.bias.size() * sizeof(std::int32_t);
    return bytes;
}

std::size_t quantized_cnn::activation_arena_bytes() const {
    // Live at once: the quantized input, the widest branch conv output, and
    // the growing concat buffer; later the dense ping-pong buffers.
    const std::size_t input_bytes = time_steps_ * input_channels_;
    std::size_t max_conv = 0;
    std::size_t concat_width = 0;
    for (const q_conv_branch& b : branches_) {
        const std::size_t conv_time = time_steps_ - b.kernel + 1;
        max_conv = std::max(max_conv, conv_time * b.out_channels);
        concat_width += (conv_time / b.pool) * b.out_channels;
    }
    const std::size_t branch_stage = input_bytes + max_conv + concat_width;
    std::size_t dense_stage = 0;
    std::size_t prev = concat_width;
    for (const q_dense& d : trunk_) {
        dense_stage = std::max(dense_stage, prev + d.out_features);
        prev = d.out_features;
    }
    return std::max(branch_stage, dense_stage);
}

op_counts quantized_cnn::count_ops() const {
    op_counts counts;
    for (const q_conv_branch& b : branches_) {
        const std::size_t conv_time = time_steps_ - b.kernel + 1;
        counts.macs += static_cast<std::uint64_t>(conv_time) * b.out_channels * b.kernel *
                       b.in_channels;
        counts.requants += static_cast<std::uint64_t>(conv_time) * b.out_channels;
        const std::size_t pooled_time = conv_time / b.pool;
        counts.pool_compares +=
            static_cast<std::uint64_t>(pooled_time) * b.out_channels * (b.pool - 1);
    }
    for (const q_dense& d : trunk_) {
        counts.macs += static_cast<std::uint64_t>(d.in_features) * d.out_features;
        counts.requants += d.out_features;
    }
    return counts;
}

}  // namespace fallsense::quant
