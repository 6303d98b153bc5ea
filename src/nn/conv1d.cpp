#include "nn/conv1d.hpp"

#include <sstream>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "util/check.hpp"

namespace fallsense::nn {

conv1d::conv1d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
               util::rng& gen, std::string name)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel_size),
      weight_(name + ".weight", {kernel_size, in_channels, out_channels}),
      bias_(name + ".bias", {out_channels}) {
    FS_ARG_CHECK(in_channels > 0 && out_channels > 0 && kernel_size > 0,
                 "conv1d with zero-sized configuration");
    he_normal(weight_.value, kernel_ * in_ch_, gen);
}

tensor conv1d::forward(const tensor& input, bool /*training*/) {
    FS_ARG_CHECK(input.rank() == 3, "conv1d expects [batch, time, channels], got " +
                                        shape_to_string(input.shape()));
    FS_ARG_CHECK(input.dim(2) == in_ch_, "conv1d input channel mismatch");
    const std::size_t batch = input.dim(0);
    const std::size_t time = input.dim(1);
    FS_ARG_CHECK(time >= kernel_, "conv1d input shorter than kernel");
    const std::size_t out_time = time - kernel_ + 1;
    input_cache_ = input;

    // Lower to GEMM: col [rows x kernel·in_ch] times the weight tensor,
    // whose [kernel, in_ch, out_ch] layout flattens to exactly the matrix
    // the product needs.  The col buffer persists for backward.
    const std::size_t rows = batch * out_time;
    const std::size_t patch = kernel_ * in_ch_;
    col_cache_.resize(rows * patch);
    im2col(input.data(), batch, time, in_ch_, kernel_, col_cache_.data());

    // Bias seeding is fused into the GEMM row tasks (per element the same
    // seed-then-accumulate sequence the old separate prefill pass ran).
    tensor out({batch, out_time, out_ch_});
    gemm_nn_bias_act(rows, out_ch_, patch, col_cache_.data(), weight_.value.data(),
                     bias_.value.data(), fused_act::none, out.data());
    return out;
}

void conv1d::forward_into(std::span<const float> in, const shape_t& input_shape,
                          std::size_t batch, std::span<float> workspace,
                          std::span<float> out) {
    forward_into_fused(in, input_shape, batch, workspace, out, fused_act::none);
}

void conv1d::forward_into_fused(std::span<const float> in, const shape_t& input_shape,
                                std::size_t batch, std::span<float> /*workspace*/,
                                std::span<float> out, fused_act act) {
    FS_ARG_CHECK(input_shape.size() == 2 && input_shape[1] == in_ch_ &&
                     input_shape[0] >= kernel_,
                 "conv1d forward_into: bad input shape");
    const std::size_t time = input_shape[0];
    const std::size_t out_time = time - kernel_ + 1;
    FS_ARG_CHECK(in.size() >= batch * time * in_ch_ && out.size() >= batch * out_time * out_ch_,
                 "conv1d forward_into: buffer too small");
    // Same per-element math as forward, as a direct conv: the tiles read
    // the input in place (no im2col buffer) and run the bias seed and any
    // fused activation in registers.
    conv1d_direct(batch, {.x = in.data(),
                          .x_window_stride = time * in_ch_,
                          .x_row_stride = in_ch_,
                          .time = time,
                          .in_ch = in_ch_,
                          .kernel = kernel_,
                          .out_ch = out_ch_,
                          .weight = weight_.value.data(),
                          .bias = bias_.value.data(),
                          .act = act,
                          .pool = 1,
                          .y = out.data(),
                          .y_window_stride = out_time * out_ch_});
}

tensor conv1d::backward(const tensor& grad_output) {
    FS_CHECK(!input_cache_.empty(), "conv1d backward before forward");
    const std::size_t batch = input_cache_.dim(0);
    const std::size_t time = input_cache_.dim(1);
    const std::size_t out_time = time - kernel_ + 1;
    FS_ARG_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch &&
                     grad_output.dim(1) == out_time && grad_output.dim(2) == out_ch_,
                 "conv1d grad_output shape mismatch");
    FS_CHECK(col_cache_.size() == batch * out_time * kernel_ * in_ch_,
             "conv1d backward col cache out of date");

    const std::size_t rows = batch * out_time;
    const std::size_t patch = kernel_ * in_ch_;
    const float* gy = grad_output.data();

    // Bias gradient: serial over rows, matching the legacy accumulation order.
    float* gb = bias_.grad.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const float* gyr = gy + r * out_ch_;
        for (std::size_t o = 0; o < out_ch_; ++o) gb[o] += gyr[o];
    }

    // Weight gradient: colᵀ · gy with the deterministic chunked reduction.
    gemm_tn_acc(patch, out_ch_, rows, col_cache_.data(), gy, weight_.grad.data());

    // Input gradient: gcol = gy · Wᵀ, then scatter back through col2im.
    // wt_scratch_ grows once to out_ch·patch and is reused every step.
    wt_scratch_.resize(out_ch_ * patch);
    transpose(patch, out_ch_, weight_.value.data(), wt_scratch_.data());
    gcol_scratch_.resize(rows * patch);
    gemm_nn(rows, patch, out_ch_, gy, wt_scratch_.data(), gcol_scratch_.data(),
            /*accumulate=*/false);

    tensor grad_input({batch, time, in_ch_});
    col2im_acc(gcol_scratch_.data(), batch, time, in_ch_, kernel_, grad_input.data());
    return grad_input;
}

std::string conv1d::describe() const {
    std::ostringstream os;
    os << "conv1d(" << in_ch_ << " -> " << out_ch_ << ", k=" << kernel_ << ", valid)";
    return os.str();
}

shape_t conv1d::output_shape(const shape_t& input_shape) const {
    FS_ARG_CHECK(input_shape.size() == 2, "conv1d output_shape expects [time, channels]");
    FS_ARG_CHECK(input_shape[1] == in_ch_, "conv1d output_shape channel mismatch");
    FS_ARG_CHECK(input_shape[0] >= kernel_, "conv1d output_shape: time < kernel");
    return {input_shape[0] - kernel_ + 1, out_ch_};
}

}  // namespace fallsense::nn
