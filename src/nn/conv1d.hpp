// Temporal convolution over [batch, time, channels] with valid padding and
// stride 1 — the convolution each branch of the paper's CNN applies to its
// [n x 3] motion-feature matrix.  Training forward and backward run
// through the im2col + GEMM kernels in nn/gemm.hpp; inference
// (forward_into) is a direct conv through the same register tile, with no
// im2col buffer (see docs/performance.md for the layout and determinism
// contract).
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace fallsense::nn {

class conv1d : public layer {
public:
    conv1d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
           util::rng& gen, std::string name = "conv1d");

    tensor forward(const tensor& input, bool training) override;
    tensor backward(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override { return {&weight_, &bias_}; }
    layer_kind kind() const override { return layer_kind::conv1d; }
    layer_ptr clone() const override {
        util::rng gen(0);  // init values are overwritten below
        auto copy = std::make_unique<conv1d>(in_ch_, out_ch_, kernel_, gen);
        copy->weight_ = weight_;
        copy->bias_ = bias_;
        return copy;
    }
    std::string describe() const override;
    shape_t output_shape(const shape_t& input_shape) const override;
    void forward_into(std::span<const float> in, const shape_t& input_shape,
                      std::size_t batch, std::span<float> workspace,
                      std::span<float> out) override;
    bool can_fuse(fused_act) const override { return true; }
    void forward_into_fused(std::span<const float> in, const shape_t& input_shape,
                            std::size_t batch, std::span<float> workspace,
                            std::span<float> out, fused_act act) override;

    std::size_t in_channels() const { return in_ch_; }
    std::size_t out_channels() const { return out_ch_; }
    std::size_t kernel_size() const { return kernel_; }
    parameter& weight() { return weight_; }
    parameter& bias() { return bias_; }
    const parameter& weight() const { return weight_; }
    const parameter& bias() const { return bias_; }

private:
    std::size_t in_ch_;
    std::size_t out_ch_;
    std::size_t kernel_;
    parameter weight_;  ///< [kernel, in_channels, out_channels]
    parameter bias_;    ///< [out_channels]
    tensor input_cache_;
    std::vector<float> col_cache_;    ///< im2col of the last forward input, for backward
    std::vector<float> gcol_scratch_; ///< column-space gradient scratch
    std::vector<float> wt_scratch_;   ///< transposed weights for backward
};

}  // namespace fallsense::nn
