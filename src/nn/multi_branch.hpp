// The paper's multi-branch topology: split the [batch, time, channels] input
// into per-modality channel groups, run each group through its own branch,
// concatenate the flattened branch outputs, and feed a shared trunk.
//
// For the fallsense CNN: channels = 9, three groups of 3 (accelerometer,
// gyroscope, Euler angles); each branch is Conv1D -> ReLU -> MaxPool1D ->
// Flatten; the trunk is Dense(64) -> ReLU -> Dense(32) -> ReLU -> Dense(1).
// Inference runs each such branch as one direct conv with ReLU and pooling
// in registers, reading the window in place and writing into the concat row
// (nn/gemm.hpp conv1d_direct); the result is bit-identical to the
// layer-by-layer walk.
#pragma once

#include <memory>
#include <vector>

#include "nn/sequential.hpp"

namespace fallsense::nn {

class conv1d;

class multi_branch_network : public model {
public:
    /// `group_channels` — channel count handled by each branch, in input
    /// channel order; the sum must equal the input's channel dimension.
    multi_branch_network(std::vector<std::size_t> group_channels,
                         std::vector<std::unique_ptr<sequential>> branches,
                         std::unique_ptr<sequential> trunk);

    tensor forward(const tensor& input, bool training) override;
    tensor backward(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override;
    std::string summary() const override;
    shape_t output_shape(const shape_t& input_shape) const override;
    std::unique_ptr<model> clone() const override;

    std::size_t branch_count() const { return branches_.size(); }
    sequential& branch(std::size_t i);
    const sequential& branch(std::size_t i) const;
    sequential& trunk() { return *trunk_; }
    const sequential& trunk() const { return *trunk_; }
    const std::vector<std::size_t>& group_channels() const { return group_channels_; }

    std::size_t infer_workspace_bytes(const shape_t& row_shape, std::size_t batch) override;
    void forward_into(std::span<const float> input, const shape_t& row_shape,
                      std::size_t batch, std::span<float> workspace,
                      std::span<float> out) override;

private:
    /// A branch the plan runs as one conv1d_direct call: Conv1D, then an
    /// optional ReLU, an optional MaxPool1D of size 1 or 2, and Flatten.
    /// The conv reads its channel group of the window in place and writes
    /// its pooled rows straight into the concat row.
    struct direct_branch {
        const conv1d* conv = nullptr;  ///< null: run the branch layer by layer
        fused_act act = fused_act::none;
        std::size_t pool = 1;
    };
    static direct_branch match_direct(const sequential& branch);

    /// Arena layout for the allocation-free forward path:
    ///   [ concat | slice | branch_out | branch workspace ]
    /// with the trunk workspace overlapping the slice/branch region (the
    /// branches are done before the trunk runs).  Direct branches need no
    /// slice, branch_out or workspace; when every branch is direct the
    /// region is the trunk's arena alone.  Cached keyed on (row_shape,
    /// batch high-water mark) like sequential's plan.
    struct infer_plan {
        shape_t row_shape;
        std::size_t batch_capacity = 0;
        std::vector<direct_branch> direct;   ///< per branch; conv null: layer walk
        std::vector<std::size_t> widths;     ///< flattened width per branch
        std::vector<shape_t> branch_shapes;  ///< {time, group} per branch (no per-call temporaries)
        shape_t trunk_shape;                 ///< {concat_width}
        std::size_t concat_width = 0;
        std::size_t concat_floats = 0;       ///< capacity × concat_width
        std::size_t slice_floats = 0;        ///< capacity × time × widest group
        std::size_t branch_out_floats = 0;   ///< capacity × widest branch width
        std::size_t branch_ws_floats = 0;    ///< widest branch arena
        std::size_t region_floats = 0;       ///< max(slice+out+branch_ws, trunk arena)
    };
    const infer_plan& ensure_plan(const shape_t& row_shape, std::size_t batch);

    std::vector<std::size_t> group_channels_;
    std::vector<std::unique_ptr<sequential>> branches_;
    std::unique_ptr<sequential> trunk_;
    infer_plan plan_;

    // Forward caches for backward.
    shape_t input_shape_cache_;
    std::vector<std::size_t> branch_widths_;  ///< flattened width of each branch output
    std::vector<tensor> branch_outputs_;      ///< reused across training steps
};

}  // namespace fallsense::nn
