#include "nn/multi_branch.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "nn/conv1d.hpp"
#include "nn/gemm.hpp"
#include "nn/pooling.hpp"
#include "util/check.hpp"

namespace fallsense::nn {

multi_branch_network::multi_branch_network(std::vector<std::size_t> group_channels,
                                           std::vector<std::unique_ptr<sequential>> branches,
                                           std::unique_ptr<sequential> trunk)
    : group_channels_(std::move(group_channels)),
      branches_(std::move(branches)),
      trunk_(std::move(trunk)) {
    FS_ARG_CHECK(!branches_.empty(), "multi_branch_network needs at least one branch");
    FS_ARG_CHECK(branches_.size() == group_channels_.size(),
                 "multi_branch_network branch/group count mismatch");
    FS_ARG_CHECK(trunk_ != nullptr, "multi_branch_network needs a trunk");
    for (const auto& b : branches_) FS_ARG_CHECK(b != nullptr, "null branch");
    for (const std::size_t g : group_channels_) FS_ARG_CHECK(g > 0, "empty channel group");
}

tensor multi_branch_network::forward(const tensor& input, bool training) {
    FS_ARG_CHECK(input.rank() == 3, "multi_branch expects [batch, time, channels], got " +
                                        shape_to_string(input.shape()));
    const std::size_t batch = input.dim(0);
    const std::size_t time = input.dim(1);
    const std::size_t channels = input.dim(2);
    const std::size_t total_group =
        std::accumulate(group_channels_.begin(), group_channels_.end(), std::size_t{0});
    FS_ARG_CHECK(channels == total_group, "multi_branch channel-group sum mismatch");
    input_shape_cache_ = input.shape();

    // Split channels, run branches, record flattened widths.  The output
    // list is a member so steady-state training steps reuse its capacity
    // (the tensors inside recycle through the buffer pool).
    std::vector<tensor>& branch_outputs = branch_outputs_;
    branch_outputs.clear();
    branch_outputs.reserve(branches_.size());
    branch_widths_.clear();
    std::size_t channel_base = 0;
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        const std::size_t group = group_channels_[bi];
        tensor slice({batch, time, group});
        for (std::size_t n = 0; n < batch; ++n) {
            for (std::size_t t = 0; t < time; ++t) {
                const float* src = input.data() + (n * time + t) * channels + channel_base;
                float* dst = slice.data() + (n * time + t) * group;
                std::copy(src, src + group, dst);
            }
        }
        channel_base += group;
        tensor out = branches_[bi]->forward(slice, training);
        FS_ARG_CHECK(out.rank() == 2 && out.dim(0) == batch,
                     "branch output must be [batch, features] — add a flatten layer");
        branch_widths_.push_back(out.dim(1));
        branch_outputs.push_back(std::move(out));
    }

    // Concatenate along the feature axis.
    const std::size_t concat_width =
        std::accumulate(branch_widths_.begin(), branch_widths_.end(), std::size_t{0});
    tensor concat({batch, concat_width});
    std::size_t feature_base = 0;
    for (std::size_t bi = 0; bi < branch_outputs.size(); ++bi) {
        const std::size_t width = branch_widths_[bi];
        for (std::size_t n = 0; n < batch; ++n) {
            const float* src = branch_outputs[bi].data() + n * width;
            float* dst = concat.data() + n * concat_width + feature_base;
            std::copy(src, src + width, dst);
        }
        feature_base += width;
    }
    return trunk_->forward(concat, training);
}

tensor multi_branch_network::backward(const tensor& grad_output) {
    FS_CHECK(!input_shape_cache_.empty(), "multi_branch backward before forward");
    const std::size_t batch = input_shape_cache_[0];
    const std::size_t time = input_shape_cache_[1];
    const std::size_t channels = input_shape_cache_[2];

    const tensor grad_concat = trunk_->backward(grad_output);
    const std::size_t concat_width = grad_concat.dim(1);

    tensor grad_input({batch, time, channels});
    std::size_t feature_base = 0;
    std::size_t channel_base = 0;
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        const std::size_t width = branch_widths_[bi];
        tensor grad_branch({batch, width});
        for (std::size_t n = 0; n < batch; ++n) {
            const float* src = grad_concat.data() + n * concat_width + feature_base;
            std::copy(src, src + width, grad_branch.data() + n * width);
        }
        const tensor grad_slice = branches_[bi]->backward(grad_branch);
        const std::size_t group = group_channels_[bi];
        for (std::size_t n = 0; n < batch; ++n) {
            for (std::size_t t = 0; t < time; ++t) {
                const float* src = grad_slice.data() + (n * time + t) * group;
                float* dst = grad_input.data() + (n * time + t) * channels + channel_base;
                std::copy(src, src + group, dst);
            }
        }
        feature_base += width;
        channel_base += group;
    }
    return grad_input;
}

multi_branch_network::direct_branch multi_branch_network::match_direct(
    const sequential& branch) {
    direct_branch d;
    const std::size_t count = branch.layer_count();
    if (count < 2 || branch.layer_at(0).kind() != layer_kind::conv1d ||
        branch.layer_at(count - 1).kind() != layer_kind::flatten) {
        return {};
    }
    std::size_t i = 1;
    if (i + 1 < count && branch.layer_at(i).kind() == layer_kind::relu) {
        d.act = fused_act::relu;
        ++i;
    }
    if (i + 1 < count && branch.layer_at(i).kind() == layer_kind::maxpool1d) {
        d.pool = static_cast<const maxpool1d&>(branch.layer_at(i)).pool_size();
        ++i;
    }
    if (i + 1 != count || d.pool > 2) return {};
    d.conv = &static_cast<const conv1d&>(branch.layer_at(0));
    return d;
}

const multi_branch_network::infer_plan& multi_branch_network::ensure_plan(
    const shape_t& row_shape, std::size_t batch) {
    if (batch <= plan_.batch_capacity && row_shape == plan_.row_shape &&
        plan_.widths.size() == branches_.size()) {
        return plan_;
    }
    FS_ARG_CHECK(row_shape.size() == 2, "multi_branch forward_into expects [time, channels]");
    const std::size_t time = row_shape[0];
    const std::size_t total_group =
        std::accumulate(group_channels_.begin(), group_channels_.end(), std::size_t{0});
    FS_ARG_CHECK(row_shape[1] == total_group, "multi_branch channel-group sum mismatch");

    const std::size_t capacity = std::max(batch, plan_.batch_capacity);
    plan_.row_shape = row_shape;
    plan_.batch_capacity = capacity;
    plan_.widths.clear();
    plan_.branch_shapes.clear();
    plan_.direct.assign(branches_.size(), direct_branch{});
    std::size_t max_group = 0;
    std::size_t max_width = 0;
    std::size_t branch_ws = 0;
    std::size_t concat_width = 0;
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        const std::size_t group = group_channels_[bi];
        const shape_t branch_shape{time, group};
        const std::size_t width = shape_volume(branches_[bi]->output_shape(branch_shape));
        plan_.widths.push_back(width);
        plan_.branch_shapes.push_back(branch_shape);
        concat_width += width;
        plan_.direct[bi] = match_direct(*branches_[bi]);
        if (plan_.direct[bi].conv != nullptr) {
            continue;  // reads the window in place: no slice or branch arena
        }
        max_group = std::max(max_group, group);
        max_width = std::max(max_width, width);
        const std::size_t bytes = branches_[bi]->infer_workspace_bytes(branch_shape, capacity);
        branch_ws = std::max(branch_ws, (bytes + sizeof(float) - 1) / sizeof(float));
    }
    plan_.concat_width = concat_width;
    plan_.trunk_shape = {concat_width};
    plan_.concat_floats = capacity * concat_width;
    plan_.slice_floats = capacity * time * max_group;
    plan_.branch_out_floats = capacity * max_width;
    plan_.branch_ws_floats = branch_ws;
    const std::size_t trunk_bytes = trunk_->infer_workspace_bytes({concat_width}, capacity);
    const std::size_t trunk_floats = (trunk_bytes + sizeof(float) - 1) / sizeof(float);
    plan_.region_floats = std::max(
        plan_.slice_floats + plan_.branch_out_floats + plan_.branch_ws_floats, trunk_floats);
    return plan_;
}

std::size_t multi_branch_network::infer_workspace_bytes(const shape_t& row_shape,
                                                        std::size_t batch) {
    const infer_plan& plan = ensure_plan(row_shape, batch);
    return (plan.concat_floats + plan.region_floats) * sizeof(float);
}

void multi_branch_network::forward_into(std::span<const float> input,
                                        const shape_t& row_shape, std::size_t batch,
                                        std::span<float> workspace, std::span<float> out) {
    const infer_plan& plan = ensure_plan(row_shape, batch);
    const std::size_t time = row_shape[0];
    const std::size_t channels = row_shape[1];
    FS_ARG_CHECK(input.size() >= batch * time * channels,
                 "multi_branch forward_into: input too small");
    FS_ARG_CHECK(workspace.size() >= plan.concat_floats + plan.region_floats,
                 "multi_branch forward_into: workspace too small");
    float* const concat = workspace.data();
    float* const slice = concat + plan.concat_floats;
    float* const branch_out = slice + plan.slice_floats;
    const std::span<float> branch_ws(branch_out + plan.branch_out_floats,
                                     plan.branch_ws_floats);

    // Same data flow as forward — slice channels, run branches, scatter
    // into the concat rows — out of fixed arena regions.  A direct branch
    // does all three in one conv1d_direct call.
    std::size_t channel_base = 0;
    std::size_t feature_base = 0;
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        const std::size_t group = group_channels_[bi];
        const std::size_t width = plan.widths[bi];
        if (const direct_branch& d = plan.direct[bi]; d.conv != nullptr) {
            conv1d_direct(batch, {.x = input.data() + channel_base,
                                  .x_window_stride = time * channels,
                                  .x_row_stride = channels,
                                  .time = time,
                                  .in_ch = group,
                                  .kernel = d.conv->kernel_size(),
                                  .out_ch = d.conv->out_channels(),
                                  .weight = d.conv->weight().value.data(),
                                  .bias = d.conv->bias().value.data(),
                                  .act = d.act,
                                  .pool = d.pool,
                                  .y = concat + feature_base,
                                  .y_window_stride = plan.concat_width});
            channel_base += group;
            feature_base += width;
            continue;
        }
        for (std::size_t n = 0; n < batch; ++n) {
            for (std::size_t t = 0; t < time; ++t) {
                const float* src = input.data() + (n * time + t) * channels + channel_base;
                std::copy(src, src + group, slice + (n * time + t) * group);
            }
        }
        branches_[bi]->forward_into(std::span<const float>(slice, batch * time * group),
                                    plan.branch_shapes[bi], batch, branch_ws,
                                    std::span<float>(branch_out, batch * width));
        for (std::size_t n = 0; n < batch; ++n) {
            const float* src = branch_out + n * width;
            std::copy(src, src + width, concat + n * plan.concat_width + feature_base);
        }
        channel_base += group;
        feature_base += width;
    }
    // The branches are done: the trunk may reuse their arena region.
    trunk_->forward_into(std::span<const float>(concat, batch * plan.concat_width),
                         plan.trunk_shape, batch,
                         std::span<float>(slice, plan.region_floats), out);
}

std::unique_ptr<model> multi_branch_network::clone() const {
    std::vector<std::unique_ptr<sequential>> branches;
    branches.reserve(branches_.size());
    for (const auto& b : branches_) branches.push_back(b->clone_stack());
    return std::make_unique<multi_branch_network>(group_channels_, std::move(branches),
                                                  trunk_->clone_stack());
}

sequential& multi_branch_network::branch(std::size_t i) {
    FS_ARG_CHECK(i < branches_.size(), "branch index out of range");
    return *branches_[i];
}

const sequential& multi_branch_network::branch(std::size_t i) const {
    FS_ARG_CHECK(i < branches_.size(), "branch index out of range");
    return *branches_[i];
}

std::vector<parameter*> multi_branch_network::parameters() {
    std::vector<parameter*> params;
    for (const auto& b : branches_) {
        for (parameter* p : b->parameters()) params.push_back(p);
    }
    for (parameter* p : trunk_->parameters()) params.push_back(p);
    return params;
}

std::string multi_branch_network::summary() const {
    std::ostringstream os;
    os << "multi_branch {\n";
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        os << "  branch[" << bi << "] (" << group_channels_[bi] << " ch): "
           << branches_[bi]->summary() << '\n';
    }
    os << "  trunk: " << trunk_->summary() << "\n}";
    return os.str();
}

shape_t multi_branch_network::output_shape(const shape_t& input_shape) const {
    FS_ARG_CHECK(input_shape.size() == 2, "multi_branch output_shape expects [time, channels]");
    std::size_t concat_width = 0;
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
        const shape_t branch_out =
            branches_[bi]->output_shape({input_shape[0], group_channels_[bi]});
        concat_width += shape_volume(branch_out);
    }
    return trunk_->output_shape({concat_width});
}

}  // namespace fallsense::nn
