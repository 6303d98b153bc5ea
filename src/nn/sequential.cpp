#include "nn/sequential.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/check.hpp"

namespace fallsense::nn {

namespace {

/// The fused epilogue a pure activation layer corresponds to, or none for
/// any layer that is not a fusable activation.
fused_act fusable_activation(layer_kind kind) {
    if (kind == layer_kind::relu) return fused_act::relu;
    if (kind == layer_kind::sigmoid) return fused_act::sigmoid;
    return fused_act::none;
}

}  // namespace

sequential& sequential::add(layer_ptr new_layer) {
    FS_ARG_CHECK(new_layer != nullptr, "sequential::add(nullptr)");
    layers_.push_back(std::move(new_layer));
    return *this;
}

tensor sequential::forward(const tensor& input, bool training) {
    tensor current = input;
    for (const auto& l : layers_) current = l->forward(current, training);
    return current;
}

tensor sequential::backward(const tensor& grad_output) {
    tensor grad = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) grad = (*it)->backward(grad);
    return grad;
}

std::vector<parameter*> sequential::parameters() {
    std::vector<parameter*> params;
    for (const auto& l : layers_) {
        for (parameter* p : l->parameters()) params.push_back(p);
    }
    return params;
}

std::string sequential::summary() const {
    std::ostringstream os;
    os << "sequential {\n";
    for (const auto& l : layers_) os << "  " << l->describe() << '\n';
    os << "}";
    return os.str();
}

shape_t sequential::output_shape(const shape_t& input_shape) const {
    shape_t shape = input_shape;
    for (const auto& l : layers_) shape = l->output_shape(shape);
    return shape;
}

const sequential::infer_plan& sequential::ensure_plan(const shape_t& row_shape,
                                                      std::size_t batch) {
    if (batch <= plan_.batch_capacity && row_shape == plan_.row_shape &&
        plan_.stage_shapes.size() == layers_.size() + 1) {
        return plan_;
    }
    const std::size_t capacity = std::max(batch, plan_.batch_capacity);
    plan_.row_shape = row_shape;
    plan_.batch_capacity = capacity;
    plan_.stage_shapes.clear();
    plan_.stage_shapes.push_back(row_shape);
    plan_.fused.assign(layers_.size(), fused_act::none);
    plan_.skip.assign(layers_.size(), 0);
    shape_t shape = row_shape;
    std::size_t max_volume = shape_volume(shape);
    std::size_t scratch = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const layer& l = *layers_[i];
        const std::size_t bytes = l.infer_workspace_bytes(shape, capacity);
        scratch = std::max(scratch, (bytes + sizeof(float) - 1) / sizeof(float));
        shape = l.output_shape(shape);
        plan_.stage_shapes.push_back(shape);
        max_volume = std::max(max_volume, shape_volume(shape));
        if (i + 1 < layers_.size()) {
            const fused_act act = fusable_activation(layers_[i + 1]->kind());
            if (act != fused_act::none && l.can_fuse(act)) {
                plan_.fused[i] = act;
                plan_.skip[i + 1] = 1;
            }
        }
    }
    plan_.ping_floats = capacity * max_volume;
    plan_.scratch_floats = scratch;
    return plan_;
}

std::size_t sequential::infer_workspace_bytes(const shape_t& row_shape, std::size_t batch) {
    const infer_plan& plan = ensure_plan(row_shape, batch);
    return (2 * plan.ping_floats + plan.scratch_floats) * sizeof(float);
}

void sequential::forward_into(std::span<const float> input, const shape_t& row_shape,
                              std::size_t batch, std::span<float> workspace,
                              std::span<float> out) {
    const infer_plan& plan = ensure_plan(row_shape, batch);
    FS_ARG_CHECK(input.size() >= batch * shape_volume(row_shape),
                 "sequential forward_into: input too small");
    FS_ARG_CHECK(workspace.size() >= 2 * plan.ping_floats + plan.scratch_floats,
                 "sequential forward_into: workspace too small");
    float* const ping[2] = {workspace.data(), workspace.data() + plan.ping_floats};
    const std::span<float> scratch =
        workspace.subspan(2 * plan.ping_floats, plan.scratch_floats);

    // Walk the stack through the two activation buffers.  In-place layers
    // rewrite the buffer they are in; the caller's input span is never
    // written, so the first in-place layer still bounces into a buffer.
    const float* cur = input.data();
    int cur_buf = -1;  // -1: still the caller's input
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (plan.skip[i]) continue;  // activation fused into the previous layer
        layer& l = *layers_[i];
        const fused_act act = plan.fused[i];
        const shape_t& in_shape = plan.stage_shapes[i];
        const std::size_t in_count = batch * shape_volume(in_shape);
        const std::size_t out_count = batch * shape_volume(plan.stage_shapes[i + 1]);
        if (l.infer_in_place() && cur_buf >= 0) {
            l.forward_into_fused(std::span<const float>(cur, in_count), in_shape, batch,
                                 scratch, std::span<float>(ping[cur_buf], out_count), act);
        } else {
            const int next_buf = cur_buf == 0 ? 1 : 0;
            l.forward_into_fused(std::span<const float>(cur, in_count), in_shape, batch,
                                 scratch, std::span<float>(ping[next_buf], out_count), act);
            cur_buf = next_buf;
            cur = ping[next_buf];
        }
    }
    const std::size_t final_count = batch * shape_volume(plan.stage_shapes.back());
    FS_ARG_CHECK(out.size() >= final_count, "sequential forward_into: output too small");
    if (out.data() != cur) std::memcpy(out.data(), cur, final_count * sizeof(float));
}

std::unique_ptr<sequential> sequential::clone_stack() const {
    auto copy = std::make_unique<sequential>();
    for (const auto& l : layers_) copy->add(l->clone());
    return copy;
}

layer& sequential::layer_at(std::size_t i) {
    FS_ARG_CHECK(i < layers_.size(), "sequential layer index out of range");
    return *layers_[i];
}

const layer& sequential::layer_at(std::size_t i) const {
    FS_ARG_CHECK(i < layers_.size(), "sequential layer index out of range");
    return *layers_[i];
}

}  // namespace fallsense::nn
