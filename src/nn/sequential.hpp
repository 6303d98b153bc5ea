// Linear stack of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace fallsense::nn {

class sequential : public model {
public:
    sequential() = default;

    /// Append a layer (takes ownership). Returns *this for chaining.
    sequential& add(layer_ptr new_layer);

    /// Construct-in-place convenience: seq.emplace<dense>(...).
    template <typename L, typename... Args>
    L& emplace(Args&&... args) {
        auto owned = std::make_unique<L>(std::forward<Args>(args)...);
        L& ref = *owned;
        add(std::move(owned));
        return ref;
    }

    tensor forward(const tensor& input, bool training) override;
    tensor backward(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override;
    std::string summary() const override;
    shape_t output_shape(const shape_t& input_shape) const override;
    std::unique_ptr<model> clone() const override { return clone_stack(); }
    /// clone() with the concrete type (unique_ptr return types cannot be
    /// covariant) — multi_branch_network clones its branches through this.
    std::unique_ptr<sequential> clone_stack() const;

    std::size_t layer_count() const { return layers_.size(); }
    layer& layer_at(std::size_t i);
    const layer& layer_at(std::size_t i) const;

    std::size_t infer_workspace_bytes(const shape_t& row_shape, std::size_t batch) override;
    void forward_into(std::span<const float> input, const shape_t& row_shape,
                      std::size_t batch, std::span<float> workspace,
                      std::span<float> out) override;

private:
    /// Arena layout for the allocation-free forward path: two ping-pong
    /// activation buffers (each batch-capacity × widest stage volume) plus
    /// the widest single layer workspace, shared by every layer in turn.
    /// Cached keyed on (row_shape, batch high-water mark): growing the
    /// batch re-plans once, shrinking it reuses the larger arena.
    ///
    /// A Conv1D/Dense layer followed by a ReLU or sigmoid records that
    /// activation in `fused[i]` and the activation layer itself is marked
    /// `skip` — a plan-time no-op whose work happens inside the producer's
    /// kernel epilogue, bit-identical to running the two layers in turn.
    /// Activation shapes are identity, so stage_shapes is unaffected.
    struct infer_plan {
        shape_t row_shape;
        std::size_t batch_capacity = 0;
        std::vector<shape_t> stage_shapes;  ///< per-sample shape before each layer + final
        std::vector<fused_act> fused;       ///< epilogue layer i runs fused (none: unfused)
        std::vector<char> skip;             ///< layer i absorbed into its predecessor
        std::size_t ping_floats = 0;        ///< one activation buffer
        std::size_t scratch_floats = 0;     ///< widest layer workspace
    };
    const infer_plan& ensure_plan(const shape_t& row_shape, std::size_t batch);

    std::vector<layer_ptr> layers_;
    infer_plan plan_;
};

}  // namespace fallsense::nn
