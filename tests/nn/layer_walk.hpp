// Test helper shared by the executor tests: run a sequential stack one
// layer at a time through each layer's own forward_into — no plan, so no
// fused epilogue and no skipped activation layer.  The planned inference
// paths must match it bit for bit.
#pragma once

#include <algorithm>
#include <vector>

#include "nn/sequential.hpp"

namespace fallsense::nn {

inline std::vector<float> walk_layers(sequential& stack, std::vector<float> act, shape_t shape,
                                      std::size_t batch) {
    for (std::size_t i = 0; i < stack.layer_count(); ++i) {
        layer& l = stack.layer_at(i);
        const shape_t out_shape = l.output_shape(shape);
        std::vector<float> next(batch * shape_volume(out_shape));
        std::vector<float> ws(
            std::max<std::size_t>(1, (l.infer_workspace_bytes(shape, batch) + 3) / 4));
        l.forward_into(act, shape, batch, ws, next);
        act.swap(next);
        shape = out_shape;
    }
    return act;
}

}  // namespace fallsense::nn
