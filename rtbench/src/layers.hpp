// Per-layer replay of the float CNN and the paper's STM32F722 split.
#pragma once

#include <vector>

#include "common.hpp"
#include "gate.hpp"

namespace rtbench {

/// Replay captured score batches through the scorer's model: once as the
/// whole allocation-free forward (span nn.forward) and once layer by layer
/// through branch(i).layer_at(j) / trunk().layer_at(j) forward_into, with
/// one nn.layer.<name> span per layer call (conv, relu, pool, dense64,
/// dense32, dense1, sigmoid).  Channel slicing, flatten and concatenation
/// are left unspanned: they are the glue.  Both replays must reproduce the
/// captured scores bit for bit, or a failure is recorded.
void replay_layers(const std::vector<bench_scorer::batch>& batches,
                   const fallsense::serve::scorer_spec& spec, report& out);

/// The src/mcu Cortex-M7 model's fusion and inference estimates for one
/// window of the same CNN, quantized against the captured windows; adds
/// mcu.fusion_ms and mcu.inference_ms to out.trace_values.
void add_mcu_split(const std::vector<bench_scorer::batch>& batches,
                   const fallsense::serve::scorer_spec& spec, report& out);

}  // namespace rtbench
