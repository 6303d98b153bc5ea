// Training loop implementing the paper's procedure (Section III-C):
//   - mini-batch Adam on weighted binary cross-entropy,
//   - class weights derived from the label imbalance,
//   - output-layer bias initialized to log(p / (1 - p)) (Eq. 1-2),
//   - up to `max_epochs` epochs with early stopping (patience on validation
//     loss) and restoration of the best-epoch weights.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace fallsense::nn {

/// A supervised batch: `features` is [N, ...] and `labels` has one 0/1
/// entry per leading-dimension row.
struct labeled_data {
    tensor features;
    std::vector<float> labels;

    std::size_t size() const { return labels.size(); }
    /// Fraction of positive (fall) labels.
    double positive_fraction() const;
    void validate() const;  ///< throws unless features rows == labels count
};

/// Select rows of a batched tensor (copies).
tensor gather_rows(const tensor& batched, std::span<const std::size_t> row_indices);

/// gather_rows into a caller-owned tensor: `out` is reshaped only when the
/// selection shape changes, so steady-state training batches reuse its
/// storage and perform no heap allocation.
void gather_rows_into(const tensor& batched, std::span<const std::size_t> row_indices,
                      tensor& out);

struct train_config {
    std::size_t max_epochs = 200;
    std::size_t batch_size = 64;
    double learning_rate = 1e-3;
    std::size_t early_stop_patience = 20;  ///< 0 disables early stopping
    bool use_class_weights = true;
    bool init_output_bias = true;  ///< Eq. (1): b = log(p / (1-p))
    std::uint64_t shuffle_seed = 1;
    bool verbose = false;
    /// Prefix for the metrics this fit emits (obs registry).  Callers that
    /// train several models in one process — parallel folds above all —
    /// give each fit its own prefix so gauges never race across threads.
    std::string metrics_prefix = "train";
};

struct train_history {
    std::vector<double> train_loss;  ///< one entry per completed epoch
    std::vector<double> val_loss;
    std::size_t best_epoch = 0;  ///< epoch index whose weights were restored
    bool stopped_early = false;
    double weight_positive = 1.0;  ///< class weights actually used
    double weight_negative = 1.0;
};

/// Balanced class weights (Keras convention): w_c = N / (2 * N_c).
/// Falls back to 1/1 when a class is absent.
std::pair<double, double> balanced_class_weights(std::span<const float> labels);

/// Snapshot / restore all parameter values (used by early stopping and by
/// tests that need weight rollback).
std::vector<tensor> snapshot_parameters(model& m);
void restore_parameters(model& m, const std::vector<tensor>& snapshot);

class optimizer;

/// Reusable buffers for train_step: the gathered feature batch and its
/// label slice, grown once to the batch-size high-water mark.  Together
/// with the tensor buffer pool and the kernels' thread-local scratch this
/// makes steady-state train steps allocation-free
/// (tests/serve/alloc_test.cpp pins this).
struct train_step_scratch {
    tensor batch;               ///< gathered feature rows
    std::vector<float> labels;  ///< matching label slice
};

/// One optimizer step on the selected rows: gather → forward(training) →
/// weighted BCE → backward → optim.step().  This is the unit `fit` loops
/// over; the whole step runs through the dispatched kernels (gemm_nn /
/// gemm_tn_acc honor the active simd backend), so gradients are
/// bit-identical across FALLSENSE_THREADS per backend.  Returns the mean
/// weighted batch loss.
double train_step(model& m, const labeled_data& data,
                  std::span<const std::size_t> row_indices, double weight_positive,
                  double weight_negative, optimizer& optim, train_step_scratch& scratch);

/// Fit `m` on `train` with early stopping against `validation`.
/// `validation` may be empty (then early stopping monitors training loss).
train_history fit(model& m, const labeled_data& train, const labeled_data& validation,
                  const train_config& config);

/// Sigmoid probabilities for every row of `features`, evaluated in chunks so
/// memory stays bounded.  Runs predict_proba_rows over the tensor's rows, so
/// evaluation, replay and serving share one inference path.
std::vector<float> predict_proba(model& m, const tensor& features,
                                 std::size_t batch_size = 256);

/// Batch-scoring entry point for serving (src/serve): score `count`
/// row-major samples of shape `row_shape` laid out back to back in `rows`
/// and write one sigmoid probability per sample into `out`.  Avoids the
/// caller-built tensor and result allocation of `predict_proba`; evaluated
/// in chunks of `batch_size` rows.  Because every GEMM output element is a
/// serial ascending-k sum (src/nn/gemm.hpp), each probability is
/// bit-identical to scoring that sample alone, for any chunking and any
/// FALLSENSE_THREADS.
void predict_proba_rows(model& m, std::span<const float> rows, std::size_t count,
                        const shape_t& row_shape, std::span<float> out,
                        std::size_t batch_size = 256);

/// Reusable buffers for the scratch overload of predict_proba_rows: the
/// model's workspace arena (layer activations + scratch, laid out by the
/// model's inference plan) and the chunk logit buffer, grown once to the
/// high-water mark and reused so steady-state batch scoring performs zero
/// heap allocations (the serving tick's contract, tests/serve/alloc_test).
struct predict_scratch {
    std::vector<float> arena;   ///< model forward_into workspace
    std::vector<float> logits;  ///< one logit per chunk row
};

/// predict_proba_rows with caller-owned scratch, routed through the
/// model's allocation-free forward_into.  Bit-identical to the allocating
/// overload — the arena only changes where intermediates live, never what
/// is computed.
void predict_proba_rows(model& m, std::span<const float> rows, std::size_t count,
                        const shape_t& row_shape, std::span<float> out,
                        predict_scratch& scratch, std::size_t batch_size = 256);

}  // namespace fallsense::nn
