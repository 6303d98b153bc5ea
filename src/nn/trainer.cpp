#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace fallsense::nn {

double labeled_data::positive_fraction() const {
    if (labels.empty()) return 0.0;
    double positives = 0.0;
    for (const float y : labels) positives += (y > 0.5f) ? 1.0 : 0.0;
    return positives / static_cast<double>(labels.size());
}

void labeled_data::validate() const {
    FS_ARG_CHECK(features.rank() >= 1, "labeled_data features must be batched");
    FS_ARG_CHECK(features.dim(0) == labels.size(),
                 "labeled_data row/label count mismatch");
}

void gather_rows_into(const tensor& batched, std::span<const std::size_t> row_indices,
                      tensor& out) {
    FS_ARG_CHECK(batched.rank() >= 1, "gather_rows needs a batched tensor");
    const std::size_t rows = batched.dim(0);
    const std::size_t row_size = batched.size() / std::max<std::size_t>(rows, 1);
    shape_t out_shape = batched.shape();
    out_shape[0] = row_indices.size();
    if (out.shape() != out_shape) out = tensor(std::move(out_shape));
    for (std::size_t i = 0; i < row_indices.size(); ++i) {
        const std::size_t r = row_indices[i];
        FS_ARG_CHECK(r < rows, "gather_rows index out of range");
        std::copy(batched.data() + r * row_size, batched.data() + (r + 1) * row_size,
                  out.data() + i * row_size);
    }
}

tensor gather_rows(const tensor& batched, std::span<const std::size_t> row_indices) {
    tensor out;
    gather_rows_into(batched, row_indices, out);
    return out;
}

std::pair<double, double> balanced_class_weights(std::span<const float> labels) {
    std::size_t positives = 0;
    for (const float y : labels) positives += (y > 0.5f) ? 1 : 0;
    const std::size_t negatives = labels.size() - positives;
    if (positives == 0 || negatives == 0) return {1.0, 1.0};
    const double n = static_cast<double>(labels.size());
    return {n / (2.0 * static_cast<double>(positives)),
            n / (2.0 * static_cast<double>(negatives))};
}

std::vector<tensor> snapshot_parameters(model& m) {
    std::vector<tensor> snapshot;
    for (const parameter* p : m.parameters()) snapshot.push_back(p->value);
    return snapshot;
}

void restore_parameters(model& m, const std::vector<tensor>& snapshot) {
    const std::vector<parameter*> params = m.parameters();
    FS_ARG_CHECK(params.size() == snapshot.size(), "parameter snapshot size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
        FS_ARG_CHECK(same_shape(params[i]->value, snapshot[i]),
                     "parameter snapshot shape mismatch");
        params[i]->value = snapshot[i];
    }
}

namespace {

/// The output-layer bias is the final single-element "*.bias" parameter —
/// every fallsense model ends in Dense(1).  Returns nullptr if absent.
parameter* find_output_bias(model& m) {
    parameter* found = nullptr;
    for (parameter* p : m.parameters()) {
        if (p->value.size() == 1 && p->name.ends_with(".bias")) found = p;
    }
    return found;
}

double validation_loss(model& m, const labeled_data& data, double wp, double wn,
                       std::size_t batch_size) {
    double total = 0.0;
    std::size_t counted = 0;
    std::vector<std::size_t> idx(batch_size);
    for (std::size_t start = 0; start < data.size(); start += batch_size) {
        const std::size_t count = std::min(batch_size, data.size() - start);
        idx.resize(count);
        std::iota(idx.begin(), idx.end(), start);
        const tensor x = gather_rows(data.features, idx);
        const tensor logits = m.forward(x, /*training=*/false);
        const std::span<const float> y(data.labels.data() + start, count);
        total += weighted_bce_loss_only(logits, y, wp, wn) * static_cast<double>(count);
        counted += count;
    }
    return counted ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace

double train_step(model& m, const labeled_data& data,
                  std::span<const std::size_t> row_indices, double weight_positive,
                  double weight_negative, optimizer& optim, train_step_scratch& scratch) {
    gather_rows_into(data.features, row_indices, scratch.batch);
    scratch.labels.resize(row_indices.size());
    for (std::size_t i = 0; i < row_indices.size(); ++i) {
        scratch.labels[i] = data.labels[row_indices[i]];
    }
    const tensor logits = m.forward(scratch.batch, /*training=*/true);
    const bce_result loss =
        weighted_bce_with_logits(logits, scratch.labels, weight_positive, weight_negative);
    m.backward(loss.grad_logits);
    optim.step();
    return loss.loss;
}

train_history fit(model& m, const labeled_data& train, const labeled_data& validation,
                  const train_config& config) {
    train.validate();
    if (validation.size() > 0) validation.validate();
    FS_ARG_CHECK(config.batch_size > 0, "batch_size must be positive");
    FS_ARG_CHECK(config.max_epochs > 0, "max_epochs must be positive");

    OBS_SCOPE(config.metrics_prefix + "/fit");

    train_history history;
    if (config.use_class_weights) {
        std::tie(history.weight_positive, history.weight_negative) =
            balanced_class_weights(train.labels);
    }

    if (config.init_output_bias) {
        // Eq. (1)-(2): bias = log(p / (1 - p)) with p the positive prior.
        const double p = train.positive_fraction();
        if (p > 0.0 && p < 1.0) {
            if (parameter* bias = find_output_bias(m)) {
                bias->value[0] = static_cast<float>(std::log(p / (1.0 - p)));
            }
        }
    }

    adam optim(m.parameters(), config.learning_rate);
    util::rng shuffler(config.shuffle_seed);
    train_step_scratch step_scratch;

    const bool monitor_validation = validation.size() > 0;
    double best_monitored = std::numeric_limits<double>::infinity();
    std::vector<tensor> best_weights = snapshot_parameters(m);
    std::size_t epochs_since_best = 0;

    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);

    for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
        OBS_SCOPE(config.metrics_prefix + "/epoch");
        shuffler.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t counted = 0;
        for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
            const std::size_t count = std::min(config.batch_size, order.size() - start);
            const std::span<const std::size_t> idx(order.data() + start, count);
            const double loss = train_step(m, train, idx, history.weight_positive,
                                           history.weight_negative, optim, step_scratch);
            epoch_loss += loss * static_cast<double>(count);
            counted += count;
        }
        epoch_loss /= static_cast<double>(std::max<std::size_t>(counted, 1));
        history.train_loss.push_back(epoch_loss);

        const double monitored =
            monitor_validation
                ? validation_loss(m, validation, history.weight_positive,
                                  history.weight_negative, config.batch_size)
                : epoch_loss;
        if (monitor_validation) history.val_loss.push_back(monitored);

        if (config.verbose) {
            FS_LOG_INFO("nn.trainer") << "epoch " << epoch << " train_loss=" << epoch_loss
                                      << (monitor_validation ? " val_loss=" : "")
                                      << (monitor_validation ? std::to_string(monitored) : "");
        }

        if (monitored < best_monitored) {
            best_monitored = monitored;
            best_weights = snapshot_parameters(m);
            history.best_epoch = epoch;
            epochs_since_best = 0;
        } else {
            ++epochs_since_best;
            if (config.early_stop_patience > 0 &&
                epochs_since_best >= config.early_stop_patience) {
                history.stopped_early = true;
                break;
            }
        }
    }

    restore_parameters(m, best_weights);

    if (obs::enabled()) {
        const std::string& p = config.metrics_prefix;
        obs::add_counter(p + "/epochs", history.train_loss.size());
        obs::set_gauge(p + "/learning_rate", config.learning_rate);
        obs::set_gauge(p + "/best_epoch", static_cast<double>(history.best_epoch));
        obs::set_gauge(p + "/final_train_loss", history.train_loss.back());
        if (!history.val_loss.empty()) {
            obs::set_gauge(p + "/best_val_loss", history.val_loss[history.best_epoch]);
        }
        obs::set_gauge(p + "/weight_positive", history.weight_positive);
        obs::set_gauge(p + "/weight_negative", history.weight_negative);
    }
    return history;
}

std::vector<float> predict_proba(model& m, const tensor& features, std::size_t batch_size) {
    FS_ARG_CHECK(features.rank() >= 1, "predict_proba needs a batched tensor");
    const std::size_t rows = features.dim(0);
    shape_t row_shape;
    for (std::size_t d = 1; d < features.rank(); ++d) row_shape.push_back(features.dim(d));
    std::vector<float> probs(rows);
    predict_proba_rows(m, {features.data(), features.size()}, rows, row_shape, probs,
                       batch_size);
    return probs;
}

void predict_proba_rows(model& m, std::span<const float> rows, std::size_t count,
                        const shape_t& row_shape, std::span<float> out,
                        std::size_t batch_size) {
    predict_scratch scratch;
    predict_proba_rows(m, rows, count, row_shape, out, scratch, batch_size);
}

void predict_proba_rows(model& m, std::span<const float> rows, std::size_t count,
                        const shape_t& row_shape, std::span<float> out,
                        predict_scratch& scratch, std::size_t batch_size) {
    FS_ARG_CHECK(batch_size > 0, "batch_size must be positive");
    const std::size_t row_elems = shape_volume(row_shape);
    FS_ARG_CHECK(rows.size() == count * row_elems, "predict_proba_rows buffer size mismatch");
    FS_ARG_CHECK(out.size() == count, "predict_proba_rows output size mismatch");
    for (std::size_t start = 0; start < count; start += batch_size) {
        const std::size_t chunk = std::min(batch_size, count - start);
        // Plan lookup is cached in the model; the arena and logit buffers
        // grow to their high-water marks once and are then reused.
        const std::size_t ws_bytes = m.infer_workspace_bytes(row_shape, chunk);
        const std::size_t ws_floats = (ws_bytes + sizeof(float) - 1) / sizeof(float);
        if (scratch.arena.size() < ws_floats) scratch.arena.resize(ws_floats);
        if (scratch.logits.size() < chunk) scratch.logits.resize(chunk);
        // The chunk-sized logit span doubles as the one-logit-per-sample
        // check: forward_into rejects a model emitting more per row.
        m.forward_into(rows.subspan(start * row_elems, chunk * row_elems), row_shape, chunk,
                       std::span<float>(scratch.arena.data(), ws_floats),
                       std::span<float>(scratch.logits.data(), chunk));
        for (std::size_t i = 0; i < chunk; ++i) {
            out[start + i] = sigmoid_scalar(scratch.logits[i]);
        }
    }
}

}  // namespace fallsense::nn
