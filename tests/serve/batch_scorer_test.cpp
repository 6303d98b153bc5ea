#include "serve/batch_scorer.hpp"

#include <gtest/gtest.h>

#include "core/models.hpp"
#include "core/windowing.hpp"
#include "data/synthesizer.hpp"
#include "nn/activations.hpp"
#include "serve/scorer_factory.hpp"
#include "util/rng.hpp"

namespace fallsense::serve {
namespace {

constexpr std::size_t k_window = 20;
constexpr std::size_t k_elems = k_window * core::k_feature_channels;

scorer_spec spec_for(scorer_backend backend, std::uint64_t seed = 7) {
    scorer_spec spec;
    spec.backend = backend;
    spec.window_samples = k_window;
    spec.seed = seed;
    return spec;
}

/// Real preprocessed windows (ADL + fall) so parity is checked on the
/// dynamic range the scorers will actually see, not on noise.
nn::labeled_data make_windows() {
    data::motion_tuning tuning;
    tuning.static_hold_s = 1.5;
    tuning.locomotion_s = 2.0;
    tuning.post_fall_hold_s = 1.0;
    std::vector<data::trial> trials;
    util::rng gen(99);
    data::subject_profile subject;
    subject.id = 1;
    trials.push_back(
        data::synthesize_task(6, subject, tuning, data::synthesis_config{}, gen));
    trials.push_back(
        data::synthesize_task(30, subject, tuning, data::synthesis_config{}, gen));
    core::windowing_config wc;
    wc.segmentation.window_samples = k_window;
    wc.segmentation.overlap_fraction = 0.5;
    return core::to_labeled_data(core::extract_windows(trials, wc), k_window);
}

std::span<const float> window_row(const nn::labeled_data& d, std::size_t i) {
    return {d.features.data() + i * k_elems, k_elems};
}

TEST(BatchScorerTest, FloatBatchOfOneMatchesSegmentScorerPath) {
    // The serving float path must be bit-identical to the single-window
    // replay path (tools/fallsense_cli.cpp cmd_replay): tensor {1, W, C},
    // forward, sigmoid.  The factory seeds its model with
    // derive_seed(seed, "serve/model"); the reference must match.
    const nn::labeled_data windows = make_windows();
    ASSERT_GE(windows.size(), 4u);

    const auto scorer = make_scorer(spec_for(scorer_backend::float32));
    const auto reference =
        core::build_fallsense_cnn(k_window, util::derive_seed(7, "serve/model"));

    for (std::size_t i = 0; i < 4; ++i) {
        const std::span<const float> w = window_row(windows, i);
        float got = -1.0f;
        scorer->score(w, 1, k_elems, std::span<float>(&got, 1));

        const nn::tensor x({1, k_window, core::k_feature_channels},
                           std::vector<float>(w.begin(), w.end()));
        const nn::tensor logit = reference->forward(x, false);
        const float want = nn::sigmoid_scalar(logit[0]);
        EXPECT_EQ(got, want) << "window " << i;  // bitwise, not approx
    }
}

TEST(BatchScorerTest, FloatBatchRowsMatchBatchOfOne) {
    // GEMM's serial-reduction guarantee means batching must not perturb
    // any row: scoring N windows at once == scoring each alone.
    const nn::labeled_data windows = make_windows();
    const std::size_t n = std::min<std::size_t>(windows.size(), 8);

    const auto scorer = make_scorer(spec_for(scorer_backend::float32));
    std::vector<float> batched(n);
    scorer->score({windows.features.data(), n * k_elems}, n, k_elems, batched);

    for (std::size_t i = 0; i < n; ++i) {
        float alone = -1.0f;
        scorer->score(window_row(windows, i), 1, k_elems, std::span<float>(&alone, 1));
        EXPECT_EQ(batched[i], alone) << "row " << i;
    }
}

TEST(BatchScorerTest, Int8BatchRowsMatchBatchOfOne) {
    // The quantized path carries the same guarantee: the factory's
    // calibration is a pure function of (window_samples, seed), and
    // batching must not perturb any row's score.  The batch counts cover
    // every 4-row register-tile tail and both sides of the 16-window
    // chunk grain; real windows repeat to fill the larger batches.
    const nn::labeled_data windows = make_windows();
    ASSERT_GE(windows.size(), 4u);
    constexpr std::size_t k_max_count = 65;
    std::vector<float> rows(k_max_count * k_elems);
    for (std::size_t i = 0; i < k_max_count; ++i) {
        const auto src = window_row(windows, i % windows.size());
        std::copy(src.begin(), src.end(), rows.begin() + static_cast<std::ptrdiff_t>(i * k_elems));
    }

    const auto scorer = make_scorer(spec_for(scorer_backend::int8));
    EXPECT_EQ(scorer->describe(), "cnn-int8");
    const auto again = make_scorer(spec_for(scorer_backend::int8));
    for (const std::size_t n : {1, 2, 3, 5, 17, 51, 65}) {
        std::vector<float> batched(n);
        scorer->score({rows.data(), n * k_elems}, n, k_elems, batched);
        for (std::size_t i = 0; i < n; ++i) {
            float alone = -1.0f;
            again->score({rows.data() + i * k_elems, k_elems}, 1, k_elems,
                         std::span<float>(&alone, 1));
            EXPECT_EQ(batched[i], alone) << "count " << n << " row " << i;
            EXPECT_GE(batched[i], 0.0f);
            EXPECT_LE(batched[i], 1.0f);
        }
    }
}

TEST(BatchScorerTest, CallbackScorerAppliesPerWindow) {
    callback_batch_scorer scorer(
        [](std::span<const float> w) { return w[0]; }, "first-elem");
    EXPECT_EQ(scorer.describe(), "first-elem");

    std::vector<float> in(3 * 4);
    in[0] = 0.25f;
    in[4] = 0.5f;
    in[8] = 0.75f;
    std::vector<float> out(3);
    scorer.score(in, 3, 4, out);
    EXPECT_EQ(out, (std::vector<float>{0.25f, 0.5f, 0.75f}));
}

TEST(BatchScorerTest, CloneScoresBitIdenticallyAndIndependently) {
    // The per_shard replica contract for both CNN backends: a clone scores
    // the same windows to the same bits, and running the clone between two
    // source calls never perturbs the source (no shared mutable state).
    const nn::labeled_data windows = make_windows();
    const std::size_t n = std::min<std::size_t>(windows.size() - 1, 8);

    for (const scorer_backend backend : {scorer_backend::float32, scorer_backend::int8}) {
        const auto source = make_scorer(spec_for(backend));
        const auto replica = source->clone();
        EXPECT_EQ(replica->describe(), source->describe());

        std::vector<float> baseline(n);
        source->score({windows.features.data(), n * k_elems}, n, k_elems, baseline);

        std::vector<float> from_replica(n);
        replica->score({windows.features.data(), n * k_elems}, n, k_elems, from_replica);
        EXPECT_EQ(from_replica, baseline) << scorer_backend_name(backend);

        // Drive the replica with different data, then re-score the
        // original batch on the source: still the baseline bits.
        float other = -1.0f;
        replica->score(window_row(windows, n), 1, k_elems, std::span<float>(&other, 1));
        std::vector<float> again(n);
        source->score({windows.features.data(), n * k_elems}, n, k_elems, again);
        EXPECT_EQ(again, baseline) << scorer_backend_name(backend);
    }
}

TEST(BatchScorerTest, CallbackCloneCopiesCallbackAndLabel) {
    callback_batch_scorer scorer(
        [](std::span<const float> w) { return w[0]; }, "first-elem");
    const auto replica = scorer.clone();
    EXPECT_EQ(replica->describe(), "first-elem");

    std::vector<float> in(2 * 4);
    in[0] = 0.25f;
    in[4] = 0.5f;
    std::vector<float> out(2);
    replica->score(in, 2, 4, out);
    EXPECT_EQ(out, (std::vector<float>{0.25f, 0.5f}));
}

TEST(BatchScorerTest, SizeMismatchThrows) {
    const auto scorer = make_scorer(spec_for(scorer_backend::float32));
    std::vector<float> in(k_elems);
    std::vector<float> out(2);
    EXPECT_THROW(scorer->score(in, 2, k_elems, out), std::invalid_argument);
    EXPECT_THROW(scorer->score(in, 1, k_elems, std::span<float>(out.data(), 2)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace fallsense::serve
