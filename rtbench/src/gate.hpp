// Correctness gate and the benchmark's scorer decorator.
//
// `bench_scorer` wraps the fleet's scorer: it opens a span around every
// score() call (named for the layer that scores: nn.score or quant.score),
// can keep copies of a few batches for the per-layer replay, and — for the
// gate's self-test — can flip one bit of one score once per run.
//
// `score_gate` follows about one wearer in 64.  It records the samples the
// fleet accepted from them, every score the fleet reported for them
// (last_score after the tick that scored the window) and every trigger.
// verify() replays the accepted samples through a dedicated
// core::streaming_detector with a batch-of-1 scorer built from the same
// scorer_spec and requires both sequences to match bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"

namespace rtbench {

class bench_scorer final : public fallsense::serve::batch_scorer {
public:
    /// `ticks_done` counts completed fleet ticks; the perturbation fires in
    /// the score call of tick number `ticks_done` == the armed tick.
    bench_scorer(std::unique_ptr<fallsense::serve::batch_scorer> inner, const char* span_name,
                 const std::atomic<std::uint64_t>* ticks_done);

    void score(std::span<const float> windows, std::size_t count, std::size_t window_elems,
               std::span<float> out) override;
    std::string describe() const override { return inner_->describe(); }
    std::unique_ptr<fallsense::serve::batch_scorer> clone() const override;

    /// Flip the lowest bit of score `position` in the score call of tick
    /// `tick`.  Safe to call from another thread than the scoring one.
    void arm_perturbation(std::uint64_t tick, std::size_t position);
    bool perturbed() const { return perturbed_.load(); }

    /// Keep a copy of every `every`-th score call's windows and scores,
    /// up to `limit` batches.
    void capture_batches(std::size_t every, std::size_t limit);
    struct batch {
        std::size_t count = 0;
        std::vector<float> windows;
        std::vector<float> scores;
    };
    const std::vector<batch>& captured() const { return captured_; }

private:
    std::unique_ptr<fallsense::serve::batch_scorer> inner_;
    const char* span_name_;
    const std::atomic<std::uint64_t>* ticks_done_;
    std::atomic<std::uint64_t> perturb_tick_{std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::size_t> perturb_position_{0};
    std::atomic<bool> perturbed_{false};
    std::size_t capture_every_ = 0;
    std::size_t capture_limit_ = 0;
    std::size_t calls_ = 0;
    std::vector<batch> captured_;
};

class score_gate {
public:
    using session_id = fallsense::serve::session_id;

    /// Follow wearers whose id is a multiple of k_gate_stride, among the
    /// first `wearers` ids (wearers admitted later by churn are not
    /// followed).
    explicit score_gate(std::size_t wearers);

    bool follows(session_id id) const {
        return id < slot_of_.size() && slot_of_[id] >= 0 && slots_[slot_of_[id]].active;
    }
    const std::vector<session_id>& followed() const { return ids_; }
    /// The fleet accepted `sample` for wearer `id` (a followed one).
    void on_accept(session_id id, const fallsense::data::raw_sample& sample) {
        slots_[slot_of_[id]].accepted.push_back(sample);
    }
    /// Stop following a wearer that is about to be evicted.
    void forget(session_id id);

    /// Read scores and triggers of the followed wearers after a tick.
    /// `Host` is serve::fleet_router or serve::session_engine.
    template <class Host>
    void after_tick(const Host& host, const fallsense::serve::tick_result& result);

    /// Replay every followed wearer through a dedicated streaming_detector
    /// and record mismatches in `out`.
    void verify(const fallsense::serve::scorer_spec& spec,
                const fallsense::core::detector_config& detector, report& out) const;

private:
    struct followed_wearer {
        session_id id = 0;
        bool active = true;
        std::uint64_t windows_seen = 0;
        std::uint64_t unobserved = 0;  ///< ticks that scored >1 window of this wearer
        std::vector<fallsense::data::raw_sample> accepted;
        std::vector<float> scores;
        std::vector<std::pair<std::size_t, float>> triggers;  ///< (sample index, probability)
    };
    std::vector<int> slot_of_;  ///< id -> index into slots_, -1 when not followed
    std::vector<followed_wearer> slots_;
    std::vector<session_id> ids_;
};

template <class Host>
void score_gate::after_tick(const Host& host, const fallsense::serve::tick_result& result) {
    for (followed_wearer& w : slots_) {
        if (!w.active) continue;
        const std::uint64_t scored = host.stats(w.id).windows_scored;
        if (scored == w.windows_seen + 1) {
            w.scores.push_back(host.last_score(w.id));
        } else if (scored > w.windows_seen + 1) {
            ++w.unobserved;
        }
        w.windows_seen = scored;
    }
    for (const fallsense::serve::trigger_event& t : result.triggers) {
        if (follows(t.session)) {
            slots_[slot_of_[t.session]].triggers.emplace_back(t.sample_index, t.probability);
        }
    }
}

}  // namespace rtbench
