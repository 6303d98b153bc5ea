#include "gate.hpp"

#include <cstring>
#include <iomanip>
#include <sstream>

namespace rtbench {

namespace serve = fallsense::serve;
namespace core = fallsense::core;

bench_scorer::bench_scorer(std::unique_ptr<serve::batch_scorer> inner, const char* span_name,
                           const std::atomic<std::uint64_t>* ticks_done)
    : inner_(std::move(inner)), span_name_(span_name), ticks_done_(ticks_done) {}

void bench_scorer::score(std::span<const float> windows, std::size_t count,
                         std::size_t window_elems, std::span<float> out) {
    {
        trace::span s(span_name_);
        s.arg("windows", static_cast<double>(count));
        inner_->score(windows, count, window_elems, out);
    }
    if (capture_limit_ > 0 && captured_.size() < capture_limit_ &&
        calls_++ % capture_every_ == 0) {
        batch b;
        b.count = count;
        b.windows.assign(windows.begin(), windows.begin() + count * window_elems);
        b.scores.assign(out.begin(), out.begin() + count);
        captured_.push_back(std::move(b));
    }
    const std::uint64_t target = perturb_tick_.load();
    if (target != std::numeric_limits<std::uint64_t>::max() && ticks_done_ != nullptr &&
        ticks_done_->load() == target) {
        const std::size_t pos = perturb_position_.load();
        if (pos < count) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &out[pos], sizeof bits);
            bits ^= 1u;
            std::memcpy(&out[pos], &bits, sizeof bits);
            perturbed_.store(true);
        }
        perturb_tick_.store(std::numeric_limits<std::uint64_t>::max());
    }
}

std::unique_ptr<serve::batch_scorer> bench_scorer::clone() const {
    return std::make_unique<bench_scorer>(inner_->clone(), span_name_, nullptr);
}

void bench_scorer::arm_perturbation(std::uint64_t tick, std::size_t position) {
    perturb_position_.store(position);
    perturb_tick_.store(tick);
}

void bench_scorer::capture_batches(std::size_t every, std::size_t limit) {
    capture_every_ = every == 0 ? 1 : every;
    capture_limit_ = limit;
    calls_ = 0;
}

score_gate::score_gate(std::size_t wearers) : slot_of_(wearers, -1) {
    for (std::size_t id = 0; id < wearers; id += k_gate_stride) {
        slot_of_[id] = static_cast<int>(slots_.size());
        followed_wearer w;
        w.id = static_cast<session_id>(id);
        slots_.push_back(std::move(w));
        ids_.push_back(static_cast<session_id>(id));
    }
}

void score_gate::forget(session_id id) {
    if (id < slot_of_.size() && slot_of_[id] >= 0) slots_[slot_of_[id]].active = false;
}

namespace {

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

void score_gate::verify(const serve::scorer_spec& spec, const core::detector_config& detector,
                        report& out) const {
    const std::unique_ptr<serve::batch_scorer> single = serve::make_scorer(spec);
    float one = 0.0f;
    const core::segment_scorer score_one = [&](std::span<const float> window) {
        single->score(window, 1, window.size(), std::span<float>(&one, 1));
        return one;
    };
    const window_rule rule(detector);
    std::size_t checked = 0;
    for (const followed_wearer& w : slots_) {
        if (!w.active) continue;
        ++checked;
        std::ostringstream where;
        where << std::setprecision(9) << "wearer " << w.id << ": ";
        if (w.unobserved > 0) {
            out.fail(where.str() + "a tick scored more than one of its windows");
            continue;
        }
        core::streaming_detector reference(detector, score_one);
        std::vector<float> scores;
        std::vector<std::pair<std::size_t, float>> triggers;
        for (const fallsense::data::raw_sample& s : w.accepted) {
            const auto hit = reference.push(s);
            if (rule.due_at(reference.samples_seen())) scores.push_back(reference.last_score());
            if (hit) triggers.emplace_back(hit->sample_index, hit->probability);
        }
        if (scores.size() != w.scores.size()) {
            where << "fleet scored " << w.scores.size() << " windows, reference "
                  << scores.size();
            out.fail(where.str());
            continue;
        }
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (!same_bits(scores[i], w.scores[i])) {
                where << "window " << i << " scored " << w.scores[i] << " by the fleet, "
                      << scores[i] << " by the reference";
                out.fail(where.str());
                break;
            }
        }
        bool triggers_match = triggers.size() == w.triggers.size();
        for (std::size_t i = 0; triggers_match && i < triggers.size(); ++i) {
            triggers_match = triggers[i].first == w.triggers[i].first &&
                             same_bits(triggers[i].second, w.triggers[i].second);
        }
        if (!triggers_match) {
            out.fail("wearer " + std::to_string(w.id) + ": triggers differ (fleet " +
                     std::to_string(w.triggers.size()) + ", reference " +
                     std::to_string(triggers.size()) + ")");
        }
    }
    if (checked == 0) out.fail("the gate followed no wearer to the end of the run");
}

}  // namespace rtbench
