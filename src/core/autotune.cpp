#include "core/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace plos::core {

AutoTuner::AutoTuner(const AutoTuneConfig& config, double initial_quorum,
                     std::uint64_t initial_bound)
    : config_(config),
      quorum_(std::clamp(initial_quorum, config.min_quorum,
                         config.max_quorum)),
      bound_(std::clamp(initial_bound, config.min_bound, config.max_bound)) {
  PLOS_CHECK(config.min_quorum > 0.0 &&
                 config.min_quorum <= config.max_quorum &&
                 config.max_quorum <= 1.0,
             "AutoTuneConfig: quorum bounds outside (0, 1]");
  PLOS_CHECK(config.quorum_step > 0.0,
             "AutoTuneConfig: quorum_step must be positive");
  PLOS_CHECK(config.min_bound >= 1 && config.min_bound <= config.max_bound,
             "AutoTuneConfig: staleness bounds out of order");
  PLOS_CHECK(config.patience >= 1, "AutoTuneConfig: patience must be >= 1");
  PLOS_CHECK(config.cooldown >= 0, "AutoTuneConfig: negative cooldown");
  PLOS_CHECK(config.widen_fraction > 0.0 && config.widen_fraction <= 1.0,
             "AutoTuneConfig: widen_fraction outside (0, 1]");
}

AutoTuneDecision AutoTuner::observe(const obs::RoundRecord& record) {
  AutoTuneDecision decision;
  decision.quorum = quorum_;
  decision.staleness_bound = bound_;
  const double p99 = record.stale_p99;
  if (std::isnan(p99)) return decision;  // no sketch in the record

  // Streaks update every step, including during cooldown — a persistent
  // signal keeps its evidence while the hold expires. All comparisons are
  // exact FP against journaled values, so the walk is bitwise-reproducible
  // from the journal alone.
  const double bound = static_cast<double>(bound_);
  const bool widen_signal = p99 >= config_.widen_fraction * bound;
  // The tail fits in half the bound: the cut is fresher than it needs to
  // be, so stop paying barrier time for it.
  const bool lower_signal = !widen_signal && 2.0 * p99 <= bound;
  // The tail fits in a quarter of the bound: the eviction net is slack.
  const bool tighten_signal = !widen_signal && 4.0 * p99 <= bound;
  widen_streak_ = widen_signal ? widen_streak_ + 1 : 0;
  lower_streak_ = lower_signal ? lower_streak_ + 1 : 0;
  tighten_streak_ = tighten_signal ? tighten_streak_ + 1 : 0;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    decision.event = "hold";
    return decision;
  }

  const auto act = [&](const char* event, double trigger) {
    decision.event = event;
    decision.trigger = trigger;
    decision.quorum = quorum_;
    decision.staleness_bound = bound_;
    cooldown_left_ = config_.cooldown;
    widen_streak_ = 0;
    lower_streak_ = 0;
    tighten_streak_ = 0;
  };

  // Priority: protect blocks from wholesale eviction first, then chase
  // the cheaper cut, then reel the bound back in.
  if (widen_streak_ >= config_.patience) {
    if (bound_ < config_.max_bound) {
      bound_ = std::min(bound_ * 2, config_.max_bound);
      act("bound_widen", p99);
    } else if (quorum_ < config_.max_quorum) {
      // Bound maxed out and the tail still grows: the fleet cannot keep
      // up with the cut pace — wait for more of it.
      quorum_ = std::min(quorum_ + config_.quorum_step, config_.max_quorum);
      act("quorum_up", p99);
    }
    return decision;
  }
  if (lower_streak_ >= config_.patience && quorum_ > config_.min_quorum) {
    quorum_ = std::max(quorum_ - config_.quorum_step, config_.min_quorum);
    act("quorum_down", p99);
    return decision;
  }
  if (tighten_streak_ >= config_.patience && bound_ > config_.min_bound &&
      quorum_ <= config_.min_quorum) {
    // Only tighten once the quorum walk has settled: halving the bound
    // mid-descent would evict the very blocks the descent makes late.
    bound_ = std::max(bound_ / 2, config_.min_bound);
    act("bound_tighten", p99);
    return decision;
  }
  return decision;
}

}  // namespace plos::core
