#include "core/latency.hpp"

#include <limits>

#include "common/assert.hpp"
#include "net/fault.hpp"

namespace plos::core {

namespace {

// Draw family for the completion-time jitter. net::FaultModel reserves the
// low kinds (0x01-0x06) for its own schedule; external consumers of
// net::counter_uniform key from 0x10 upward.
constexpr std::uint64_t kLatencyJitterDraw = 0x10;

}  // namespace

double completion_seconds(const LatencyModelSpec& spec, double link_seconds,
                          int qp_iteration_delta, double cpu_slowdown,
                          double time_multiplier, std::uint64_t round,
                          std::size_t device) {
  PLOS_CHECK(spec.jitter >= 0.0 && spec.jitter < 1.0,
             "LatencyModelSpec: jitter outside [0, 1)");
  PLOS_CHECK(spec.compute_base_s >= 0.0 && spec.compute_per_qp_iter_s >= 0.0,
             "LatencyModelSpec: negative compute proxy");
  const double compute =
      (spec.compute_base_s +
       spec.compute_per_qp_iter_s * static_cast<double>(qp_iteration_delta)) *
      cpu_slowdown * time_multiplier;
  double total = link_seconds + compute;
  if (spec.jitter > 0.0) {
    const double u = net::counter_uniform(
        spec.seed, kLatencyJitterDraw, round,
        static_cast<std::uint64_t>(device), /*direction=*/0, /*attempt=*/0);
    total *= 1.0 + spec.jitter * (2.0 * u - 1.0);
  }
  return total;
}

AdaptiveDeadlines::AdaptiveDeadlines(std::size_t num_users, bool adaptive,
                                     double slack, double alpha,
                                     double fixed_deadline_s)
    : adaptive_(adaptive),
      slack_(slack),
      alpha_(alpha),
      fixed_deadline_s_(fixed_deadline_s),
      ewma_(num_users, 0.0),
      observed_(num_users, 0) {
  PLOS_CHECK(slack >= 1.0, "AdaptiveDeadlines: slack must be >= 1");
  PLOS_CHECK(alpha > 0.0 && alpha <= 1.0,
             "AdaptiveDeadlines: alpha outside (0, 1]");
  PLOS_CHECK(fixed_deadline_s >= 0.0,
             "AdaptiveDeadlines: negative fixed deadline");
}

double AdaptiveDeadlines::deadline(std::size_t device) const {
  PLOS_CHECK(device < ewma_.size(), "AdaptiveDeadlines: device out of range");
  if (adaptive_ && observed_[device] != 0) return slack_ * ewma_[device];
  if (fixed_deadline_s_ > 0.0) return fixed_deadline_s_;
  return std::numeric_limits<double>::infinity();
}

void AdaptiveDeadlines::observe(std::size_t device, double seconds) {
  PLOS_CHECK(device < ewma_.size(), "AdaptiveDeadlines: device out of range");
  if (observed_[device] == 0) {
    ewma_[device] = seconds;
    observed_[device] = 1;
  } else {
    ewma_[device] = alpha_ * seconds + (1.0 - alpha_) * ewma_[device];
  }
}

double AdaptiveDeadlines::ewma(std::size_t device) const {
  PLOS_CHECK(device < ewma_.size(), "AdaptiveDeadlines: device out of range");
  return ewma_[device];
}

}  // namespace plos::core
