// Virtual completion-time model and adaptive per-device deadlines for the
// ADMM round engine (core/admm_engine.hpp).
//
// The engine is driven entirely by the simulated clock: a device's
// round trip "takes" downlink + compute + uplink virtual seconds, where the
// link terms are exactly what SimNetwork charged to its ledgers (including
// retry backoff under fault injection) and the compute term is a
// deterministic proxy scaled by the device's QP work, its CPU slowdown,
// and the fault schedule's straggler multiplier. A seeded multiplicative
// jitter (a pure counter draw, net::counter_uniform) decorrelates devices
// with identical payload sizes. No measured wall time enters any of it, so
// completion times — and everything scheduled from them — are bitwise
// thread-count-independent (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace plos::core {

struct LatencyModelSpec {
  /// Fixed virtual seconds per local solve, before CPU scaling.
  double compute_base_s = 5e-4;
  /// Additional virtual seconds per QP inner iteration of the solve, the
  /// deterministic stand-in for "more cutting-plane work takes longer".
  double compute_per_qp_iter_s = 2e-6;
  /// Multiplicative completion-time jitter: a round trip is scaled by
  /// 1 + jitter * (2u - 1), u a pure counter draw. In [0, 1).
  double jitter = 0.2;
  /// Seed of the jitter draws (independent of the fault schedule seed).
  std::uint64_t seed = 1234;
};

/// Virtual seconds a device's full round trip occupies: jittered
/// (link_seconds + compute proxy), with the compute proxy scaled by the
/// device CPU slowdown and the fault schedule's straggler multiplier.
/// Pure function of its arguments.
double completion_seconds(const LatencyModelSpec& spec, double link_seconds,
                          int qp_iteration_delta, double cpu_slowdown,
                          double time_multiplier, std::uint64_t round,
                          std::size_t device);

/// Per-device upload deadlines adapted from an EWMA of observed virtual
/// round-trip latencies. Observations happen on the aggregation thread in
/// ascending device order, so the tracker is deterministic. A device with
/// no observations yet gets the fixed fallback (0 = no deadline).
class AdaptiveDeadlines {
 public:
  AdaptiveDeadlines(std::size_t num_users, bool adaptive, double slack,
                    double alpha, double fixed_deadline_s);

  /// Deadline for the device's next round trip, in virtual seconds from
  /// dispatch; +infinity when no deadline applies yet.
  double deadline(std::size_t device) const;

  /// Feeds one observed round-trip latency.
  void observe(std::size_t device, double seconds);

  /// Current EWMA for the device (0 before any observation).
  double ewma(std::size_t device) const;

 private:
  bool adaptive_;
  double slack_;
  double alpha_;
  double fixed_deadline_s_;
  std::vector<double> ewma_;
  std::vector<char> observed_;
};

}  // namespace plos::core
