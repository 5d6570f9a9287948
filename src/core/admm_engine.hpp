// The ADMM round engine: bounded-staleness quorum aggregation on a virtual
// clock. Every distributed trainer in the tree is a configuration of it —
// the synchronous trainer (core/distributed_plos.hpp) is the degenerate
// one, the asynchronous trainer (async/async_admm.hpp) the general one.
//
// A barrier closes a round when every dispatched device has answered, so
// one straggler sets the pace of the whole fleet. The engine replaces the
// barrier with an event-driven round:
//
//   * every dispatched device's round trip gets a deterministic virtual
//     completion time (core/latency.hpp) built from the SimNetwork link
//     charges and a QP-work compute proxy — never from measured wall time;
//   * completion and deadline events go into a deterministic event queue
//     (net/event_queue.hpp) with the total order (time, round, device,
//     kind); the server aggregates as soon as a configurable quorum of
//     on-time uploads has arrived, cutting the round at that event's time;
//   * uploads that miss the cut (or their per-device deadline) are not
//     lost: they arrive later on the virtual clock and are folded into the
//     first aggregate cut after they land, with a staleness-discounted dual
//     update, weight 1 / (1 + age);
//   * bounded staleness: a server block whose data is older than
//     `staleness_bound` aggregation steps is evicted — reset to the
//     consensus (w_t = w0, v_t = 0, ξ_t = 0, u_t = 0) — and the device
//     re-bootstraps from the current consensus on its next dispatch;
//   * per-device deadlines adapt from an EWMA of observed round-trip
//     latencies (core/latency.hpp), so chronically slow devices stop
//     gating the quorum without being dropped from training.
//
// The fault schedule (net/fault.hpp) applies in every configuration:
// offline devices sit the round out, messages travel as CRC32 frames with
// bounded retries, and a straggler past the schedule's round deadline
// (FaultSpec::round_deadline_s) has its upload discarded. Without a
// network the engine does no accounting and every completion time is 0.
//
// Degenerate configuration (DESIGN.md §14): with quorum = 1.0, no
// deadlines and an unbounded staleness bound, every upload is on time,
// nothing is ever late, busy, or evicted, and each round is the paper's
// synchronous Algorithm 2 round. All configurations are bitwise-
// deterministic at any thread count: scheduling decisions derive from
// counter-based draws and the deterministic event order, and all
// cross-device arithmetic happens on the aggregation thread in ascending
// device order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/autotune.hpp"
#include "core/distributed_plos.hpp"
#include "core/latency.hpp"
#include "data/dataset.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"

namespace plos::core {

/// Read-only server state handed to the on_aggregate observer after each
/// aggregation step. References are only valid inside the callback.
struct AdmmAggregateView {
  std::uint64_t aggregation_step;  ///< aggregates completed so far
  double virtual_seconds;          ///< virtual clock at this round's cut
  const linalg::Vector& w0;        ///< consensus after the update
  const std::vector<linalg::Vector>& w;  ///< per-user blocks (w_t)
};

struct AdmmEngineOptions {
  DistributedPlosOptions base;
  /// Fraction of the fleet whose on-time uploads close a round, in (0, 1].
  /// The per-round target is max(1, ceil(quorum * num_users)); when fewer
  /// uploads than that can arrive (failures, busy devices) the round cuts
  /// at its last event instead. 1.0 is the synchronous barrier.
  double quorum = 0.6;
  /// Max aggregation steps a server block's data may lag behind before the
  /// block is evicted. 0 is only meaningful fault-free (nothing ever ages).
  std::uint64_t staleness_bound = 3;
  /// Adapt per-device deadlines from the latency EWMA. When false, the
  /// fixed deadline applies (0 = no deadline at all).
  bool adaptive_deadline = true;
  double deadline_slack = 2.0;  ///< deadline = slack * EWMA latency
  double ewma_alpha = 0.3;      ///< EWMA smoothing of observed latency
  double fixed_deadline_s = 0.0;  ///< fallback/static deadline; 0 = none
  LatencyModelSpec latency;
  /// Observability-driven controller (core/autotune.hpp): when enabled,
  /// `quorum` and `staleness_bound` above are only the starting point — the
  /// hysteresis rule walks both knobs per aggregation step from the
  /// journal's staleness sketch, and every decision lands in the journal's
  /// tuned_*/tune_* fields. Disabled by default: the given values stay
  /// fixed and the journal's tune fields keep their defaults.
  AutoTuneConfig autotune;
  /// Borrowed flight recorder (obs/flight.hpp): when set, the engine logs
  /// the causal per-device lifecycle — upload attempt k with its
  /// retry/drop/corruption outcome, deadline misses, late folds with the
  /// staleness at fold, evictions with their cause, quorum cuts and
  /// aggregates — on the virtual clock, recorded on the aggregation thread
  /// so the log is byte-identical at any thread count. Null disables all
  /// recording (and the per-attempt transmit logs it needs).
  obs::FlightRecorder* flight = nullptr;
  /// Observer called on the aggregation thread after every server update
  /// (benches use it to track accuracy against the virtual clock). It must
  /// not feed anything back into training: the engine's FP sequence and
  /// its determinism contract do not depend on it.
  std::function<void(const AdmmAggregateView&)> on_aggregate;
};

/// Quorum-schedule outcome, alongside the shared distributed diagnostics.
struct QuorumDiagnostics {
  /// Fresh (on-time, pre-cut) uploads aggregated per ADMM step.
  std::vector<std::uint64_t> quorum_trace;
  std::uint64_t late_uploads_total = 0;  ///< cached uploads folded in late
  std::uint64_t evictions_offline_total = 0;
  std::uint64_t evictions_late_total = 0;
  std::uint64_t evictions_failed_total = 0;
  std::uint64_t max_staleness_seen = 0;  ///< max block age at any aggregate
  /// Auto-tune outcome (meaningful when options.autotune.enabled): knob
  /// values in force at the end of the run and the number of journaled
  /// controller actions (holds excluded).
  double final_quorum = 0.0;
  std::uint64_t final_staleness_bound = 0;
  std::uint64_t tune_actions = 0;
  /// Simulated wall-clock of the whole ADMM phase: the sum of round cut
  /// times. In the degenerate configuration this is the synchronous
  /// schedule (every round waits for its slowest device), so the quorum
  /// speedup is the ratio of this field between two runs.
  double virtual_seconds = 0.0;
};

struct AdmmEngineResult {
  PersonalizedModel model;
  DistributedPlosDiagnostics diagnostics;
  QuorumDiagnostics async;
};

/// Runs distributed PLOS training on the round engine. `network` may be
/// null (no accounting, zero completion times); when set, it must have one
/// device per user. The caller owns the top-level trace span.
AdmmEngineResult run_admm_engine(const data::MultiUserDataset& dataset,
                                 const AdmmEngineOptions& options,
                                 net::SimNetwork* network);

}  // namespace plos::core
