// Distributed PLOS (paper §V, Algorithm 2).
//
// Solves the same CCCP-convexified objective as the centralized trainer but
// with ADMM: raw data never leave the device. Per ADMM iteration:
//
//   device t:  receives (w0, u_t);  solves the local prox-regularized
//              1-slack problem (Eq. 22) by cutting planes — its dual is a
//              single-group capped-simplex QP with cap 1:
//                 max_{γ≥0, Σγ≤1} Σ_c γ_c (b_c − s_c·d) − ½ κ ||Σ γ_c s_c||²
//              where d = w0 − u_t and κ = T/(2λ) + 1/ρ, recovering
//                 w_t = d + κ g,   v_t = (T/(2λ)) g,   g = Σ γ_c s_c;
//              uploads (w_t, v_t, ξ_t).
//   server:    closed-form updates (Eq. 23)
//                 w0 ← ρ Σ(w_t − v_t + u_t) / (2 + Tρ),
//                 u_t ← u_t + (w_t − w0 − v_t),
//              and the residual stopping rule (Eq. 24).
//
// The rounds run on the one ADMM round engine (core/admm_engine.hpp) in its
// degenerate configuration: quorum 1.0, no per-device deadline, unbounded
// staleness, no tuner. The asynchronous trainer (async/async_admm.hpp) is
// the same engine with a partial quorum, so "sync ≡ degenerate async"
// holds by construction (DESIGN.md §14).
//
// When a net::SimNetwork is supplied, every exchanged message is serialized
// to wire format and charged byte-exactly, and measured solver time is
// charged to simulated device/server CPUs (Figures 11-13).
//
// Fault tolerance (DESIGN.md §9): when the supplied network carries an
// enabled net::FaultModel, rounds degrade to partial participation instead
// of failing — offline devices are skipped for the round (the schedule's
// churn is also how partial participation is modeled), messages travel as
// CRC32-checked frames with bounded retry/backoff, straggling devices past
// the round deadline are left behind, and the server's Eq. 23 update runs
// over the participating subset while missing/stale devices keep their
// last cached (w_t, v_t) and dual u_t. All participation decisions derive
// from the counter-based fault schedule — never from measured wall time —
// so faulty runs remain bitwise-deterministic at any thread count.
#pragma once

#include <cstdint>

#include "core/centralized_plos.hpp"  // PersonalizedModel, PlosDiagnostics
#include "core/options.hpp"
#include "data/dataset.hpp"
#include "net/simnet.hpp"

namespace plos::core {

struct DistributedPlosOptions {
  PlosHyperParams params;
  CuttingPlaneOptions cutting_plane;
  CccpOptions cccp;
  /// See CentralizedPlosOptions::qp for the tolerance rationale.
  qp::QpOptions qp{1e-7, 3000, {}};
  double rho = 1.0;        ///< ADMM step size (paper sets ρ = 1)
  double eps_abs = 1e-3;   ///< εabs of the residual stopping rule
  /// Relative residual term (Boyd et al. §3.3.1) added to the paper's
  /// absolute thresholds — without it the absolute rule never fires on
  /// data whose feature scale puts ||w_t|| well above εabs.
  double eps_rel = 1e-2;
  int max_admm_iterations = 300;
  /// Bootstrap round: label-providing devices train a local SVM on their
  /// revealed labels and upload it once; the server averages the uploads
  /// into the initial w0 (charged to the communication budget). Without
  /// labels anywhere the server falls back to a random unit direction.
  bool svm_bootstrap = true;
  double init_svm_c = 1.0;
  /// See CentralizedPlosOptions::cluster_sign_initialization; the 2-means
  /// runs on-device, so privacy is unaffected.
  bool cluster_sign_initialization = true;
  std::uint64_t seed = 99;
  /// Worker threads for concurrent per-device ADMM solves (and bootstrap
  /// SVM fits). 0 = all hardware threads, 1 = legacy serial. Models, byte
  /// ledgers, and traces are bitwise identical for every value; only real
  /// wall time changes (see DESIGN.md §8).
  int num_threads = 1;
  /// See CentralizedPlosOptions::hotpath_cache: disables the Gram-dot
  /// memoization (bitwise-identical results, just slower); plane
  /// interning and cross-round warm starts stay on in both flavors.
  bool hotpath_cache = true;
  /// Telemetry sinks, both optional and borrowed. The journal receives
  /// one RoundRecord per ADMM iteration (objective, residuals,
  /// participation, byte/fault deltas from the simulated network),
  /// appended on the aggregation thread in iteration order — byte-
  /// identical at any thread count. The watchdog observes every record;
  /// under OnViolation::kAbort a violation stops training at the next
  /// iteration boundary (diagnostics.watchdog_aborted is set).
  obs::Journal* journal = nullptr;
  obs::Watchdog* watchdog = nullptr;
};

struct DistributedPlosDiagnostics {
  int cccp_iterations = 0;
  int admm_iterations_total = 0;  ///< summed over CCCP rounds
  int qp_solves = 0;              ///< device dual QP solves, all devices
  int qp_unconverged = 0;         ///< of those, solves not converged
  std::vector<double> objective_trace;        ///< per ADMM iteration
  std::vector<double> primal_residual_trace;  ///< ||r|| per ADMM iteration
  std::vector<double> dual_residual_trace;    ///< ||s|| per ADMM iteration
  double train_seconds = 0.0;  ///< real (not simulated) wall time
  /// Per-CCCP-round breakdown: wall time, ADMM iterations run, and device
  /// dual QP solves within the round (what train_seconds and
  /// admm_iterations_total aggregate away).
  std::vector<double> round_seconds;
  std::vector<int> round_admm_iterations;
  std::vector<int> round_qp_solves;
  /// Fraction of devices whose update reached the server, per ADMM
  /// iteration (1.0 throughout for fault-free synchronous runs).
  std::vector<double> participation_trace;
  // Graceful-degradation tallies; all zero without fault injection.
  std::size_t devices_offline_total = 0;   ///< churn absences over all rounds
  std::size_t deadline_misses_total = 0;   ///< straggler uploads skipped
  std::size_t downlink_failures_total = 0; ///< broadcasts lost after retries
  std::size_t uplink_failures_total = 0;   ///< updates lost after retries
  net::FaultCounters fault_counters;       ///< message drop/corrupt/retry totals
  /// True when the convergence watchdog aborted the run (see
  /// DistributedPlosOptions::watchdog).
  bool watchdog_aborted = false;
};

struct DistributedPlosResult {
  PersonalizedModel model;
  DistributedPlosDiagnostics diagnostics;
};

/// Trains distributed PLOS. `network` may be null (no accounting); when
/// set, it must have one device per user.
DistributedPlosResult train_distributed_plos(
    const data::MultiUserDataset& dataset,
    const DistributedPlosOptions& options = {},
    net::SimNetwork* network = nullptr);

}  // namespace plos::core
