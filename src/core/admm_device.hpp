// The per-device half of distributed ADMM, driven by the round engine
// (core/admm_engine): a device's bootstrap, CCCP linearization,
// cutting-plane working set, dual QP, and wire serialization.
//
// One AdmmDevice owns one simulated device: its raw data, CCCP signs, the
// cutting-plane working set of the current CCCP round, and the hot-path
// state of DESIGN.md §13 (device-owned Gram cache, trainer-owned WarmStore
// slot). Under the thread pool's
// static chunking each device is touched by exactly one worker per round,
// so none of this needs locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cutting_plane.hpp"
#include "core/distributed_plos.hpp"
#include "core/gram_cache.hpp"
#include "obs/journal.hpp"
#include "obs/sketch.hpp"
#include "qp/warm_store.hpp"

namespace plos::core {

// Wire formats. Sizes are what the simulator charges, so they are real
// serializations, not estimates. Fault-free paths transmit the bare
// payload (sizes — and goldens pinning them — unchanged from the pre-fault
// code); the fault path wraps payloads in CRC32 frames via
// net::frame_message before handing them to SimNetwork::transmit_*.
std::vector<std::uint8_t> admm_broadcast_payload(std::span<const double> w0,
                                                 std::span<const double> u);
std::vector<std::uint8_t> admm_update_payload(std::span<const double> w,
                                              std::span<const double> v,
                                              double xi);

/// Why a device sat out a round (or didn't); tallied into the
/// graceful-degradation diagnostics after each ADMM iteration.
enum DeviceRoundStatus : char {
  kParticipated = 0,
  kUnavailable = 1,     // reserved (keeps journal cause_counts' width)
  kOffline = 2,         // fault schedule churn window
  kDownlinkFailed = 3,  // broadcast lost after all retries
  kDeadlineMissed = 4,  // straggler; server stopped waiting
  kUplinkFailed = 5,    // update lost/corrupt after all retries
  kLateUpload = 6,      // async: arrived after the quorum cut, folded later
  kBusy = 7,            // async: previous upload still in flight
};

/// Size of the DeviceRoundStatus vocabulary — the journal's cause_counts
/// vector has exactly this many slots in enum order.
inline constexpr std::size_t kDeviceRoundStatusCount = 8;

/// One simulated device (see file comment).
class AdmmDevice {
 public:
  AdmmDevice(const data::UserData& user, std::size_t num_users,
             const DistributedPlosOptions& options, qp::WarmStore* warm,
             std::size_t slot);

  /// Local SVM on revealed labels for the bootstrap round; empty when the
  /// device has no labels.
  linalg::Vector bootstrap_weights() const;

  /// Starts a CCCP round: fix linearization signs at the current w_t and
  /// reset the working set (the planes depend on the signs).
  void begin_cccp_round(std::span<const double> current_weights,
                        bool first_round, std::uint64_t seed);

  struct LocalSolution {
    linalg::Vector w;
    linalg::Vector v;
    double xi = 0.0;
  };

  /// Solves the local problem (Eq. 22) for the received (w0, u_t).
  LocalSolution solve(std::span<const double> w0, std::span<const double> u);

  /// Cumulative dual QP solves this device has performed.
  int qp_solves() const { return qp_solves_; }

  /// Cumulative QP active-set steps across those solves.
  int qp_iterations() const { return qp_iterations_; }

  /// Of those solves, how many returned QpResult::converged == false.
  int qp_unconverged() const { return qp_unconverged_; }

  /// Cutting planes currently in the device's working set.
  std::size_t working_set_size() const { return working_set_.size(); }

 private:
  void add_plane(CuttingPlane plane, const linalg::Vector& d);
  void solve_dual(const linalg::Vector& d, LocalSolution& sol);

  PlosUserContext ctx_;
  const DistributedPlosOptions* options_;
  double num_users_;
  double kappa_;     ///< T/(2λ) + 1/ρ
  double v_over_g_;  ///< T/(2λ)
  std::vector<int> signs_;
  std::vector<CuttingPlane> working_set_;
  std::vector<std::uint32_t> plane_ids_;  ///< interned id per working-set slot
  linalg::Matrix hessian_;   ///< κ ⟨s_i, s_j⟩ over the working set
  linalg::Vector linear_;    ///< b_i − ⟨s_i, d⟩ at the current prox center
  linalg::Vector previous_gamma_;
  PlaneGramCache gram_;      ///< persists across CCCP rounds
  qp::WarmStore* warm_;      ///< trainer-owned; this device's slot is slot_
  std::size_t slot_;
  int qp_solves_ = 0;
  int qp_iterations_ = 0;
  int qp_unconverged_ = 0;
};

/// Server-side freshness bookkeeping behind the journal's staleness
/// fields. Tracks, per device, the aggregation step whose data the
/// server's cached block (w_t, v_t, ξ_t) was computed in; a block's age
/// at step k is the number of steps its data lags behind k.
class StalenessLedger {
 public:
  /// Buckets of the journal staleness histogram; the last is open-ended.
  static constexpr std::size_t kHistogramBuckets = 8;

  explicit StalenessLedger(std::size_t num_users);

  /// Block `t` now holds data computed in aggregation step `step`.
  void refresh(std::size_t t, std::uint64_t step);

  /// Age of block `t` at aggregation step `step`: 0 when refreshed this
  /// step, `step + 1` when still carrying the bootstrap-round state.
  std::uint64_t age(std::size_t t, std::uint64_t step) const;

  /// Max age over all blocks at step `step`.
  std::uint64_t max_age(std::uint64_t step) const;

  /// Bucket layout of the fleet staleness sketch the journal carries
  /// (sub-integer resolution up to 16 rounds, ~12% relative beyond).
  static obs::QuantileSketch::Spec staleness_sketch_spec() {
    return obs::QuantileSketch::Spec{/*min_value=*/1.0,
                                     /*max_value=*/65536.0,
                                     /*sub_buckets=*/8};
  }

  /// Fills record.max_staleness, record.staleness_hist (one count per
  /// block, bucket = min(age, kHistogramBuckets - 1)), and the sketch
  /// quantiles record.stale_p50/p90/p99.
  void fill_record(obs::RoundRecord& record, std::uint64_t step) const;

 private:
  /// Data step + 1 per device; 0 = bootstrap-era block, never refreshed.
  std::vector<std::uint64_t> data_step_;
};

}  // namespace plos::core
