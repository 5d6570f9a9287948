#include "core/distributed_plos.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/admm_device.hpp"
#include "linalg/vector.hpp"
#include "net/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "qp/warm_store.hpp"
#include "rng/engine.hpp"

namespace plos::core {

namespace {

// The per-device solver, the wire payload builders, and the round-status
// vocabulary live in core/admm_device.* — shared with the asynchronous
// quorum engine (src/async) so both engines run bitwise-identical device
// code.

// Shared implementation: participation = 1 is the synchronous algorithm
// (the availability RNG is bypassed entirely so results are bit-identical
// to the original code path); participation < 1 makes each device respond
// per ADMM iteration only with that probability.
DistributedPlosResult train_distributed_impl(
    const data::MultiUserDataset& dataset,
    const DistributedPlosOptions& options, net::SimNetwork* network,
    double participation, std::uint64_t schedule_seed) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  const std::size_t dim = dataset.dim();
  PLOS_CHECK(num_users > 0, "train_distributed_plos: no users");
  PLOS_CHECK(dim > 0, "train_distributed_plos: empty dataset");
  PLOS_CHECK(options.params.lambda > 0.0 && options.rho > 0.0,
             "train_distributed_plos: lambda and rho must be positive");
  if (network != nullptr) {
    PLOS_CHECK(network->num_devices() == num_users,
               "train_distributed_plos: network/device count mismatch");
  }

  PLOS_SPAN("plos.distributed_train");
  PLOS_LOG_INFO("distributed train start", obs::F("users", num_users),
                obs::F("dim", dim), obs::F("rho", options.rho),
                obs::F("participation", participation),
                obs::F("threads", parallel::resolve_num_threads(
                                      options.num_threads)));
  // Devices are simulated concurrently: each worker owns a disjoint set of
  // device indices per round (static chunking), so all per-device state —
  // working sets, w/v/xi slots, SimNetwork per-device ledgers — is written
  // by exactly one thread per round and results match the serial schedule
  // bitwise. Only cross-device aggregation (w0 update, objective) stays on
  // the calling thread, in fixed device order.
  parallel::ThreadPool pool(options.num_threads);
  const Stopwatch total_watch;
  DistributedPlosResult result;
  result.model = PersonalizedModel::zeros(num_users, dim);

  // Fault injection rides on the network: an attached, enabled FaultModel
  // switches message exchange to CRC32-framed transmit_* with retries and
  // derives per-round participation from the counter-based fault schedule.
  // All fault draws are pure functions of (seed, round, device, ...), so
  // workers can evaluate them concurrently without breaking the bitwise
  // determinism contract.
  const net::FaultModel* fault = nullptr;
  if (network != nullptr && network->fault_model().enabled()) {
    fault = &network->fault_model();
  }

  // Converged per-plane duals, one slot per device, carried across CCCP
  // rounds. Workers only ever touch their own device's slot, so the store
  // needs no locking under the pool's static chunking.
  qp::WarmStore warm_store(num_users);
  std::vector<AdmmDevice> devices;
  devices.reserve(num_users);
  for (std::size_t t = 0; t < num_users; ++t) {
    devices.emplace_back(dataset.users[t], num_users, options, &warm_store, t);
  }

  // --- bootstrap round: average of local SVMs as the initial w0 ----------
  linalg::Vector w0 = linalg::zeros(dim);
  if (options.svm_bootstrap) {
    PLOS_SPAN("plos.bootstrap");
    // Local SVM fits run in parallel on the devices; the upload accounting
    // and the server-side average stay in ascending device order so the
    // floating-point sum matches the serial path bitwise.
    std::vector<linalg::Vector> locals(num_users);
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      locals[t] = devices[t].bootstrap_weights();
      if (network != nullptr) {
        network->account_device_compute(t, device_watch.elapsed_seconds());
      }
    });
    std::size_t contributors = 0;
    const std::uint64_t bootstrap_round =
        network != nullptr ? network->current_round() : 0;
    for (std::size_t t = 0; t < num_users; ++t) {
      if (locals[t].empty()) continue;
      if (fault != nullptr && fault->offline(bootstrap_round, t)) {
        ++result.diagnostics.devices_offline_total;
        continue;
      }
      if (network != nullptr) {
        net::Serializer s;
        s.write_u32(/*message type*/ 0);
        s.write_vector(locals[t]);
        if (fault != nullptr) {
          const auto frame = net::frame_message(s.buffer());
          if (!network->transmit_to_server(t, frame).delivered) {
            ++result.diagnostics.uplink_failures_total;
            continue;  // bootstrap upload lost: average over the others
          }
        } else {
          network->send_to_server(t, s.size_bytes());
        }
      }
      linalg::axpy(1.0, locals[t], w0);
      ++contributors;
    }
    if (contributors > 0) {
      linalg::scale(w0, 1.0 / static_cast<double>(contributors));
    }
    if (network != nullptr) network->end_round();
  }
  if (linalg::norm(w0) == 0.0) {
    // Nobody provided labels: random symmetry-breaking direction.
    rng::Engine engine(options.seed);
    w0 = engine.gaussian_vector(dim);
    const double n = linalg::norm(w0);
    if (n > 0.0) linalg::scale(w0, 1.0 / n);
  }

  rng::Engine schedule(schedule_seed);
  std::vector<linalg::Vector> u(num_users, linalg::zeros(dim));
  std::vector<linalg::Vector> w(num_users, w0);
  std::vector<linalg::Vector> v(num_users, linalg::zeros(dim));
  linalg::Vector xi(num_users, 0.0);

  const double sqrt_t = std::sqrt(static_cast<double>(num_users));
  double previous_cccp_objective = std::numeric_limits<double>::infinity();

  const auto total_device_qp_solves = [&devices]() {
    int total = 0;
    for (const AdmmDevice& device : devices) total += device.qp_solves();
    return total;
  };
  const auto total_device_qp_iterations = [&devices]() {
    int total = 0;
    for (const AdmmDevice& device : devices) total += device.qp_iterations();
    return total;
  };
  const auto total_working_set_size = [&devices]() {
    std::size_t total = 0;
    for (const AdmmDevice& device : devices) total += device.working_set_size();
    return total;
  };

  // Telemetry baselines for per-iteration deltas. Snapshots are taken on
  // the aggregation thread at iteration boundaries (after the pool join),
  // so every journal field is deterministic at any thread count.
  const bool telemetry =
      options.journal != nullptr || options.watchdog != nullptr;
  net::SimNetwork::TrafficSnapshot previous_traffic;
  if (network != nullptr) previous_traffic = network->traffic_snapshot();
  // Cumulative link-latency sketch baseline: the journal carries per-step
  // quantiles of the delta between consecutive snapshots (DESIGN.md §15).
  obs::QuantileSketch previous_latency =
      network != nullptr ? network->latency_sketch() : obs::QuantileSketch();
  bool watchdog_aborted = false;

  // Server-block freshness for the journal's staleness fields. The
  // synchronous engine refreshes every participant at each aggregation
  // step and never evicts; sharing the ledger vocabulary with the async
  // quorum engine keeps degenerate-mode journals byte-identical. The step
  // counter spans CCCP rounds (one tick per ADMM iteration).
  StalenessLedger staleness(num_users);
  std::uint64_t aggregation_step = 0;

  for (int cccp = 0; cccp < options.cccp.max_iterations; ++cccp) {
    PLOS_SPAN("plos.cccp_round", "round", cccp);
    const Stopwatch round_watch;
    const int round_admm_before = result.diagnostics.admm_iterations_total;
    const int round_qp_before = total_device_qp_solves();
    result.diagnostics.cccp_iterations = cccp + 1;
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      devices[t].begin_cccp_round(w[t], cccp == 0, options.seed + t);
      if (network != nullptr) {
        network->account_device_compute(t, device_watch.elapsed_seconds());
      }
    });

    double objective = 0.0;
    for (int admm = 0; admm < options.max_admm_iterations; ++admm) {
      PLOS_SPAN("plos.admm_round", "iteration", admm);
      ++result.diagnostics.admm_iterations_total;
      const int iteration_qp_solves_before =
          telemetry ? total_device_qp_solves() : 0;
      const int iteration_qp_iterations_before =
          telemetry ? total_device_qp_iterations() : 0;
      const linalg::Vector w0_old = w0;
      std::vector<linalg::Vector> u_old = u;
      const std::uint64_t round =
          network != nullptr ? network->current_round() : 0;
      std::vector<char> available(num_users, 1);
      std::vector<char> participated(num_users, 0);
      std::vector<char> status(num_users, kParticipated);

      // The availability schedule draws stay on the calling thread in
      // ascending device order, exactly as the serial loop consumed the
      // stream (participation = 1 bypasses the RNG entirely).
      if (participation < 1.0) {
        for (std::size_t t = 0; t < num_users; ++t) {
          available[t] = schedule.bernoulli(participation) ? 1 : 0;
        }
      }

      // Scatter (w0, u_t), local solves, gather (w_t, v_t, ξ_t) — the T
      // independent per-device prox-QPs (Eq. 22), solved concurrently.
      // Unavailable devices (async schedule), churned-out devices, and
      // devices whose round trip failed keep their last uploads in force;
      // the server update below runs over whoever actually delivered.
      // A device's (w_t, v_t, ξ_t) slot is updated only once its upload
      // reaches the server — a lost upload leaves the server's cached view
      // in place even though the device's local working set advanced.
      pool.parallel_for(num_users, [&](std::size_t t) {
        if (!available[t]) {
          status[t] = kUnavailable;
          return;
        }
        if (fault != nullptr && fault->offline(round, t)) {
          status[t] = kOffline;
          return;
        }
        if (network != nullptr) {
          if (fault != nullptr) {
            const auto frame =
                net::frame_message(admm_broadcast_payload(w0, u[t]));
            if (!network->transmit_to_device(t, frame).delivered) {
              status[t] = kDownlinkFailed;
              return;  // device never received (w0, u_t) this round
            }
          } else {
            network->send_to_device(t, admm_broadcast_payload(w0, u[t]).size());
          }
        }
        PLOS_SPAN("plos.device_solve", "device", static_cast<double>(t));
        Stopwatch device_watch;
        auto sol = devices[t].solve(w0, u[t]);
        if (network != nullptr) {
          network->account_device_compute(t, device_watch.elapsed_seconds());
        }
        if (fault != nullptr && fault->misses_deadline(round, t)) {
          // Straggler past the server's deadline: the compute happened (and
          // was charged) but the upload is pointless — the server moved on.
          status[t] = kDeadlineMissed;
          return;
        }
        if (network != nullptr) {
          if (fault != nullptr) {
            const auto frame =
                net::frame_message(admm_update_payload(sol.w, sol.v, sol.xi));
            if (!network->transmit_to_server(t, frame).delivered) {
              status[t] = kUplinkFailed;
              return;
            }
          } else {
            network->send_to_server(t,
                                    admm_update_payload(sol.w, sol.v, sol.xi).size());
          }
        }
        w[t] = std::move(sol.w);
        v[t] = std::move(sol.v);
        xi[t] = sol.xi;
        participated[t] = 1;
      });

      // Degradation tallies and participation trace (fixed device order on
      // the calling thread).
      std::size_t participants = 0;
      for (std::size_t t = 0; t < num_users; ++t) {
        participants += participated[t] != 0 ? 1 : 0;
        switch (status[t]) {
          case kOffline:
            ++result.diagnostics.devices_offline_total;
            break;
          case kDownlinkFailed:
            ++result.diagnostics.downlink_failures_total;
            break;
          case kDeadlineMissed:
            ++result.diagnostics.deadline_misses_total;
            break;
          case kUplinkFailed:
            ++result.diagnostics.uplink_failures_total;
            break;
          default:
            break;
        }
      }
      const double participation_rate =
          static_cast<double>(participants) / static_cast<double>(num_users);
      result.diagnostics.participation_trace.push_back(participation_rate);

      // Server closed-form updates (Eq. 23).
      Stopwatch server_watch;
      double primal_sq = 0.0;
      double w_sq = 0.0, target_sq = 0.0, u_sq = 0.0;
      {
        PLOS_SPAN("plos.server_update");
        linalg::Vector acc = linalg::zeros(dim);
        for (std::size_t t = 0; t < num_users; ++t) {
          linalg::axpy(1.0, w[t], acc);
          linalg::axpy(-1.0, v[t], acc);
          linalg::axpy(1.0, u_old[t], acc);
        }
        linalg::scale(acc, options.rho / (2.0 + static_cast<double>(num_users) *
                                                    options.rho));
        w0 = std::move(acc);
        for (std::size_t t = 0; t < num_users; ++t) {
          linalg::Vector residual = linalg::sub(w[t], w0);
          linalg::axpy(-1.0, v[t], residual);
          // Dual variables refresh only for devices whose constraint block
          // actually re-solved this iteration (stale blocks keep their u).
          if (participated[t]) u[t] = linalg::add(u_old[t], residual);
          primal_sq += linalg::squared_norm(residual);
          w_sq += linalg::squared_norm(w[t]);
          linalg::Vector target = linalg::add(w0, v[t]);
          target_sq += linalg::squared_norm(target);
          u_sq += linalg::squared_norm(u[t]);
        }
      }

      objective = linalg::squared_norm(w0);
      for (std::size_t t = 0; t < num_users; ++t) {
        objective += options.params.lambda / static_cast<double>(num_users) *
                         linalg::squared_norm(v[t]) +
                     xi[t];
      }
      const double dual_residual =
          options.rho * std::sqrt(2.0 * static_cast<double>(num_users)) *
          std::sqrt(linalg::squared_distance(w0, w0_old));
      const double primal_residual = std::sqrt(primal_sq);
      if (network != nullptr) {
        network->account_server_compute(server_watch.elapsed_seconds());
        network->end_round();
      }

      // Participants' server blocks now hold this step's data; every other
      // cached block aged by one step.
      for (std::size_t t = 0; t < num_users; ++t) {
        if (participated[t]) staleness.refresh(t, aggregation_step);
      }

      result.diagnostics.objective_trace.push_back(objective);
      result.diagnostics.primal_residual_trace.push_back(primal_residual);
      result.diagnostics.dual_residual_trace.push_back(dual_residual);
      static obs::Gauge& primal_gauge =
          obs::metrics().gauge("plos.admm.primal_residual");
      static obs::Gauge& dual_gauge =
          obs::metrics().gauge("plos.admm.dual_residual");
      static obs::Gauge& objective_gauge =
          obs::metrics().gauge("plos.admm.objective");
      static obs::Gauge& participation_gauge =
          obs::metrics().gauge("plos.admm.participation_rate");
      primal_gauge.set(primal_residual);
      dual_gauge.set(dual_residual);
      objective_gauge.set(objective);
      participation_gauge.set(participation_rate);
      PLOS_LOG_TRACE("admm iteration", obs::F("cccp", cccp),
                     obs::F("admm", admm), obs::F("objective", objective),
                     obs::F("primal_residual", primal_residual),
                     obs::F("dual_residual", dual_residual),
                     obs::F("participation", participation_rate));

      if (telemetry) {
        obs::RoundRecord record;
        record.trainer = "distributed";
        record.cccp_round = cccp;
        record.admm_iteration = admm;
        record.objective = objective;
        record.objective_finite = std::isfinite(objective);
        record.primal_residual = primal_residual;
        record.dual_residual = dual_residual;
        record.constraints = total_working_set_size();
        record.qp_solves =
            total_device_qp_solves() - iteration_qp_solves_before;
        record.qp_iterations =
            total_device_qp_iterations() - iteration_qp_iterations_before;
        record.participation_rate = participation_rate;
        record.quorum_size = participants;
        staleness.fill_record(record, aggregation_step);
        // Participation breakdown as per-cause counters — identical code
        // to the async engine's, which keeps degenerate-mode journals
        // byte-identical (DESIGN.md §14).
        obs::CauseCounters causes(kDeviceRoundStatusCount);
        for (std::size_t t = 0; t < num_users; ++t) {
          causes.add(static_cast<std::size_t>(status[t]));
        }
        record.cause_counts = causes.counts();
        if (network != nullptr) {
          const auto traffic = network->traffic_snapshot();
          record.bytes_to_devices =
              traffic.bytes_to_devices - previous_traffic.bytes_to_devices;
          record.bytes_to_server =
              traffic.bytes_to_server - previous_traffic.bytes_to_server;
          record.messages_dropped =
              traffic.messages_dropped - previous_traffic.messages_dropped;
          record.retries = traffic.retries - previous_traffic.retries;
          previous_traffic = traffic;
          const obs::QuantileSketch latency = network->latency_sketch();
          const obs::QuantileSketch step_latency =
              latency.diff(previous_latency);
          record.lat_count = step_latency.count();
          if (!step_latency.empty()) {
            record.lat_p50 = step_latency.quantile(0.50);
            record.lat_p90 = step_latency.quantile(0.90);
            record.lat_p99 = step_latency.quantile(0.99);
          }
          previous_latency = latency;
        }
        if (options.journal != nullptr) options.journal->append(record);
        if (options.watchdog != nullptr &&
            options.watchdog->observe(record) ==
                obs::WatchdogAction::kAbort) {
          watchdog_aborted = true;
          break;
        }
      }
      ++aggregation_step;

      // Paper thresholds (Eq. 24) plus Boyd's relative terms.
      const double primal_threshold =
          sqrt_t * options.eps_abs +
          options.eps_rel * std::sqrt(std::max(w_sq, target_sq));
      const double dual_threshold =
          std::sqrt(2.0) * sqrt_t * options.eps_abs +
          options.eps_rel * options.rho * std::sqrt(u_sq);
      if (dual_residual <= dual_threshold &&
          primal_residual <= primal_threshold) {
        break;
      }
    }

    result.diagnostics.round_seconds.push_back(round_watch.elapsed_seconds());
    result.diagnostics.round_admm_iterations.push_back(
        result.diagnostics.admm_iterations_total - round_admm_before);
    result.diagnostics.round_qp_solves.push_back(total_device_qp_solves() -
                                                 round_qp_before);
    PLOS_LOG_DEBUG(
        "cccp round", obs::F("round", cccp), obs::F("objective", objective),
        obs::F("admm_iterations", result.diagnostics.round_admm_iterations.back()),
        obs::F("qp_solves", result.diagnostics.round_qp_solves.back()),
        obs::F("seconds", result.diagnostics.round_seconds.back()));

    if (watchdog_aborted) {
      result.diagnostics.watchdog_aborted = true;
      break;
    }
    if (std::abs(previous_cccp_objective - objective) <=
        options.cccp.objective_tolerance * (1.0 + std::abs(objective))) {
      break;
    }
    previous_cccp_objective = objective;
  }
  result.diagnostics.qp_solves = total_device_qp_solves();
  for (const AdmmDevice& device : devices) {
    result.diagnostics.qp_unconverged += device.qp_unconverged();
  }
  if (result.diagnostics.qp_unconverged > 0) {
    PLOS_LOG_WARN("device QP solves stopped unconverged",
                  obs::F("qp_unconverged", result.diagnostics.qp_unconverged),
                  obs::F("qp_solves", result.diagnostics.qp_solves));
  }

  result.model.global_weights = w0;
  for (std::size_t t = 0; t < num_users; ++t) {
    // Report consensus-consistent personal deviations w_t − w0 rather than
    // the local v_t (they coincide at exact convergence).
    result.model.user_deviations[t] = linalg::sub(w[t], w0);
  }
  result.diagnostics.train_seconds = total_watch.elapsed_seconds();
  if (network != nullptr) {
    result.diagnostics.fault_counters = network->fault_counters();
  }
  if (fault != nullptr) {
    const auto& d = result.diagnostics;
    double mean_participation = linalg::sum(d.participation_trace);
    if (!d.participation_trace.empty()) {
      mean_participation /= static_cast<double>(d.participation_trace.size());
    }
    PLOS_LOG_INFO(
        "fault degradation summary",
        obs::F("mean_participation", mean_participation),
        obs::F("offline", d.devices_offline_total),
        obs::F("deadline_misses", d.deadline_misses_total),
        obs::F("downlink_failures", d.downlink_failures_total),
        obs::F("uplink_failures", d.uplink_failures_total),
        obs::F("dropped", d.fault_counters.downlink_dropped +
                              d.fault_counters.uplink_dropped),
        obs::F("corrupted", d.fault_counters.downlink_corrupted +
                                d.fault_counters.uplink_corrupted),
        obs::F("retries", d.fault_counters.retries));
  }
  PLOS_LOG_INFO(
      "distributed train done",
      obs::F("cccp_rounds", result.diagnostics.cccp_iterations),
      obs::F("admm_iterations", result.diagnostics.admm_iterations_total),
      obs::F("qp_solves", result.diagnostics.qp_solves),
      obs::F("seconds", result.diagnostics.train_seconds));
  return result;
}

}  // namespace

DistributedPlosResult train_distributed_plos(
    const data::MultiUserDataset& dataset,
    const DistributedPlosOptions& options, net::SimNetwork* network) {
  return train_distributed_impl(dataset, options, network,
                                /*participation=*/1.0, /*schedule_seed=*/0);
}

DistributedPlosResult train_async_distributed_plos(
    const data::MultiUserDataset& dataset,
    const AsyncDistributedPlosOptions& options, net::SimNetwork* network) {
  PLOS_CHECK(options.participation > 0.0 && options.participation <= 1.0,
             "train_async_distributed_plos: participation outside (0, 1]");
  return train_distributed_impl(dataset, options.base, network,
                                options.participation, options.schedule_seed);
}

}  // namespace plos::core
