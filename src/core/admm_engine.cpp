#include "core/admm_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/admm_device.hpp"
#include "linalg/kernels.hpp"
#include "net/event_queue.hpp"
#include "net/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "qp/warm_store.hpp"
#include "rng/engine.hpp"

namespace plos::core {

namespace {

// A round trip that missed this step's cut or its deadline: the upload
// still arrives at `arrival` on the virtual clock and is folded into a
// later aggregate unless its data ages past the staleness bound first.
// While active, the device is busy and is not re-dispatched.
struct PendingUpload {
  bool active = false;
  double arrival = 0.0;         ///< absolute virtual seconds
  std::uint64_t data_step = 0;  ///< aggregation step the solve was based on
  AdmmDevice::LocalSolution sol;
  char cause = kLateUpload;  ///< kLateUpload | kDeadlineMissed
};

}  // namespace

AdmmEngineResult run_admm_engine(const data::MultiUserDataset& dataset,
                                 const AdmmEngineOptions& options,
                                 net::SimNetwork* network) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  const std::size_t dim = dataset.dim();
  const DistributedPlosOptions& base = options.base;
  PLOS_CHECK(num_users > 0, "admm engine: no users");
  PLOS_CHECK(dim > 0, "admm engine: empty dataset");
  PLOS_CHECK(base.params.lambda > 0.0 && base.rho > 0.0,
             "admm engine: lambda and rho must be positive");
  PLOS_CHECK(network == nullptr || network->num_devices() == num_users,
             "admm engine: network/device count mismatch");
  PLOS_CHECK(options.quorum > 0.0 && options.quorum <= 1.0,
             "admm engine: quorum outside (0, 1]");

  PLOS_LOG_INFO("admm train start", obs::F("users", num_users),
                obs::F("dim", dim), obs::F("quorum", options.quorum),
                obs::F("staleness_bound", options.staleness_bound),
                obs::F("adaptive_deadline", options.adaptive_deadline),
                obs::F("threads", parallel::resolve_num_threads(
                                      base.num_threads)));

  // Devices are simulated concurrently: each worker owns a disjoint set of
  // device indices per round (static chunking), so all per-device state —
  // working sets, solution slots, SimNetwork per-device ledgers — is
  // written by exactly one thread per round. Cross-device aggregation
  // stays on the calling thread, in fixed device order.
  parallel::ThreadPool pool(base.num_threads);
  const Stopwatch total_watch;
  AdmmEngineResult result;
  result.model = PersonalizedModel::zeros(num_users, dim);

  // Fault injection rides on the network; every draw is a pure function of
  // (seed, round, device, ...), so workers evaluate them concurrently.
  const net::FaultModel* fault = nullptr;
  if (network != nullptr && network->fault_model().enabled()) {
    fault = &network->fault_model();
  }

  qp::WarmStore warm_store(num_users);
  std::vector<AdmmDevice> devices;
  devices.reserve(num_users);
  for (std::size_t t = 0; t < num_users; ++t) {
    devices.emplace_back(dataset.users[t], num_users, base, &warm_store, t);
  }

  // --- bootstrap round: average of local SVMs as the initial w0 ----------
  linalg::Vector w0 = linalg::zeros(dim);
  if (base.svm_bootstrap) {
    PLOS_SPAN("plos.bootstrap");
    // Local SVM fits run in parallel; the upload accounting and the
    // server-side average stay in ascending device order.
    std::vector<linalg::Vector> locals(num_users);
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      locals[t] = devices[t].bootstrap_weights();
      if (network != nullptr) {
        network->account_device_compute(t, device_watch.elapsed_seconds());
      }
    });
    const bool any_labels =
        std::any_of(locals.begin(), locals.end(),
                    [](const linalg::Vector& local) { return !local.empty(); });
    // Churn or message loss can leave the bootstrap without a single upload
    // although devices hold labels; the server then reopens it the next
    // round (for at most max_admm_iterations rounds) rather than fall back
    // to a random direction and lose every label in the fleet.
    std::size_t contributors = 0;
    for (int attempt = 1;; ++attempt) {
      const std::uint64_t bootstrap_round =
          network != nullptr ? network->current_round() : 0;
      for (std::size_t t = 0; t < num_users; ++t) {
        if (locals[t].empty()) continue;
        if (fault != nullptr && fault->offline(bootstrap_round, t)) {
          ++result.diagnostics.devices_offline_total;
          continue;
        }
        net::Serializer s;
        s.write_u32(/*message type*/ 0);
        s.write_vector(locals[t]);
        if (fault != nullptr) {
          const auto frame = net::frame_message(s.buffer());
          if (!network->transmit_to_server(t, frame).delivered) {
            ++result.diagnostics.uplink_failures_total;
            continue;  // bootstrap upload lost: average over the others
          }
        } else if (network != nullptr) {
          network->send_to_server(t, s.size_bytes());
        }
        linalg::axpy(1.0, locals[t], w0);
        ++contributors;
        if (options.flight != nullptr) {
          obs::FlightEvent event;
          event.round = 0;
          event.device = static_cast<std::uint32_t>(t);
          event.kind = obs::FlightEventKind::kBootstrap;
          event.cause = static_cast<int>(kParticipated);
          options.flight->record(event);
        }
      }
      if (network != nullptr) network->end_round();
      if (contributors > 0 || !any_labels ||
          attempt >= base.max_admm_iterations) {
        break;
      }
    }
    if (contributors > 0) {
      linalg::scale(w0, 1.0 / static_cast<double>(contributors));
    }
  }
  if (linalg::norm(w0) == 0.0) {
    // Nobody provided labels: random symmetry-breaking direction.
    rng::Engine engine(base.seed);
    w0 = engine.gaussian_vector(dim);
    const double n = linalg::norm(w0);
    if (n > 0.0) linalg::scale(w0, 1.0 / n);
  }

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
    for (const AdmmDevice& device : devices) {
      total += device.qp_iterations();
    }
    return total;
  };
  const auto total_working_set_size = [&devices]() {
    std::size_t total = 0;
    for (const AdmmDevice& device : devices) {
      total += device.working_set_size();
    }
    return total;
  };

  // Telemetry baselines for per-step deltas, snapshotted on the
  // aggregation thread at step boundaries (deterministic at any thread
  // count). The journal carries per-step quantiles of the link-latency
  // sketch delta (DESIGN.md §15).
  const bool telemetry = base.journal != nullptr || base.watchdog != nullptr;
  net::SimNetwork::TrafficSnapshot previous_traffic;
  obs::QuantileSketch previous_latency;
  if (network != nullptr) {
    previous_traffic = network->traffic_snapshot();
    previous_latency = network->latency_sketch();
  }
  bool watchdog_aborted = false;

  // Observability loop closure: the controller walks the quorum and the
  // staleness bound from the journal's staleness sketch; when disabled the
  // given values stay in force verbatim. The flight recorder needs the
  // network's per-attempt transmit logs.
  const bool tuning = options.autotune.enabled;
  AutoTuner tuner(options.autotune, options.quorum, options.staleness_bound);
  double quorum_now = tuning ? tuner.quorum() : options.quorum;
  std::uint64_t staleness_bound_now =
      tuning ? tuner.staleness_bound() : options.staleness_bound;
  obs::FlightRecorder* const flight = options.flight;
  if (flight != nullptr && network != nullptr) network->set_attempt_log(true);

  // Scheduling state. The staleness ledger feeds the journal's staleness
  // fields; the step counter ticks once per ADMM iteration, spanning CCCP
  // rounds.
  StalenessLedger staleness(num_users);
  std::uint64_t aggregation_step = 0;
  double virtual_seconds = 0.0;
  AdaptiveDeadlines deadlines(num_users, options.adaptive_deadline,
                              options.deadline_slack, options.ewma_alpha,
                              options.fixed_deadline_s);
  std::vector<PendingUpload> pending(num_users);
  // Why each device last failed to deliver fresh — attributes a later
  // eviction of its block to a cause.
  std::vector<char> last_miss_cause(num_users, kParticipated);

  for (int cccp = 0; cccp < base.cccp.max_iterations; ++cccp) {
    PLOS_SPAN("plos.cccp_round", "round", cccp);
    const Stopwatch round_watch;
    const int round_admm_before = result.diagnostics.admm_iterations_total;
    const int round_qp_before = total_device_qp_solves();
    result.diagnostics.cccp_iterations = cccp + 1;
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      devices[t].begin_cccp_round(w[t], cccp == 0, base.seed + t);
      if (network != nullptr) {
        network->account_device_compute(t, device_watch.elapsed_seconds());
      }
    });
    // In-flight uploads were solved against the previous round's CCCP
    // linearization; folding them across the boundary would mix cutting
    // planes from two different sign patterns. Drop them — the devices
    // simply become free again, and their blocks keep aging toward the
    // staleness bound like any other miss.
    for (std::size_t t = 0; t < num_users; ++t) pending[t].active = false;

    double objective = 0.0;
    for (int admm = 0; admm < base.max_admm_iterations; ++admm) {
      PLOS_SPAN("plos.admm_round", "iteration", admm);
      ++result.diagnostics.admm_iterations_total;
      const int iteration_qp_solves_before =
          (telemetry || tuning) ? total_device_qp_solves() : 0;
      const int iteration_qp_iterations_before =
          (telemetry || tuning) ? total_device_qp_iterations() : 0;
      const linalg::Vector w0_old = w0;
      std::vector<linalg::Vector> u_old = u;
      const std::uint64_t round =
          network != nullptr ? network->current_round() : 0;
      std::vector<char> status(num_users, kParticipated);
      std::vector<char> fresh(num_users, 0);
      std::vector<double> late_weight(num_users, 0.0);
      std::uint64_t late_count = 0;
      std::uint64_t ev_offline = 0, ev_late = 0, ev_failed = 0;

      // Resets a server block whose data aged past the staleness bound:
      // the device re-bootstraps from the current consensus (w_t = w0,
      // v_t = 0, ξ_t = 0) with a cleared dual. u_old must be zeroed too —
      // the server accumulation below reads it.
      const auto evict = [&](std::size_t t, char cause) {
        if (flight != nullptr) {
          obs::FlightEvent event;
          event.round = aggregation_step;
          event.device = static_cast<std::uint32_t>(t);
          event.kind = obs::FlightEventKind::kEviction;
          event.cause = static_cast<int>(cause);
          event.t_start = virtual_seconds;
          event.t_end = virtual_seconds;
          event.staleness = staleness.age(t, aggregation_step);
          flight->record(event);
        }
        w[t] = w0_old;
        v[t] = linalg::zeros(dim);
        xi[t] = 0.0;
        u[t] = linalg::zeros(dim);
        u_old[t] = linalg::zeros(dim);
        staleness.refresh(t, aggregation_step);
        switch (cause) {
          case kOffline:
            ++ev_offline;
            break;
          case kDownlinkFailed:
          case kUplinkFailed:
            ++ev_failed;
            break;
          default:  // late, busy, deadline-missed
            ++ev_late;
            break;
        }
      };

      // -- fold late uploads that have arrived by `now` --------------------
      // Runs at the step's start, before dispatch, and again at the cut, so
      // the aggregate holds every upload the server has by then. Uploads
      // stashed at this step's own cut are skipped: they missed it (or
      // their deadline) and fold into a later aggregate.
      const auto fold_arrived = [&](double now) {
        for (std::size_t t = 0; t < num_users; ++t) {
          if (!pending[t].active) continue;
          if (pending[t].data_step == aggregation_step) continue;
          if (pending[t].arrival > now) {
            status[t] = kBusy;  // still in flight; not re-dispatched
            continue;
          }
          pending[t].active = false;
          const std::uint64_t age = aggregation_step - pending[t].data_step;
          if (age > staleness_bound_now) {
            // The cached upload is older than the bound: discard it and
            // evict the block outright — applying it would let data older
            // than S steps into the aggregate.
            evict(t, pending[t].cause);
            status[t] = pending[t].cause;
            continue;
          }
          w[t] = std::move(pending[t].sol.w);
          v[t] = std::move(pending[t].sol.v);
          xi[t] = pending[t].sol.xi;
          // Staleness-discounted dual refresh: an upload computed `age`
          // steps ago moves u_t with weight 1 / (1 + age).
          late_weight[t] = 1.0 / (1.0 + static_cast<double>(age));
          staleness.refresh(t, pending[t].data_step);
          ++late_count;
          status[t] = pending[t].cause;
          if (flight != nullptr) {
            obs::FlightEvent event;
            event.round = aggregation_step;
            event.device = static_cast<std::uint32_t>(t);
            event.kind = obs::FlightEventKind::kLateFold;
            event.cause = static_cast<int>(pending[t].cause);
            event.t_start = pending[t].arrival;
            event.t_end = now;
            event.staleness = age;
            flight->record(event);
          }
        }
      };
      fold_arrived(virtual_seconds);

      // -- dispatch: scatter, local solves, gather (buffered) --------------
      // The T independent per-device prox-QPs (Eq. 22), solved
      // concurrently; solutions are buffered and applied on the
      // aggregation thread once the event order decides who made the cut.
      // The per-device deadlines below are the engine's own; the fault
      // schedule's round deadline discards a straggler's upload outright
      // (its slowdown applies in every mode, through the completion time).
      std::vector<AdmmDevice::LocalSolution> solutions(num_users);
      std::vector<char> dispatched(num_users, 0);
      std::vector<char> delivered(num_users, 0);
      std::vector<double> completion(num_users, 0.0);
      // Per-device uplink attempt logs for the flight recorder. Workers
      // fill their own slot; the aggregation thread replays them in
      // ascending device order, so the log order never depends on worker
      // interleaving.
      std::vector<std::vector<net::SimNetwork::TransmitAttempt>>
          uplink_attempts(flight != nullptr ? num_users : 0);
      pool.parallel_for(num_users, [&](std::size_t t) {
        if (pending[t].active) return;  // busy
        if (fault != nullptr && fault->offline(round, t)) {
          status[t] = kOffline;
          return;
        }
        double link_seconds = 0.0;
        if (fault != nullptr) {
          const auto frame =
              net::frame_message(admm_broadcast_payload(w0, u[t]));
          const auto outcome = network->transmit_to_device(t, frame);
          if (!outcome.delivered) {
            status[t] = kDownlinkFailed;
            return;  // device never received (w0, u_t) this round
          }
          link_seconds += outcome.seconds;
        } else if (network != nullptr) {
          const auto payload = admm_broadcast_payload(w0, u[t]);
          network->send_to_device(t, payload.size());
          link_seconds += network->transfer_seconds_for(t, payload.size());
        }
        PLOS_SPAN("plos.device_solve", "device", static_cast<double>(t));
        Stopwatch device_watch;
        const int qp_iterations_before = devices[t].qp_iterations();
        auto sol = devices[t].solve(w0, u[t]);
        if (network != nullptr) {
          network->account_device_compute(t, device_watch.elapsed_seconds());
        }
        if (fault != nullptr && fault->misses_deadline(round, t)) {
          // Straggler past the schedule's round deadline: the compute
          // happened (and was charged) but the server moved on without it.
          status[t] = kDeadlineMissed;
          return;
        }
        bool upload_delivered = true;
        if (fault != nullptr) {
          const auto frame = net::frame_message(
              admm_update_payload(sol.w, sol.v, sol.xi));
          const auto outcome = network->transmit_to_server(t, frame);
          upload_delivered = outcome.delivered;
          link_seconds += outcome.seconds;
          if (!upload_delivered) status[t] = kUplinkFailed;
          if (flight != nullptr) uplink_attempts[t] = outcome.attempt_log;
        } else if (network != nullptr) {
          const auto payload = admm_update_payload(sol.w, sol.v, sol.xi);
          network->send_to_server(t, payload.size());
          const double upload_seconds =
              network->transfer_seconds_for(t, payload.size());
          link_seconds += upload_seconds;
          if (flight != nullptr) {
            uplink_attempts[t].push_back({0, upload_seconds});
          }
        }
        if (network != nullptr) {
          const double multiplier =
              fault != nullptr ? fault->time_multiplier(round, t) : 1.0;
          completion[t] = completion_seconds(
              options.latency, link_seconds,
              devices[t].qp_iterations() - qp_iterations_before,
              network->device_profile(t).cpu_slowdown, multiplier, round, t);
        }
        solutions[t] = std::move(sol);
        dispatched[t] = 1;
        delivered[t] = upload_delivered ? 1 : 0;
      });

      // -- event-ordered round cut ----------------------------------------
      // One event per dispatched device at min(completion, deadline); the
      // round cuts at the quorum-th on-time upload, or — if the quorum is
      // unreachable this step — at the last event (failed and straggling
      // devices must not hang the server). The target counts FRESH uploads
      // against the whole fleet: cheaper variants (relative to the
      // dispatched subset, or crediting folded late arrivals) cut rounds
      // faster but starve the aggregate of fresh updates, and the extra
      // ADMM iterations cost more simulated time than the shorter rounds
      // save. The queue's total order makes the cut independent of worker
      // interleaving.
      net::EventQueue queue;
      std::size_t dispatched_count = 0;
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] == 0) continue;
        ++dispatched_count;
        const double device_deadline = deadlines.deadline(t);
        const bool on_time =
            delivered[t] != 0 && completion[t] <= device_deadline;
        net::Event event;
        event.time = std::min(completion[t], device_deadline);
        event.round = round;
        event.device = static_cast<std::uint64_t>(t);
        event.kind =
            on_time ? net::EventKind::kUpload : net::EventKind::kDeadline;
        queue.push(event);
      }
      const std::size_t round_quorum = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 quorum_now * static_cast<double>(num_users))));
      double t_cut = 0.0;
      std::size_t uploads_seen = 0;
      while (!queue.empty()) {
        const net::Event event = queue.pop();
        t_cut = event.time;
        if (event.kind == net::EventKind::kUpload) {
          ++uploads_seen;
          if (uploads_seen >= round_quorum) break;
        }
      }
      if (uploads_seen == 0 && t_cut == 0.0) {
        // Nothing was dispatched (everyone busy or offline): advance the
        // clock to the earliest in-flight arrival so the loop makes
        // progress instead of spinning at a frozen virtual time.
        double min_arrival = std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < num_users; ++t) {
          if (pending[t].active) {
            min_arrival = std::min(min_arrival, pending[t].arrival);
          }
        }
        if (std::isfinite(min_arrival)) {
          t_cut = std::max(0.0, min_arrival - virtual_seconds);
        }
      }

      // -- classify dispatched devices against the cut ---------------------
      std::uint64_t fresh_count = 0;
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] == 0) continue;
        const double device_deadline = deadlines.deadline(t);
        const bool on_time =
            delivered[t] != 0 && completion[t] <= device_deadline;
        if (on_time && completion[t] <= t_cut) {
          w[t] = std::move(solutions[t].w);
          v[t] = std::move(solutions[t].v);
          xi[t] = solutions[t].xi;
          fresh[t] = 1;
          ++fresh_count;
          status[t] = kParticipated;
          staleness.refresh(t, aggregation_step);
        } else if (delivered[t] != 0) {
          // Arrives after the cut (or past its deadline): stash it; the
          // device stays busy until the upload lands on the virtual clock.
          pending[t].active = true;
          pending[t].arrival = virtual_seconds + completion[t];
          pending[t].data_step = aggregation_step;
          pending[t].sol = std::move(solutions[t]);
          pending[t].cause = on_time ? static_cast<char>(kLateUpload)
                                     : static_cast<char>(
                                           kDeadlineMissed);
          status[t] = pending[t].cause;
        }
        // Undelivered uploads keep the failure status the worker set.
      }

      // -- flight recorder: replay this step's device lifecycles -----------
      // Aggregation thread only, ascending device order: attempt slices are
      // laid back to back so the last one ends at the device's completion
      // time on the virtual clock (start clamped to the round start — the
      // completion jitter can undercut the raw attempt windows).
      if (flight != nullptr) {
        const double round_start = virtual_seconds;
        for (std::size_t t = 0; t < num_users; ++t) {
          if (dispatched[t] == 0) continue;
          const auto& attempts = uplink_attempts[t];
          std::vector<double> attempt_seconds;
          for (const auto& attempt : attempts) {
            attempt_seconds.push_back(attempt.seconds);
          }
          const double attempt_total =
              linalg::kernels::serial_sum(attempt_seconds);
          double slice_start = std::max(
              round_start, round_start + completion[t] - attempt_total);
          for (std::size_t k = 0; k < attempts.size(); ++k) {
            obs::FlightEvent event;
            event.round = aggregation_step;
            event.device = static_cast<std::uint32_t>(t);
            event.attempt = static_cast<std::uint32_t>(k + 1);
            event.kind = obs::FlightEventKind::kUploadAttempt;
            event.cause = attempts[k].result;
            event.t_start = slice_start;
            event.t_end = slice_start + attempts[k].seconds;
            flight->record(event);
            slice_start = event.t_end;
          }
          const double device_deadline = deadlines.deadline(t);
          if (delivered[t] != 0 && completion[t] > device_deadline &&
              std::isfinite(device_deadline)) {
            obs::FlightEvent event;
            event.round = aggregation_step;
            event.device = static_cast<std::uint32_t>(t);
            event.kind = obs::FlightEventKind::kDeadlineMiss;
            event.cause = static_cast<int>(kDeadlineMissed);
            event.t_start = round_start + device_deadline;
            event.t_end = round_start + completion[t];
            flight->record(event);
          }
        }
        obs::FlightEvent cut;
        cut.round = aggregation_step;
        cut.device = obs::kFlightServerDevice;
        cut.kind = obs::FlightEventKind::kQuorumCut;
        cut.t_start = round_start;
        cut.t_end = round_start + t_cut;
        cut.staleness = fresh_count;
        flight->record(cut);
      }

      // Feed the deadline tracker after classification, ascending (the
      // EWMA influences the *next* dispatch, never the current cut).
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] != 0 && delivered[t] != 0) {
          deadlines.observe(t, completion[t]);
        }
      }
      virtual_seconds += t_cut;
      // Uploads from earlier steps that landed before the cut join this
      // aggregate: the server holds them already.
      fold_arrived(virtual_seconds);

      // -- bounded staleness: evict blocks that aged past the bound --------
      // Runs before the server update, so no block older than S steps ever
      // enters an aggregate.
      for (std::size_t t = 0; t < num_users; ++t) {
        if (staleness.age(t, aggregation_step) > staleness_bound_now) {
          evict(t, last_miss_cause[t]);
        }
      }

      // Degradation tallies and miss-cause tracking (fixed device order).
      obs::CauseCounters causes(kDeviceRoundStatusCount);
      for (std::size_t t = 0; t < num_users; ++t) {
        causes.add(static_cast<std::size_t>(status[t]));
        if (fresh[t] != 0) {
          last_miss_cause[t] = kParticipated;
        } else if (status[t] != kParticipated) {
          last_miss_cause[t] = status[t];
        }
      }
      const std::vector<std::uint64_t>& cause_counts = causes.counts();
      result.diagnostics.devices_offline_total += cause_counts[kOffline];
      result.diagnostics.downlink_failures_total +=
          cause_counts[kDownlinkFailed];
      result.diagnostics.deadline_misses_total += cause_counts[kDeadlineMissed];
      result.diagnostics.uplink_failures_total += cause_counts[kUplinkFailed];
      const double participation_rate = static_cast<double>(fresh_count) /
                                        static_cast<double>(num_users);
      result.diagnostics.participation_trace.push_back(participation_rate);
      result.async.quorum_trace.push_back(fresh_count);
      result.async.late_uploads_total += late_count;
      result.async.evictions_offline_total += ev_offline;
      result.async.evictions_late_total += ev_late;
      result.async.evictions_failed_total += ev_failed;
      result.async.max_staleness_seen =
          std::max(result.async.max_staleness_seen,
                   staleness.max_age(aggregation_step));

      // -- server closed-form updates (Eq. 23) ----------------------------
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
        linalg::scale(acc, base.rho / (2.0 + static_cast<double>(num_users) *
                                                 base.rho));
        w0 = std::move(acc);
        for (std::size_t t = 0; t < num_users; ++t) {
          linalg::Vector residual = linalg::sub(w[t], w0);
          linalg::axpy(-1.0, v[t], residual);
          // Fresh blocks take the full dual step; late-folded blocks move
          // theirs by the staleness discount; everyone else (missing or
          // stale blocks) keeps u in force.
          if (fresh[t] != 0) {
            u[t] = linalg::add(u_old[t], residual);
          } else if (late_weight[t] > 0.0) {
            u[t] = u_old[t];
            linalg::axpy(late_weight[t], residual, u[t]);
          }
          primal_sq += linalg::squared_norm(residual);
          w_sq += linalg::squared_norm(w[t]);
          linalg::Vector target = linalg::add(w0, v[t]);
          target_sq += linalg::squared_norm(target);
          u_sq += linalg::squared_norm(u[t]);
        }
      }

      objective = linalg::squared_norm(w0);
      for (std::size_t t = 0; t < num_users; ++t) {
        objective += base.params.lambda / static_cast<double>(num_users) *
                         linalg::squared_norm(v[t]) +
                     xi[t];
      }
      const double dual_residual =
          base.rho * std::sqrt(2.0 * static_cast<double>(num_users)) *
          std::sqrt(linalg::squared_distance(w0, w0_old));
      const double primal_residual = std::sqrt(primal_sq);
      if (network != nullptr) {
        network->account_server_compute(server_watch.elapsed_seconds());
        network->end_round();
      }
      if (flight != nullptr) {
        obs::FlightEvent event;
        event.round = aggregation_step;
        event.device = obs::kFlightServerDevice;
        event.kind = obs::FlightEventKind::kAggregate;
        event.t_start = virtual_seconds;
        event.t_end = virtual_seconds;
        event.staleness = fresh_count;
        flight->record(event);
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
                     obs::F("quorum", fresh_count),
                     obs::F("late", late_count),
                     obs::F("dispatched", dispatched_count),
                     obs::F("round_quorum", round_quorum),
                     obs::F("t_cut", t_cut));

      if (telemetry || tuning) {
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
        record.quorum_size = fresh_count;
        record.late_uploads = late_count;
        record.evictions_offline = ev_offline;
        record.evictions_late = ev_late;
        record.evictions_failed = ev_failed;
        staleness.fill_record(record, aggregation_step);
        record.cause_counts = cause_counts;
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
        if (tuning) {
          // Journal the knobs in force for THIS step, then let the
          // controller read the very record it will be journaled in — the
          // decision and its trigger land beside the evidence.
          record.tuned_quorum = quorum_now;
          record.tuned_staleness_bound = staleness_bound_now;
          const AutoTuneDecision decision = tuner.observe(record);
          record.tune_event = decision.event;
          record.tune_trigger = decision.trigger;
          if (record.tune_event[0] != '\0' && record.tune_event != "hold") {
            ++result.async.tune_actions;
          }
          quorum_now = tuner.quorum();
          staleness_bound_now = tuner.staleness_bound();
        }
        if (base.journal != nullptr) base.journal->append(record);
        if (base.watchdog != nullptr &&
            base.watchdog->observe(record) == obs::WatchdogAction::kAbort) {
          watchdog_aborted = true;
          break;
        }
      }
      ++aggregation_step;

      if (options.on_aggregate) {
        options.on_aggregate(
            AdmmAggregateView{aggregation_step, virtual_seconds, w0, w});
      }

      // Paper thresholds (Eq. 24) plus Boyd's relative terms.
      const double primal_threshold =
          sqrt_t * base.eps_abs +
          base.eps_rel * std::sqrt(std::max(w_sq, target_sq));
      const double dual_threshold =
          std::sqrt(2.0) * sqrt_t * base.eps_abs +
          base.eps_rel * base.rho * std::sqrt(u_sq);
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
        "cccp round", obs::F("round", cccp),
        obs::F("objective", objective),
        obs::F("admm_iterations",
               result.diagnostics.round_admm_iterations.back()),
        obs::F("qp_solves", result.diagnostics.round_qp_solves.back()),
        obs::F("virtual_seconds", virtual_seconds));

    if (watchdog_aborted) {
      result.diagnostics.watchdog_aborted = true;
      break;
    }
    if (std::abs(previous_cccp_objective - objective) <=
        base.cccp.objective_tolerance * (1.0 + std::abs(objective))) {
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
  result.async.virtual_seconds = virtual_seconds;
  result.async.final_quorum = quorum_now;
  result.async.final_staleness_bound = staleness_bound_now;

  PLOS_LOG_INFO(
      "admm train done",
      obs::F("cccp_rounds", result.diagnostics.cccp_iterations),
      obs::F("admm_iterations", result.diagnostics.admm_iterations_total),
      obs::F("qp_solves", result.diagnostics.qp_solves),
      obs::F("late_uploads", result.async.late_uploads_total),
      obs::F("evictions", result.async.evictions_offline_total +
                              result.async.evictions_late_total +
                              result.async.evictions_failed_total),
      obs::F("max_staleness", result.async.max_staleness_seen),
      obs::F("virtual_seconds", result.async.virtual_seconds),
      obs::F("seconds", result.diagnostics.train_seconds));
  return result;
}

}  // namespace plos::core
