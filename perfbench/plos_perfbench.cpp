// PLOS training benchmark program: runs one workload per process, closed
// loop (one training job in flight, 4 pool threads), checks every model it
// trains, and prints one JSON result object as its last stdout line.
//
//   plos_perfbench --workload central_body --seed 7 --seconds 35 --trace 0
//                  [--out-dir DIR]
//
// --trace 0 repeats the training call until --seconds have passed and
// reports the end-to-end metrics (medians over the repetitions; times are
// scaled to a reference host speed, see "host-speed reference"). --trace 1
// alternates untraced calls with calls that have the library's phase
// profiler and metrics registry switched on at 4 threads, then makes one
// traced call at 1 thread, and reports the per-layer metrics; it also
// writes the benchmark's own spans as Chrome-trace JSON and the library's
// profile JSON to --out-dir.
//
// It calls only public library functions. Every workload uses the
// 20-user body-sensor population, labels on every other user at rate 0.06,
// and a round journal, as `plos_run --dataset body` does.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "async/async_admm.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "core/model_io.hpp"
#include "data/labeling.hpp"
#include "net/serialize.hpp"
#include "net/simnet.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "rng/engine.hpp"
#include "sensing/body_sensor.hpp"

namespace {

using namespace plos;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;
constexpr double kRevealRate = 0.06;
constexpr std::uint64_t kPopulationSeed = 42;
// Set-up is repeated and its median reported, so a slow first allocation
// does not decide setup_s.
constexpr int kSetupReps = 5;
// A run trains its seeded orderings of the population in turn, so train_s
// is a median over up to this many different inputs: the work per call
// varies by about 10% between orderings, more than between repetitions.
constexpr int kInputs = 10;
// A run makes at least this many calls even when --seconds is shorter.
constexpr std::size_t kMinTrainRuns = 3;
// The traced run alternates this many untraced and traced calls and takes
// obs.trace_overhead as the ratio of their medians.
constexpr int kOverheadPairs = 3;
// Accuracy band: a model outside [reference - band, reference + band] fails
// the output check. The references are the workloads' accuracy at the
// commit that introduced the benchmark (see README.md); the band admits an
// intended numeric change of the solvers but not a broken model.
constexpr double kAccuracyBand = 0.05;

enum class Workload { kCentralBody, kFleetSyncBody, kFleetAsyncStraggler };

struct WorkloadSpec {
  const char* name;
  Workload kind;
  double reference_accuracy;
  // Host-speed samples around each training call: reference units per
  // sample (about a fifth of a call's time; smaller samples added their own
  // noise) and the threads that run them, as many as the call keeps busy
  // on its blocking path (the central dual QP is serial; the fleets fill
  // the pool).
  int reference_units;
  int reference_threads;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"central_body", Workload::kCentralBody, 0.8928, 600, 1},
    {"fleet_sync_body", Workload::kFleetSyncBody, 0.8467, 120, kThreads},
    {"fleet_async_straggler", Workload::kFleetAsyncStraggler, 0.8333, 200,
     kThreads},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Lowers the kernel's peak-RSS mark of this process to its current RSS
/// (Linux: 5 written to /proc/self/clear_refs), so peak_rss_mb() covers
/// only what runs afterwards. Returns false where that is unsupported.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Peak RSS since reset_peak_rss() (VmHWM in /proc/self/status), or the
/// process's lifetime peak where /proc cannot be read.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(obs::peak_rss_kb()) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---- benchmark spans -----------------------------------------------------

/// In-memory record of the benchmark's own spans around each public call:
/// name, start, end and parent, all sharing the run's id. Written out as
/// Chrome-trace JSON when the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  void open(const char* name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back(Span{name, now_us(), 0.0, parent});
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span and returns its duration in ms.
  double close() {
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.end_us = now_us();
    return (span.end_us - span.start_us) / 1000.0;
  }

  std::string to_chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buffer[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(buffer, sizeof buffer,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run_id\":\"%s\","
                    "\"span_id\":%zu,\"parent_id\":%d}}",
                    i == 0 ? "" : ",", span.name.c_str(), span.start_us,
                    span.end_us - span.start_us, run_id_.c_str(), i,
                    span.parent);
      out += buffer;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Times `body` as a span named `name`; returns the span's duration in ms.
double timed_span(SpanRecorder& spans, const char* name,
                  const std::function<void()>& body) {
  spans.open(name);
  body();
  return spans.close();
}

// ---- workload set-up -----------------------------------------------------

struct SetupTiming {
  double generate_ms = 0.0;
  double reveal_ms = 0.0;
};

// The workload seed shuffles the order of the users and of each user's
// windows; the population and its revealed labels are fixed. Every seed
// therefore poses the same training problem in a different order. Seeds
// that redraw the population or the labels change the work per call by up
// to 2x (README.md), which no median over a run could hide.
struct Ordering {
  std::vector<std::size_t> users;
  /// windows[k]: the window order of user users[k].
  std::vector<std::vector<std::size_t>> windows;
};

std::vector<Ordering> draw_orderings(const data::MultiUserDataset& population,
                                     std::uint64_t seed, int count) {
  rng::Engine engine(seed);
  std::vector<Ordering> orderings(count);
  for (Ordering& ordering : orderings) {
    ordering.users.resize(population.num_users());
    std::iota(ordering.users.begin(), ordering.users.end(), std::size_t{0});
    engine.shuffle(ordering.users);
    for (const std::size_t t : ordering.users) {
      std::vector<std::size_t> order(population.users[t].num_samples());
      std::iota(order.begin(), order.end(), std::size_t{0});
      engine.shuffle(order);
      ordering.windows.push_back(std::move(order));
    }
  }
  return orderings;
}

/// The population in the given order. Built just before the call that
/// trains on it, outside the timed region, so only one ordered copy is
/// resident at a time.
data::MultiUserDataset ordered_copy(const data::MultiUserDataset& population,
                                    const Ordering& ordering) {
  data::MultiUserDataset dataset;
  dataset.users.reserve(ordering.users.size());
  for (std::size_t k = 0; k < ordering.users.size(); ++k) {
    const data::UserData& user = population.users[ordering.users[k]];
    data::UserData& copy = dataset.users.emplace_back();
    for (const std::size_t i : ordering.windows[k]) {
      copy.samples.push_back(user.samples[i]);
      copy.true_labels.push_back(user.true_labels[i]);
      copy.revealed.push_back(user.revealed[i]);
    }
  }
  return dataset;
}

/// The 20-user body-sensor population with labels on every other user.
data::MultiUserDataset make_population(SpanRecorder& spans,
                                       SetupTiming& timing) {
  data::MultiUserDataset population;
  timing.generate_ms = timed_span(spans, "sensing.generate", [&] {
    rng::Engine engine(kPopulationSeed);
    population = sensing::generate_body_sensor_dataset({}, engine);
  });
  timing.reveal_ms = timed_span(spans, "data.reveal", [&] {
    std::vector<std::size_t> providers;
    for (std::size_t t = 0; t < population.num_users(); t += 2) {
      providers.push_back(t);
    }
    rng::Engine label_engine(kPopulationSeed + 1);
    data::reveal_labels(population, providers, kRevealRate, label_engine);
  });
  return population;
}

// abl09's chronic stragglers: devices t % 10 < 3 run 6x-slower CPUs, so a
// barrier always waits for them and a 60% quorum never has to.
bool is_chronic_straggler(std::size_t device) { return device % 10 < 3; }

std::unique_ptr<net::SimNetwork> make_network(Workload kind,
                                              std::size_t num_devices,
                                              std::uint64_t seed) {
  if (kind == Workload::kCentralBody) return nullptr;
  auto network = std::make_unique<net::SimNetwork>(
      num_devices, net::DeviceProfile{}, net::LinkProfile{});
  if (kind == Workload::kFleetAsyncStraggler) {
    for (std::size_t t = 0; t < num_devices; ++t) {
      if (!is_chronic_straggler(t)) continue;
      net::DeviceProfile profile;
      profile.cpu_slowdown *= 6.0;
      network->set_device_profile(t, profile);
    }
    net::FaultSpec faults;
    faults.drop_probability = 0.05;
    faults.corrupt_probability = 0.02;
    faults.seed = seed;
    network->set_fault_model(net::FaultModel(faults));
  }
  return network;
}

/// Mean KB per device that centralized training moves: each user's windows
/// and revealed labels up, its personal model down, in the same wire
/// encoding the fleets are charged for. This is the traffic the fleet
/// workloads' device_kb is compared against.
double central_device_kb(const data::MultiUserDataset& dataset,
                         const core::PersonalizedModel& model) {
  std::size_t bytes = 0;
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    const data::UserData& user = dataset.users[t];
    net::Serializer upload;
    for (std::size_t i = 0; i < user.num_samples(); ++i) {
      upload.write_vector(user.samples[i]);
      const int label = user.revealed[i] ? user.true_labels[i] : 0;
      upload.write_u32(static_cast<std::uint32_t>(label + 1));
    }
    net::Serializer download;
    download.write_vector(model.user_weights(t));
    bytes += upload.size_bytes() + download.size_bytes();
  }
  return static_cast<double>(bytes) / 1024.0 /
         static_cast<double>(dataset.num_users());
}

// ---- host-speed reference ------------------------------------------------
//
// On a shared machine, load from outside the benchmark can change the
// speed by up to 2x within minutes (STEADINESS.md), and a call's wall time
// moves with it. So
// every timed call runs between two samples of fixed work that is the
// benchmark's own, and the end-to-end times are reported at a reference
// speed: wall time x 1 ms / (the samples' mean ms per reference unit), the
// time the call would take on a host where one unit takes 1 ms. The
// reference work neither calls the library nor reads its types, so a
// library change moves the scaled time exactly as it moves the wall time.

constexpr double kReferenceUnitMs = 1.0;
constexpr int kSetupReferenceUnits = 60;
// The reference windows have the population's shape: 2760 windows of 121.
constexpr std::size_t kReferenceWindows = 2760;
constexpr std::size_t kReferenceDim = 121;

std::vector<double> make_reference_windows() {
  std::vector<double> windows(kReferenceWindows * kReferenceDim);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (double& value : windows) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    value = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  }
  return windows;
}

/// Reference unit `u`: every window dotted with four directions (the access
/// pattern of a separation pass), then a small dense projected-gradient loop
/// with a sort per step (that of a QP solve). The directions depend on `u`,
/// so no two units compute the same thing. Returns a checksum, which the
/// caller compares so the work is not elided.
double reference_unit(const std::vector<double>& windows, int u) {
  std::vector<double> directions(4 * kReferenceDim);
  for (std::size_t i = 0; i < directions.size(); ++i) {
    directions[i] = 1.0 / static_cast<double>(1 + (i * 7 + u) % 13);
  }
  double checksum = 0.0;
  for (std::size_t row = 0; row < kReferenceWindows; ++row) {
    const double* x = windows.data() + row * kReferenceDim;
    for (std::size_t k = 0; k < 4; ++k) {
      const double* w = directions.data() + k * kReferenceDim;
      double dot = 0.0;
      for (std::size_t i = 0; i < kReferenceDim; ++i) dot += w[i] * x[i];
      checksum += std::clamp(dot, -1.0, 1.0);
    }
  }
  constexpr std::size_t n = 64;
  std::vector<double> q(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      q[i * n + j] =
          (i == j ? 2.0 : 0.0) + 1.0 / static_cast<double>(1 + i + j);
    }
  }
  std::vector<double> alpha(n, 1.0 / n);
  std::vector<double> grad(n);
  std::vector<double> sorted(n);
  for (int step = 0; step < 40; ++step) {
    for (std::size_t i = 0; i < n; ++i) {
      double g = -1.0;
      for (std::size_t j = 0; j < n; ++j) g += q[i * n + j] * alpha[j];
      grad[i] = g;
    }
    for (std::size_t i = 0; i < n; ++i) alpha[i] -= 0.05 * grad[i];
    sorted = alpha;
    std::sort(sorted.begin(), sorted.end());
    const double shift = sorted[n / 2];
    for (double& a : alpha) a = std::max(0.0, a - shift) + 1e-3;
  }
  for (const double a : alpha) checksum += a;
  return checksum;
}

/// Samples the host's current speed. `checksums_agree` turns false if two
/// samples of the same size ever disagree.
class HostSpeed {
 public:
  HostSpeed() : windows_(make_reference_windows()) {}

  /// `threads` threads each run `units` reference units (so one slow core
  /// shows, as it would behind the pool's barrier); returns the wall ms per
  /// unit.
  double sample_ms(int units, int threads) {
    std::vector<double> checksums(threads, 0.0);
    const auto work = [&](int t) {
      for (int u = 0; u < units; ++u) {
        checksums[t] += reference_unit(windows_, u);
      }
    };
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) workers.emplace_back(work, t);
    work(0);
    for (std::thread& worker : workers) worker.join();
    const double ms = 1000.0 * seconds_since(start) / units;
    const double expected =
        checksums_.try_emplace(units, checksums[0]).first->second;
    for (const double sum : checksums) checksums_agree_ &= sum == expected;
    return ms;
  }

  bool checksums_agree() const { return checksums_agree_; }

 private:
  std::vector<double> windows_;
  std::map<int, double> checksums_;  ///< first checksum per sample size
  bool checksums_agree_ = true;
};

/// `wall_s` at the reference speed, given the unit times sampled just
/// before and just after it.
double at_reference_speed(double wall_s, double before_ms, double after_ms) {
  return wall_s * kReferenceUnitMs / (0.5 * (before_ms + after_ms));
}

// ---- one training call ---------------------------------------------------

struct TrainOutcome {
  double train_s = 0.0;
  double cpu_s = 0.0;
  double journal_jsonl_ms = 0.0;
  core::AccuracyReport accuracy;
  bool finite = true;
  // FNV-1a digests of the serialized model and the journal JSONL: the
  // output check compares these, so a run keeps no copies of either.
  std::uint64_t model_digest = 0;
  std::uint64_t journal_digest = 0;
  std::size_t journal_bytes = 0;
  std::size_t journal_records = 0;
  int cccp_rounds = 0;
  bool cccp_capped = false;
  double journal_qp_iterations = 0.0;
  double device_kb = 0.0;
  // Fleet workloads.
  double net_bytes = 0.0;
  double net_messages = 0.0;
  double net_retries = 0.0;
  double net_failed = 0.0;
  // Async workload.
  std::optional<async::AsyncQuorumDiagnostics> async;
  std::vector<double> round_gaps_ms;
};

bool model_is_finite(const core::PersonalizedModel& model) {
  const auto finite = [](const linalg::Vector& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  return finite(model.global_weights) &&
         std::all_of(model.user_deviations.begin(),
                     model.user_deviations.end(), finite);
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

/// True when CCCP stopped at its round cap while the last round still
/// changed the objective by more than the tolerance, so the call would have
/// run another round. `round_objectives` holds the objective at the end of
/// each accepted round; a round the descent safeguard rejected is missing
/// from it, and such a call stopped on its own.
bool stopped_at_cccp_cap(const std::vector<double>& round_objectives,
                         int rounds, const core::CccpOptions& cccp) {
  if (rounds < cccp.max_iterations) return false;
  const std::size_t n = round_objectives.size();
  if (n < static_cast<std::size_t>(rounds)) return false;
  if (n < 2) return true;
  const double last = round_objectives[n - 1];
  return std::fabs(round_objectives[n - 2] - last) >
         cccp.objective_tolerance * (1.0 + std::fabs(last));
}

/// The fleets trace the objective per ADMM iteration; a CCCP round's
/// objective is that of its last ADMM iteration.
std::vector<double> round_end_objectives(
    const core::DistributedPlosDiagnostics& diagnostics) {
  std::vector<double> objectives;
  std::size_t end = 0;
  for (const int iterations : diagnostics.round_admm_iterations) {
    end += static_cast<std::size_t>(iterations);
    if (iterations > 0 && end <= diagnostics.objective_trace.size()) {
      objectives.push_back(diagnostics.objective_trace[end - 1]);
    }
  }
  return objectives;
}

TrainOutcome train_once(Workload kind, const data::MultiUserDataset& dataset,
                        std::uint64_t seed, int threads, bool time_rounds,
                        SpanRecorder& spans) {
  TrainOutcome out;
  obs::Journal journal;
  auto network = make_network(kind, dataset.num_users(), seed);
  core::PersonalizedModel model;
  Clock::time_point last_aggregate;

  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  switch (kind) {
    case Workload::kCentralBody: {
      core::CentralizedPlosOptions options;
      options.num_threads = threads;
      options.journal = &journal;
      // The reference input stops after 4 CCCP rounds; a third of the
      // seeded orderings would take a 5th (+30% work). Capping at 4 keeps
      // the work per call the same for every seed.
      options.cccp.max_iterations = 4;
      timed_span(spans, "core.train_centralized_plos", [&] {
        auto result = core::train_centralized_plos(dataset, options);
        model = std::move(result.model);
        out.cccp_rounds = result.diagnostics.cccp_iterations;
        out.cccp_capped = stopped_at_cccp_cap(
            result.diagnostics.objective_trace, out.cccp_rounds, options.cccp);
      });
      break;
    }
    case Workload::kFleetSyncBody: {
      core::DistributedPlosOptions options;
      options.num_threads = threads;
      options.journal = &journal;
      timed_span(spans, "core.train_distributed_plos", [&] {
        auto result =
            core::train_distributed_plos(dataset, options, network.get());
        model = std::move(result.model);
        out.cccp_rounds = result.diagnostics.cccp_iterations;
        out.cccp_capped = stopped_at_cccp_cap(
            round_end_objectives(result.diagnostics), out.cccp_rounds,
            options.cccp);
      });
      break;
    }
    case Workload::kFleetAsyncStraggler: {
      async::AsyncQuorumOptions options;
      options.base.num_threads = threads;
      options.base.journal = &journal;
      // Caps sized so the run ends at the ADMM cap: train_s then measures
      // a fixed amount of round work.
      options.base.cccp.max_iterations = 3;
      options.base.max_admm_iterations = 75;
      options.quorum = 0.6;
      options.staleness_bound = 12;
      // Compute-bound local solves, so the chronic stragglers pace a
      // barrier (see bench/abl09_async_quorum.cpp).
      options.latency.compute_base_s = 5e-2;
      if (time_rounds) {
        last_aggregate = start;
        options.on_aggregate = [&](const async::AsyncAggregateView&) {
          const Clock::time_point now = Clock::now();
          out.round_gaps_ms.push_back(
              std::chrono::duration<double, std::milli>(now - last_aggregate)
                  .count());
          last_aggregate = now;
        };
      }
      timed_span(spans, "async.train_async_quorum_plos", [&] {
        auto result =
            async::train_async_quorum_plos(dataset, options, network.get());
        model = std::move(result.model);
        out.async = result.async;
        out.cccp_rounds = result.diagnostics.cccp_iterations;
        out.cccp_capped = stopped_at_cccp_cap(
            round_end_objectives(result.diagnostics), out.cccp_rounds,
            options.base.cccp);
      });
      break;
    }
  }
  out.train_s = seconds_since(start);
  out.cpu_s = cpu_seconds() - cpu_start;

  timed_span(spans, "core.evaluate", [&] {
    out.accuracy = core::evaluate(dataset, core::predict_all(dataset, model));
  });
  out.finite = model_is_finite(model);
  const std::vector<std::uint8_t> model_bytes = core::serialize_model(model);
  out.model_digest = fnv1a(model_bytes.data(), model_bytes.size());
  std::string jsonl;
  out.journal_jsonl_ms = timed_span(spans, "obs.journal_to_jsonl",
                                    [&] { jsonl = journal.to_jsonl(); });
  out.journal_digest = fnv1a(jsonl.data(), jsonl.size());
  out.journal_bytes = jsonl.size();
  out.journal_records = journal.size();
  for (const obs::RoundRecord& record : journal.records()) {
    out.journal_qp_iterations += record.qp_iterations;
  }

  if (!network) {
    out.device_kb = central_device_kb(dataset, model);
  } else {
    out.device_kb = network->mean_bytes_per_device() / 1024.0;
    for (std::size_t t = 0; t < network->num_devices(); ++t) {
      const net::DeviceMetrics& device = network->device_metrics(t);
      out.net_bytes +=
          static_cast<double>(device.bytes_sent + device.bytes_received);
      out.net_messages +=
          static_cast<double>(device.messages_sent + device.messages_received);
    }
    const net::FaultCounters faults = network->fault_counters();
    out.net_retries = static_cast<double>(faults.retries);
    out.net_failed = static_cast<double>(faults.failed_messages);
  }
  return out;
}

// ---- output check --------------------------------------------------------

/// Checks one outcome against the workload's accuracy band and against the
/// run's first outcome (model bytes and journal JSONL must be identical,
/// compared by digest and size: the trainers are deterministic at any
/// thread count and with tracing on).
/// Returns the failures as text; empty means the outcome passed.
std::vector<std::string> check_outcome(const WorkloadSpec& spec,
                                       const TrainOutcome& outcome,
                                       const TrainOutcome& reference) {
  std::vector<std::string> failures;
  if (!outcome.finite) failures.push_back("model has non-finite weights");
  if (std::fabs(outcome.accuracy.overall - spec.reference_accuracy) >
      kAccuracyBand) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "accuracy %.4f outside %.4f +- %.2f",
                  outcome.accuracy.overall, spec.reference_accuracy,
                  kAccuracyBand);
    failures.emplace_back(buffer);
  }
  if (outcome.journal_records == 0) failures.push_back("journal is empty");
  if (outcome.model_digest != reference.model_digest) {
    failures.push_back("model bytes differ from the run's first model");
  }
  if (outcome.journal_digest != reference.journal_digest ||
      outcome.journal_bytes != reference.journal_bytes) {
    failures.push_back("journal JSONL differs from the run's first journal");
  }
  return failures;
}

// ---- traced-run helpers --------------------------------------------------

struct PhaseTotals {
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
  double count = 0.0;
  bool overlapped = false;  ///< pool children outran the parent's wall time
};

void fold_phases(const obs::Profiler::NodeSnapshot& node,
                 std::map<std::string, PhaseTotals>& phases) {
  double children_ms = 0.0;
  for (const auto& child : node.children) {
    children_ms += child.inclusive_ms;
    fold_phases(child, phases);
  }
  PhaseTotals& totals = phases[node.name];
  totals.inclusive_ms += node.inclusive_ms;
  totals.self_ms += node.inclusive_ms - children_ms;
  totals.count += static_cast<double>(node.count);
  if (node.inclusive_ms < children_ms) totals.overlapped = true;
}

struct TracedPass {
  TrainOutcome outcome;
  std::map<std::string, PhaseTotals> phases;
  std::map<std::string, double> counters;
  double long_solves = 0.0;  ///< QP solves in the histogram bucket above 2000
  std::string profile_json;
};

TracedPass traced_train(Workload kind, const data::MultiUserDataset& dataset,
                        std::uint64_t seed, int threads, SpanRecorder& spans) {
  obs::Registry& registry = obs::metrics();
  obs::Profiler& profiler = obs::Profiler::instance();
  registry.reset_values();
  profiler.reset();
  registry.set_enabled(true);
  profiler.set_enabled(true);
  TracedPass pass;
  pass.outcome = train_once(kind, dataset, seed, threads, false, spans);
  profiler.set_enabled(false);
  registry.set_enabled(false);

  fold_phases(profiler.snapshot(), pass.phases);
  for (const char* name :
       {"plos.cutting_plane.separations",
        "plos.cutting_plane.constraints_added",
        "plos.gram_cache.dots_computed", "plos.gram_cache.dots_reused",
        "qp.capped_simplex.solves", "qp.capped_simplex.warm_hits",
        "qp.capped_simplex.lipschitz_reuses", "qp.warm_store.hits",
        "qp.warm_store.misses", "net.serialize.seconds",
        "simnet.messages_to_device", "simnet.messages_to_server"}) {
    pass.counters[name] = registry.counter(name).value();
  }
  const obs::Histogram& iterations = registry.histogram(
      "qp.capped_simplex.iterations", obs::default_iteration_buckets());
  pass.counters["qp.iterations"] = iterations.sum();
  const std::vector<std::size_t> buckets = iterations.bucket_counts();
  const std::vector<double>& bounds = iterations.bounds();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    // Bucket b holds values in (bounds[b-1], bounds[b]]; the last is the
    // overflow bucket. The 3000-iteration cap lands above 2000.
    if (b > 0 && bounds[b - 1] >= 2000.0) {
      pass.long_solves += static_cast<double>(buckets[b]);
    }
  }
  obs::ProfileJsonOptions json_options;
  json_options.registry = &registry;
  pass.profile_json = obs::profile_to_json(json_options);
  return pass;
}

/// Median microseconds of one frame_message + unframe_message round trip of
/// a serialized d = 120 vector (the size of a device upload block).
double frame_roundtrip_us() {
  net::Serializer serializer;
  linalg::Vector block(120);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = 0.001 * static_cast<double>(i);
  }
  serializer.write_vector(block);
  const std::vector<std::uint8_t> payload = serializer.take();
  constexpr int kBatch = 2000;
  std::vector<double> per_op_us;
  std::size_t checked = 0;
  for (int batch = 0; batch < 25; ++batch) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const std::vector<std::uint8_t> frame = net::frame_message(payload);
      const auto view = net::unframe_message(frame);
      if (view && std::equal(view->begin(), view->end(), payload.begin(),
                             payload.end())) {
        ++checked;
      }
    }
    per_op_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        kBatch);
  }
  if (checked != 25u * kBatch) return -1.0;
  return median(per_op_us);
}

// ---- result output -------------------------------------------------------

struct Result {
  int attempted = 0;
  int failed = 0;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }

  /// A non-finite metric is a benchmark defect, never a measurement.
  bool all_finite() const {
    for (const auto& [name, metric] : metrics) {
      if (!std::isfinite(metric.first)) {
        std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
        return false;
      }
    }
    return true;
  }

  std::string to_json() const {
    std::string out = "{\"correct\":";
    out += failed == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    char buffer[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double value = metrics[i].second.first;
      std::snprintf(buffer, sizeof buffer,
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", metrics[i].first.c_str(), value,
                    metrics[i].second.second);
      out += buffer;
    }
    out += "}}";
    return out;
  }
};

/// Counts a check that failed outside a training call (set-up, framing).
void record_failure(Result& result, const char* message) {
  ++result.attempted;
  ++result.failed;
  std::fprintf(stderr, "check failed: %s\n", message);
}

void record_check(Result& result, const WorkloadSpec& spec,
                  const TrainOutcome& outcome, const TrainOutcome& reference,
                  const char* label) {
  ++result.attempted;
  const std::vector<std::string> failures =
      check_outcome(spec, outcome, reference);
  if (failures.empty()) return;
  ++result.failed;
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "check failed (%s): %s\n", label, failure.c_str());
  }
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "plos_perfbench: %s\nusage: plos_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) args.workload = &spec;
      }
      if (!args.workload) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) usage("--seed needs a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!args.workload || !have_seed || args.seconds <= 0.0 || args.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = *args.workload;
  const std::string run_id =
      std::string(spec.name) + "-seed" + std::to_string(args.seed);
  SpanRecorder spans(run_id);
  Result result;

  // Set-up: population, label reveal and (for the fleets) the network,
  // repeated with the previous population freed first, each between two
  // single-threaded host-speed samples (set-up runs on one thread). setup_s
  // times only these steps; the seeded orderings are drawn once afterwards.
  HostSpeed host;
  double unit_ms = host.sample_ms(kSetupReferenceUnits, 1);
  data::MultiUserDataset population;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> reveal_ms;
  std::optional<std::uint64_t> fingerprint;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    population = {};
    SetupTiming timing;
    const Clock::time_point start = Clock::now();
    spans.open("bench.setup");
    population = make_population(spans, timing);
    timed_span(spans, "net.build", [&] {
      make_network(spec.kind, population.num_users(), args.seed);
    });
    spans.close();
    const double wall_s = seconds_since(start);
    const double after_ms = host.sample_ms(kSetupReferenceUnits, 1);
    setup_s.push_back(at_reference_speed(wall_s, unit_ms, after_ms));
    std::fprintf(stderr, "%s set-up %d: %.3f s wall, %.3f s at reference "
                 "speed\n", run_id.c_str(), rep, wall_s, setup_s.back());
    unit_ms = after_ms;
    generate_ms.push_back(timing.generate_ms);
    reveal_ms.push_back(timing.reveal_ms);
    const std::uint64_t hash =
        data::fingerprint(population, spec.name).content_hash;
    if (fingerprint && *fingerprint != hash) {
      record_failure(result, "set-up is not deterministic");
    }
    fingerprint = hash;
  }
  std::vector<Ordering> orderings;
  timed_span(spans, "data.order", [&] {
    orderings = draw_orderings(population, args.seed, kInputs);
  });
  // peak_rss_mb covers the training calls, not the set-up's transient
  // peak, which is most of a call's (about 10 MB against 16 to 19 MB).
  // getrusage's lifetime peak would not do either: on Linux it also keeps
  // the launching process's peak across exec.
  std::fprintf(stderr, "%s peak RSS of set-up: %.1f MB\n", run_id.c_str(),
               peak_rss_mb());
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "cannot reset the peak-RSS mark; peak_rss_mb "
                         "includes set-up\n");
  }
  data::MultiUserDataset input;
  const auto load_input = [&](std::size_t j) {
    input = {};
    input = ordered_copy(population, orderings[j]);
  };

  if (args.trace == 0) {
    // Closed loop over the orderings in turn; each ordering's first outcome
    // is the reference its repetitions must reproduce bit for bit.
    // Each call runs between two host-speed samples, the later one shared
    // with the next call.
    std::vector<std::optional<TrainOutcome>> firsts(orderings.size());
    std::vector<double> train_ref_s;
    std::vector<double> step_s;
    const Clock::time_point start = Clock::now();
    unit_ms = host.sample_ms(spec.reference_units, spec.reference_threads);
    for (std::size_t call = 0;; ++call) {
      const Clock::time_point step_start = Clock::now();
      const std::size_t j = call % orderings.size();
      load_input(j);
      TrainOutcome outcome =
          train_once(spec.kind, input, args.seed, kThreads, false, spans);
      const double after_ms =
          host.sample_ms(spec.reference_units, spec.reference_threads);
      train_ref_s.push_back(
          at_reference_speed(outcome.train_s, unit_ms, after_ms));
      std::fprintf(stderr, "%s call %zu input %zu: %.3f s wall, %.3f s at "
                   "reference speed (unit %.3f/%.3f ms), %d cccp rounds%s, "
                   "%zu journal records, %.0f qp iterations\n",
                   run_id.c_str(), call, j, outcome.train_s,
                   train_ref_s.back(), unit_ms, after_ms, outcome.cccp_rounds,
                   outcome.cccp_capped ? " (stopped at the cap)" : "",
                   outcome.journal_records, outcome.journal_qp_iterations);
      unit_ms = after_ms;
      if (!firsts[j]) firsts[j] = outcome;
      record_check(result, spec, outcome, *firsts[j], "untraced");
      step_s.push_back(seconds_since(step_start));
      // Start another call only if it should finish inside --seconds,
      // judged by the median step so far.
      if (step_s.size() >= kMinTrainRuns &&
          seconds_since(start) + median(step_s) > args.seconds) {
        break;
      }
    }
    if (!host.checksums_agree()) {
      record_failure(result, "reference work is not deterministic");
    }
    std::vector<double> accuracy;
    std::vector<double> accuracy_nonprovider;
    std::vector<double> device_kb;
    for (const std::optional<TrainOutcome>& first : firsts) {
      if (!first) continue;
      accuracy.push_back(first->accuracy.overall);
      accuracy_nonprovider.push_back(first->accuracy.non_providers);
      device_kb.push_back(first->device_kb);
    }
    result.add("train_ref_s", median(train_ref_s), "s");
    result.add("setup_s", median(setup_s), "s");
    result.add("accuracy", median(accuracy), "ratio");
    result.add("accuracy_nonprovider", median(accuracy_nonprovider), "ratio");
    result.add("device_kb", median(device_kb), "KB");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (!result.all_finite()) return 1;
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  }

  // Traced run on the first ordering: untraced and 4-thread traced calls in
  // turn (the first untraced call is the reference and gives the aggregation
  // gaps; the first traced call gives the profile), then one traced call at
  // 1 thread for self times the 4-thread profile cannot resolve.
  load_input(0);
  std::vector<TrainOutcome> untraced_calls;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> concurrency_samples;
  std::vector<double> reference_unit_ms;
  std::optional<TracedPass> traced;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    reference_unit_ms.push_back(
        host.sample_ms(spec.reference_units, spec.reference_threads));
    untraced_calls.push_back(
        train_once(spec.kind, input, args.seed, kThreads, pair == 0, spans));
    const TrainOutcome& call = untraced_calls.back();
    record_check(result, spec, call, untraced_calls.front(), "untraced");
    untraced_s.push_back(call.train_s);
    concurrency_samples.push_back(call.cpu_s / call.train_s);
    spans.open("bench.traced_4_threads");
    TracedPass pass = traced_train(spec.kind, input, args.seed, kThreads, spans);
    spans.close();
    record_check(result, spec, pass.outcome, untraced_calls.front(),
                 "traced, 4 threads");
    traced_s.push_back(pass.outcome.train_s);
    if (!traced) traced = std::move(pass);
  }
  const TrainOutcome& untraced = untraced_calls.front();
  spans.open("bench.traced_1_thread");
  const TracedPass serial = traced_train(spec.kind, input, args.seed, 1, spans);
  spans.close();
  record_check(result, spec, serial.outcome, untraced, "traced, 1 thread");
  double roundtrip_us = 0.0;
  timed_span(spans, "net.frame_roundtrip",
             [&] { roundtrip_us = frame_roundtrip_us(); });
  if (roundtrip_us < 0.0) {
    record_failure(result, "frame round trip lost a payload");
  }
  if (!host.checksums_agree()) {
    record_failure(result, "reference work is not deterministic");
  }

  // Self time of a phase: its span minus its child spans. Where pool
  // children outran the parent's wall time at 4 threads (the profiler would
  // clamp that to 0), the serial pass gives the self time instead.
  const auto phase = [&](const char* name) -> PhaseTotals {
    const auto it = traced->phases.find(name);
    if (it == traced->phases.end()) return {};
    PhaseTotals totals = it->second;
    if (totals.overlapped) {
      const auto serial_it = serial.phases.find(name);
      totals.self_ms =
          serial_it == serial.phases.end() ? 0.0 : serial_it->second.self_ms;
    }
    return totals;
  };
  const auto counter = [&](const char* name) {
    return traced->counters.at(name);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const TrainOutcome& t = traced->outcome;
  const double dim = static_cast<double>(input.dim());
  const double solves = counter("qp.capped_simplex.solves");
  const double dots_computed = counter("plos.gram_cache.dots_computed");
  const double dots_reused = counter("plos.gram_cache.dots_reused");

  result.add("bench.train_wall_s", median(untraced_s), "s");
  result.add("bench.reference_unit_ms", median(reference_unit_ms), "ms");
  result.add("sensing.generate_ms", median(generate_ms), "ms");
  result.add("data.reveal_ms", median(reveal_ms), "ms");

  result.add("core.dual_solve_ms", phase("plos.dual_solve").self_ms, "ms");
  result.add("core.assembly_ms", phase("plos.cutting_plane_iteration").self_ms,
             "ms");
  result.add("core.sign_fit_ms", phase("plos.sign_fit").self_ms, "ms");
  result.add("core.separation_ms", phase("plos.separation").self_ms, "ms");
  result.add("core.separations", counter("plos.cutting_plane.separations"),
             "count");
  result.add("core.planes_added",
             counter("plos.cutting_plane.constraints_added"), "count");
  result.add("core.device_solve_ms", phase("plos.device_solve").self_ms, "ms");
  result.add("core.device_solves", phase("plos.device_solve").count, "count");
  result.add("core.server_update_ms", phase("plos.server_update").self_ms,
             "ms");
  result.add("core.server_updates", phase("plos.server_update").count, "count");
  result.add("core.cccp_round_self_ms", phase("plos.cccp_round").self_ms, "ms");
  result.add("core.admm_round_self_ms", phase("plos.admm_round").self_ms, "ms");
  result.add("core.cccp_rounds", static_cast<double>(t.cccp_rounds), "count");
  result.add("core.cccp_capped", t.cccp_capped ? 1.0 : 0.0, "count");
  result.add("core.gram.dot_reuse_ratio",
             ratio(dots_reused, dots_computed + dots_reused), "ratio");

  result.add("linalg.gram_dot_madds", dots_computed * dim, "count");

  const PhaseTotals qp_phase = phase("qp.capped_simplex_solve");
  result.add("qp.solve_ms", qp_phase.inclusive_ms, "ms");
  result.add("qp.solves", solves, "count");
  result.add("qp.iterations", counter("qp.iterations"), "count");
  result.add("qp.iterations_per_solve", ratio(counter("qp.iterations"), solves),
             "count");
  result.add("qp.long_solve_share", ratio(traced->long_solves, solves),
             "ratio");
  result.add("qp.warm_hit_ratio",
             ratio(counter("qp.capped_simplex.warm_hits"), solves), "ratio");
  result.add("qp.warm_store_hit_ratio",
             ratio(counter("qp.warm_store.hits"),
                   counter("qp.warm_store.hits") +
                       counter("qp.warm_store.misses")),
             "ratio");
  result.add("qp.lipschitz_reuse_ratio",
             ratio(counter("qp.capped_simplex.lipschitz_reuses"), solves),
             "ratio");

  const double concurrency = median(concurrency_samples);
  result.add("parallel.concurrency", concurrency, "threads");
  result.add("parallel.idle_share", 1.0 - concurrency / kThreads, "ratio");

  const double attempts = counter("simnet.messages_to_device") +
                          counter("simnet.messages_to_server");
  result.add("net.bytes", t.net_bytes, "bytes");
  result.add("net.messages", t.net_messages, "count");
  result.add("net.retries", t.net_retries, "count");
  result.add("net.failed_share", ratio(t.net_failed, attempts), "ratio");
  result.add("net.transmit_ms", phase("net.transmit").inclusive_ms, "ms");
  result.add("net.serialize_ms", 1000.0 * counter("net.serialize.seconds"),
             "ms");
  result.add("net.frame_roundtrip_us", roundtrip_us, "us");

  const async::AsyncQuorumDiagnostics a =
      untraced.async.value_or(async::AsyncQuorumDiagnostics{});
  double mean_quorum = 0.0;
  for (const std::uint64_t q : a.quorum_trace) {
    mean_quorum += static_cast<double>(q);
  }
  mean_quorum = ratio(mean_quorum, static_cast<double>(a.quorum_trace.size()));
  result.add("async.aggregations", static_cast<double>(a.quorum_trace.size()),
             "count");
  result.add("async.mean_quorum", mean_quorum, "count");
  result.add("async.late_uploads", static_cast<double>(a.late_uploads_total),
             "count");
  result.add("async.evictions",
             static_cast<double>(a.evictions_offline_total +
                                 a.evictions_late_total +
                                 a.evictions_failed_total),
             "count");
  result.add("async.max_staleness", static_cast<double>(a.max_staleness_seen),
             "count");
  result.add("async.round_ms_p50", quantile(untraced.round_gaps_ms, 0.5), "ms");
  result.add("async.round_ms_p95", quantile(untraced.round_gaps_ms, 0.95),
             "ms");
  result.add("async.round_samples",
             static_cast<double>(untraced.round_gaps_ms.size()), "count");
  result.add("async.fleet_s", a.virtual_seconds, "s");

  result.add("obs.journal_records",
             static_cast<double>(untraced.journal_records), "count");
  result.add("obs.journal_bytes", static_cast<double>(untraced.journal_bytes),
             "bytes");
  result.add("obs.journal_jsonl_ms", untraced.journal_jsonl_ms, "ms");
  result.add("obs.trace_overhead", ratio(median(traced_s), median(untraced_s)),
             "ratio");

  const std::string prefix = args.out_dir + "/" + run_id;
  if (!write_file(prefix + ".trace.json", spans.to_chrome_json()) ||
      !write_file(prefix + ".profile.json", traced->profile_json + "\n")) {
    std::fprintf(stderr, "cannot write trace files under %s\n",
                 args.out_dir.c_str());
    return 1;
  }
  if (!result.all_finite()) return 1;
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
