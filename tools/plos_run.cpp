// plos_run — command-line experiment driver.
//
// Generates one of the three simulated populations, reveals labels, trains
// the selected method(s), and prints provider / non-provider accuracy.
//
//   plos_run --dataset body --users 12 --providers 6 --rate 0.1
//   plos_run --dataset har --method plos --lambda 100 --cu 1
//   plos_run --dataset synth --rotation 1.57 --method all,single,plos
//   plos_run --dataset body --distributed --save-model /tmp/model.bin
//
// Run `plos_run --help` for the full flag list.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "async/async_admm.hpp"
#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "core/logistic_plos.hpp"
#include "core/model_io.hpp"
#include "data/dataset.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "rng/engine.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"

namespace {

using namespace plos;

struct Args {
  std::string dataset = "synth";  // synth | body | har
  std::string methods = "plos,all,group,single";
  std::size_t users = 0;  // 0 = dataset default
  std::size_t providers = 0;
  double rate = 0.06;
  double rotation = std::numbers::pi / 2.0;  // synth only
  double lambda = 100.0;
  double cl = 10.0;
  double cu = 1.0;
  std::uint64_t seed = 42;
  int threads = 1;  // 0 = hardware concurrency
  bool distributed = false;
  bool logistic = false;
  // Bitwise-transparent hot-path caches (DESIGN.md §13); disabled by
  // --no-hotpath-cache or PLOS_NO_HOTPATH_CACHE=1 for equivalence runs.
  bool hotpath_cache = true;
  // Fault injection (distributed only; see net/fault.hpp for semantics).
  double fault_drop = 0.0;
  double fault_offline = 0.0;
  double fault_straggler = 0.0;
  double fault_corrupt = 0.0;
  double round_deadline = 0.0;  // simulated seconds; 0 = wait for stragglers
  // Asynchronous quorum schedule (async/async_admm); implies --distributed.
  bool async_mode = false;
  double quorum = 0.6;
  std::uint64_t staleness_bound = 3;
  bool adaptive_deadline = true;
  bool auto_tune = false;      // --auto-tune on: journal-driven knob walk
  std::string flight_out;      // empty = no flight recorder; "-" = stdout
  std::uint64_t journal_every = 1;  // keep every Nth journal record
  std::string save_model_path;
  std::string log_level;    // empty = logging stays off
  std::string trace_out;    // empty = no trace collection
  std::string metrics_out;  // empty = no metrics snapshot; "-" = stdout
  std::string metrics_format = "json";  // json | prom
  std::string manifest_out;  // empty = no run manifest; "-" = stdout
  std::string journal_out;   // empty = no round journal; "-" = stdout
  std::string profile_out;   // empty = no profile tree; "-" = stdout
  std::string watchdog = "off";  // off | warn | abort
  int watchdog_stall_rounds = 0;  // 0 = stall detection disabled
};

void print_usage() {
  std::printf(
      "plos_run — train PLOS and baselines on a simulated population\n\n"
      "  --dataset body|har|synth   population simulator (default synth)\n"
      "  --methods LIST             comma list of plos,all,group,single\n"
      "  --users N                  population size (default per dataset)\n"
      "  --providers N              label-providing users (default: half)\n"
      "  --rate R                   labeled fraction per provider (0..1)\n"
      "  --rotation RAD             synth: max rotation angle\n"
      "  --lambda L --cl CL --cu CU PLOS hyper-parameters\n"
      "  --seed S                   RNG seed\n"
      "  --threads N                worker threads for training (default 1;\n"
      "                             0 = hardware concurrency); results are\n"
      "                             bitwise identical for every N\n"
      "  --distributed              train PLOS with ADMM on a simulated fleet\n"
      "  --fault-drop P             per-message-attempt drop probability\n"
      "  --fault-offline P          per-round device churn probability\n"
      "  --fault-straggler P        per-round straggler probability (4x slowdown)\n"
      "  --fault-corrupt P          per-message bit-corruption probability\n"
      "                             (CRC32-framed, detected and retried)\n"
      "  --round-deadline S         simulated seconds the server waits per\n"
      "                             round; stragglers past it are left behind\n"
      "                             (0 = wait). Fault flags need --distributed\n"
      "  --async                    asynchronous bounded-staleness quorum\n"
      "                             engine instead of the round barrier\n"
      "                             (implies --distributed; --quorum 1.0 with\n"
      "                             --adaptive-deadline off reproduces the\n"
      "                             synchronous run bit for bit)\n"
      "  --quorum Q                 fraction of on-time uploads that closes a\n"
      "                             round, in (0, 1] (default 0.6)\n"
      "  --staleness-bound N        max aggregation steps a device update may\n"
      "                             lag before its server block is evicted;\n"
      "                             positive integer (default 3)\n"
      "  --adaptive-deadline on|off per-device deadlines from the latency\n"
      "                             EWMA (default on)\n"
      "  --auto-tune on|off         walk --quorum / --staleness-bound per\n"
      "                             round from the journal's staleness sketch\n"
      "                             (deterministic hysteresis; every decision\n"
      "                             is journaled; needs --async; default off)\n"
      "  --flight-out FILE          write the flight recorder's Chrome-trace\n"
      "                             JSON of per-device lifecycle events\n"
      "                             (upload attempts, deadline misses, late\n"
      "                             folds, evictions, quorum cuts; needs\n"
      "                             --async; '-' = stdout; explore with\n"
      "                             'plos_inspect timeline')\n"
      "  --no-hotpath-cache         disable the Gram-dot memoization\n"
      "                             (PLOS_NO_HOTPATH_CACHE=1 does the same);\n"
      "                             results are bitwise identical, only slower\n"
      "  --logistic                 use the logistic-loss PLOS variant\n"
      "  --save-model PATH          checkpoint the trained PLOS model\n"
      "  --log-level LEVEL          trace|debug|info|warn|error|off (stderr)\n"
      "  --trace-out FILE           write Chrome trace-event JSON of solver\n"
      "                             spans (open in chrome://tracing/Perfetto)\n"
      "  --metrics-out FILE         write a metrics-registry snapshot\n"
      "                             ('-' = stdout)\n"
      "  --metrics-format FMT       json (default) or prom (Prometheus text\n"
      "                             exposition) for --metrics-out\n"
      "  --manifest-out FILE        write a run manifest (run.json) capturing\n"
      "                             build, seed, options, dataset fingerprint,\n"
      "                             and final metrics ('-' = stdout)\n"
      "  --journal-out FILE         write the per-round JSONL journal of the\n"
      "                             PLOS training loop ('-' = stdout)\n"
      "  --journal-every N          keep every Nth journal record (counted at\n"
      "                             aggregation boundaries; default 1 = all)\n"
      "  --profile-out FILE         write the hierarchical phase-profile tree\n"
      "                             (per-phase call counts + exact solver\n"
      "                             counters; wall times and peak RSS live in\n"
      "                             its quarantined \"timing\" section)\n"
      "                             ('-' = stdout)\n"
      "  --watchdog MODE            off (default), warn, or abort: convergence\n"
      "                             watchdog over the round journal (NaN,\n"
      "                             divergence, participation collapse; abort\n"
      "                             stops training at the next round boundary)\n"
      "  --watchdog-stall-rounds N  also flag N rounds without objective\n"
      "                             improvement (0 = stall check off)\n"
      "  --help                     this message\n");
}

// ---- strict flag parsing -------------------------------------------------
// Every parse failure (unknown flag, missing value, malformed number)
// prints a diagnostic plus a usage hint and makes the tool exit non-zero:
// a typo must never silently fall back to defaults mid-experiment.

bool parse_double_value(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  // strtod happily parses "nan" and "inf"; a non-finite probability or
  // bound silently corrupts every downstream comparison, so refuse it here.
  return end != text && *end == '\0' && std::isfinite(out);
}

bool parse_u64_value(const char* text, std::uint64_t& out) {
  if (text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool valid_methods_list(const std::string& methods) {
  std::size_t start = 0;
  while (start <= methods.size()) {
    const std::size_t comma = methods.find(',', start);
    const std::string token =
        methods.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
    if (token != "plos" && token != "all" && token != "group" &&
        token != "single") {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string flag = argv[i];
    // Fetches the flag's value; records an error when it is absent.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "plos_run: missing value for %s\n", flag.c_str());
        ok = false;
        return "";
      }
      return argv[++i];
    };
    const auto double_value = [&](double& out) {
      const char* text = value();
      if (ok && !parse_double_value(text, out)) {
        std::fprintf(stderr, "plos_run: %s expects a number, got '%s'\n",
                     flag.c_str(), text);
        ok = false;
      }
    };
    const auto u64_value = [&](std::uint64_t& out) {
      const char* text = value();
      if (ok && !parse_u64_value(text, out)) {
        std::fprintf(stderr,
                     "plos_run: %s expects a non-negative integer, got '%s'\n",
                     flag.c_str(), text);
        ok = false;
      }
    };
    if (flag == "--help" || flag == "-h") {
      print_usage();
      std::exit(0);
    } else if (flag == "--dataset") {
      args.dataset = value();
    } else if (flag == "--methods") {
      args.methods = value();
      if (ok && !valid_methods_list(args.methods)) {
        std::fprintf(stderr,
                     "plos_run: --methods expects a comma list of "
                     "plos,all,group,single, got '%s'\n",
                     args.methods.c_str());
        ok = false;
      }
    } else if (flag == "--users") {
      std::uint64_t users = 0;
      u64_value(users);
      args.users = static_cast<std::size_t>(users);
    } else if (flag == "--providers") {
      std::uint64_t providers = 0;
      u64_value(providers);
      args.providers = static_cast<std::size_t>(providers);
    } else if (flag == "--rate") {
      double_value(args.rate);
      if (ok && (args.rate < 0.0 || args.rate > 1.0)) {
        std::fprintf(stderr, "plos_run: --rate must be in [0, 1], got %g\n",
                     args.rate);
        ok = false;
      }
    } else if (flag == "--rotation") {
      double_value(args.rotation);
    } else if (flag == "--lambda") {
      double_value(args.lambda);
    } else if (flag == "--cl") {
      double_value(args.cl);
    } else if (flag == "--cu") {
      double_value(args.cu);
    } else if (flag == "--seed") {
      u64_value(args.seed);
    } else if (flag == "--threads") {
      std::uint64_t threads = 0;
      u64_value(threads);
      args.threads = static_cast<int>(threads);
    } else if (flag == "--distributed") {
      args.distributed = true;
    } else if (flag == "--no-hotpath-cache") {
      args.hotpath_cache = false;
    } else if (flag == "--fault-drop" || flag == "--fault-offline" ||
               flag == "--fault-straggler" || flag == "--fault-corrupt") {
      double* slot = flag == "--fault-drop"       ? &args.fault_drop
                     : flag == "--fault-offline"  ? &args.fault_offline
                     : flag == "--fault-straggler" ? &args.fault_straggler
                                                    : &args.fault_corrupt;
      double_value(*slot);
      if (ok && (*slot < 0.0 || *slot > 1.0)) {
        std::fprintf(stderr, "plos_run: %s must be in [0, 1], got %g\n",
                     flag.c_str(), *slot);
        ok = false;
      }
    } else if (flag == "--round-deadline") {
      double_value(args.round_deadline);
      if (ok && args.round_deadline < 0.0) {
        std::fprintf(stderr, "plos_run: --round-deadline must be >= 0, got %g\n",
                     args.round_deadline);
        ok = false;
      }
    } else if (flag == "--async") {
      args.async_mode = true;
      args.distributed = true;
    } else if (flag == "--quorum") {
      double_value(args.quorum);
      if (ok && (args.quorum <= 0.0 || args.quorum > 1.0)) {
        std::fprintf(stderr, "plos_run: --quorum must be in (0, 1], got %g\n",
                     args.quorum);
        ok = false;
      }
    } else if (flag == "--staleness-bound") {
      u64_value(args.staleness_bound);
      if (ok && args.staleness_bound == 0) {
        std::fprintf(stderr,
                     "plos_run: --staleness-bound must be a positive "
                     "integer\n");
        ok = false;
      }
    } else if (flag == "--adaptive-deadline") {
      const std::string mode = value();
      if (ok && mode != "on" && mode != "off") {
        std::fprintf(stderr,
                     "plos_run: --adaptive-deadline expects on or off, "
                     "got '%s'\n",
                     mode.c_str());
        ok = false;
      }
      args.adaptive_deadline = mode == "on";
    } else if (flag == "--auto-tune") {
      const std::string mode = value();
      if (ok && mode != "on" && mode != "off") {
        std::fprintf(stderr,
                     "plos_run: --auto-tune expects on or off, got '%s'\n",
                     mode.c_str());
        ok = false;
      }
      args.auto_tune = mode == "on";
    } else if (flag == "--flight-out") {
      args.flight_out = value();
    } else if (flag == "--journal-every") {
      u64_value(args.journal_every);
      if (ok && args.journal_every == 0) {
        std::fprintf(stderr,
                     "plos_run: --journal-every must be a positive integer\n");
        ok = false;
      }
    } else if (flag == "--logistic") {
      args.logistic = true;
    } else if (flag == "--save-model") {
      args.save_model_path = value();
    } else if (flag == "--log-level") {
      args.log_level = value();
      if (ok && !obs::parse_level(args.log_level).has_value()) {
        std::fprintf(stderr,
                     "plos_run: --log-level expects one of "
                     "trace|debug|info|warn|error|off, got '%s'\n",
                     args.log_level.c_str());
        ok = false;
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--metrics-out") {
      args.metrics_out = value();
    } else if (flag == "--metrics-format") {
      args.metrics_format = value();
      if (ok && args.metrics_format != "json" && args.metrics_format != "prom") {
        std::fprintf(stderr,
                     "plos_run: --metrics-format expects json or prom, "
                     "got '%s'\n",
                     args.metrics_format.c_str());
        ok = false;
      }
    } else if (flag == "--manifest-out") {
      args.manifest_out = value();
    } else if (flag == "--journal-out") {
      args.journal_out = value();
    } else if (flag == "--profile-out") {
      args.profile_out = value();
    } else if (flag == "--watchdog") {
      args.watchdog = value();
      if (ok && args.watchdog != "off" && args.watchdog != "warn" &&
          args.watchdog != "abort") {
        std::fprintf(stderr,
                     "plos_run: --watchdog expects off, warn, or abort, "
                     "got '%s'\n",
                     args.watchdog.c_str());
        ok = false;
      }
    } else if (flag == "--watchdog-stall-rounds") {
      std::uint64_t rounds = 0;
      u64_value(rounds);
      args.watchdog_stall_rounds = static_cast<int>(rounds);
    } else {
      std::fprintf(stderr, "plos_run: unknown flag %s\n", flag.c_str());
      ok = false;
    }
  }
  const bool any_fault_flag = args.fault_drop > 0.0 ||
                              args.fault_offline > 0.0 ||
                              args.fault_straggler > 0.0 ||
                              args.fault_corrupt > 0.0 ||
                              args.round_deadline > 0.0;
  if (ok && any_fault_flag && !(args.distributed && !args.logistic)) {
    std::fprintf(stderr,
                 "plos_run: fault flags apply only to --distributed "
                 "(non-logistic) training\n");
    ok = false;
  }
  if (ok && args.async_mode && args.logistic) {
    std::fprintf(stderr,
                 "plos_run: --async is the distributed hinge-loss engine; "
                 "it cannot combine with --logistic\n");
    ok = false;
  }
  if (ok && args.async_mode && args.round_deadline > 0.0) {
    std::fprintf(stderr,
                 "plos_run: --round-deadline is the synchronous barrier's "
                 "deadline; under --async use --adaptive-deadline\n");
    ok = false;
  }
  if (ok && args.auto_tune && !args.async_mode) {
    std::fprintf(stderr,
                 "plos_run: --auto-tune drives the async engine's quorum and "
                 "staleness bound; it needs --async\n");
    ok = false;
  }
  if (ok && !args.flight_out.empty() && !args.async_mode) {
    std::fprintf(stderr,
                 "plos_run: --flight-out records the async engine's device "
                 "lifecycle; it needs --async\n");
    ok = false;
  }
  // Environment escape hatch so CI equivalence jobs can flip whole test
  // matrices without threading a flag through every invocation. "0" and
  // empty keep the cache on; anything else disables it.
  if (const char* env = std::getenv("PLOS_NO_HOTPATH_CACHE");
      env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    args.hotpath_cache = false;
  }
  if (!ok) {
    std::fprintf(stderr, "run 'plos_run --help' for usage\n");
    return std::nullopt;
  }
  return args;
}

// Pre-creates the canonical solver/network instruments so every snapshot
// carries stable keys (zero-valued when a code path never ran — e.g. no
// ADMM residuals in a centralized run).
void register_standard_instruments() {
  obs::metrics().gauge("plos.objective");
  obs::metrics().gauge("plos.admm.objective");
  obs::metrics().gauge("plos.admm.primal_residual");
  obs::metrics().gauge("plos.admm.dual_residual");
  obs::metrics().gauge("plos.cutting_plane.violation");
  obs::metrics().counter("plos.cutting_plane.constraints_added");
  obs::metrics().counter("qp.capped_simplex.solves");
  obs::metrics().counter("qp.capped_simplex.seconds");
  obs::metrics().histogram("qp.capped_simplex.iterations",
                           obs::default_iteration_buckets());
  obs::metrics().gauge("plos.admm.participation_rate");
  obs::metrics().counter("simnet.bytes_to_device");
  obs::metrics().counter("simnet.bytes_to_server");
  obs::metrics().counter("simnet.messages_to_device");
  obs::metrics().counter("simnet.messages_to_server");
  obs::metrics().counter("simnet.device_energy_joules");
  obs::metrics().counter("simnet.rounds");
  obs::metrics().counter("simnet.messages_dropped");
  obs::metrics().counter("simnet.messages_corrupted");
  obs::metrics().counter("simnet.retries");
  obs::metrics().counter("simnet.failed_messages");
  obs::metrics().counter("plos.watchdog.nonfinite");
  obs::metrics().counter("plos.watchdog.stall");
  obs::metrics().counter("plos.watchdog.divergence");
  obs::metrics().counter("plos.watchdog.participation");
  obs::metrics().counter("plos.watchdog.staleness");
  obs::metrics().counter("plos.watchdog.violations");
  obs::metrics().gauge("plos.watchdog.violations_total");
}

// Writes `text` to `path`, with "-" meaning stdout (so artifacts can be
// piped straight into plos_inspect).
bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    return std::fwrite(text.data(), 1, text.size(), stdout) == text.size();
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

std::string render_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

data::MultiUserDataset build_dataset(const Args& args) {
  rng::Engine engine(args.seed);
  data::MultiUserDataset dataset;
  if (args.dataset == "body") {
    sensing::BodySensorSpec spec;
    if (args.users > 0) spec.num_users = args.users;
    dataset = sensing::generate_body_sensor_dataset(spec, engine);
  } else if (args.dataset == "har") {
    sensing::HarSpec spec;
    if (args.users > 0) spec.num_users = args.users;
    dataset = sensing::generate_har_dataset(spec, engine);
  } else if (args.dataset == "synth") {
    data::SyntheticSpec spec;
    if (args.users > 0) spec.num_users = args.users;
    spec.max_rotation = args.rotation;
    dataset = data::generate_synthetic(spec, engine);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", args.dataset.c_str());
    std::exit(2);
  }

  const std::size_t num_providers =
      args.providers > 0 ? args.providers : dataset.num_users() / 2;
  std::vector<std::size_t> providers;
  for (std::size_t i = 0; i < num_providers && i < dataset.num_users(); ++i) {
    providers.push_back(i * dataset.num_users() /
                        std::max<std::size_t>(1, num_providers));
  }
  rng::Engine label_engine(args.seed + 1);
  data::reveal_labels(dataset, providers, args.rate, label_engine);
  return dataset;
}

void print_report(const char* name, const core::AccuracyReport& report) {
  std::printf("%-10s providers %.4f   non-providers %.4f   overall %.4f\n",
              name, report.providers, report.non_providers, report.overall);
}

bool wants(const Args& args, const char* method) {
  return args.methods.find(method) != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;

  if (!args.log_level.empty()) {
    obs::Logger::instance().set_sink(std::make_shared<obs::StderrSink>());
    obs::Logger::instance().set_level(*obs::parse_level(args.log_level));
  }
  if (!args.metrics_out.empty() || !args.profile_out.empty()) {
    obs::metrics().set_enabled(true);
    register_standard_instruments();
  }
  if (!args.trace_out.empty()) {
    obs::TraceCollector::instance().set_enabled(true);
  }
  if (!args.profile_out.empty()) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // Telemetry sinks: the journal collects one record per training round,
  // the watchdog classifies each record online. Both are wired into the
  // trainer options below only when requested.
  obs::Journal journal;
  journal.set_every(args.journal_every);
  obs::WatchdogConfig watchdog_config;
  watchdog_config.on_violation = args.watchdog == "abort"
                                     ? obs::WatchdogConfig::OnViolation::kAbort
                                     : obs::WatchdogConfig::OnViolation::kWarn;
  watchdog_config.stall_rounds = args.watchdog_stall_rounds;
  // Fault-injected runs keep training through partial participation; flag
  // rounds where most of the fleet stops reaching the server.
  watchdog_config.participation_floor = 0.5;
  watchdog_config.participation_rounds = 3;
  // Under the async engine, aggregates that ride the eviction boundary for
  // several consecutive rounds mean the staleness bound is doing all the
  // work — flag that as a staleness collapse.
  if (args.async_mode) {
    watchdog_config.staleness_ceiling = args.staleness_bound;
  }
  obs::Watchdog watchdog(watchdog_config);
  const bool watchdog_on = args.watchdog != "off";
  const bool journal_wanted =
      !args.journal_out.empty() || !args.manifest_out.empty();
  obs::Journal* journal_ptr = journal_wanted ? &journal : nullptr;
  obs::Watchdog* watchdog_ptr = watchdog_on ? &watchdog : nullptr;

  // Deterministic end-of-run facts destined for the manifest.
  std::map<std::string, double> results;
  std::map<std::string, double> timing_map;
  int rounds_completed = 0;
  double plos_overall_accuracy = 0.0;
  bool trained_plos = false;

  const auto dataset = build_dataset(args);
  std::printf("dataset %s: %zu users (%zu providers), %zu samples, dim %zu\n",
              args.dataset.c_str(), dataset.num_users(),
              dataset.labeled_users().size(), dataset.total_samples(),
              dataset.dim());

  core::PlosHyperParams params;
  params.lambda = args.lambda;
  params.cl = args.cl;
  params.cu = args.cu;

  if (wants(args, "plos")) {
    core::PersonalizedModel model;
    if (args.logistic) {
      core::LogisticPlosOptions options;
      options.params = params;
      const auto result = core::train_logistic_plos(dataset, options);
      model = result.model;
      std::printf("logistic PLOS: %d CCCP rounds, %.2fs\n",
                  result.diagnostics.cccp_iterations,
                  result.diagnostics.train_seconds);
      rounds_completed = result.diagnostics.cccp_iterations;
      results["cccp_rounds"] =
          static_cast<double>(result.diagnostics.cccp_iterations);
    } else if (args.distributed) {
      core::DistributedPlosOptions options;
      options.params = params;
      options.num_threads = args.threads;
      options.hotpath_cache = args.hotpath_cache;
      options.journal = journal_ptr;
      options.watchdog = watchdog_ptr;
      net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                              net::LinkProfile{});
      net::FaultSpec fault_spec;
      fault_spec.drop_probability = args.fault_drop;
      fault_spec.offline_probability = args.fault_offline;
      fault_spec.straggler_probability = args.fault_straggler;
      fault_spec.corrupt_probability = args.fault_corrupt;
      fault_spec.round_deadline_s = args.round_deadline;
      fault_spec.seed = args.seed;
      if (fault_spec.any_faults()) {
        network.set_fault_model(net::FaultModel(fault_spec));
      }
      core::DistributedPlosDiagnostics diagnostics;
      if (args.async_mode) {
        async::AsyncQuorumOptions async_options;
        async_options.base = options;
        async_options.quorum = args.quorum;
        async_options.staleness_bound = args.staleness_bound;
        async_options.adaptive_deadline = args.adaptive_deadline;
        async_options.autotune.enabled = args.auto_tune;
        obs::FlightRecorder flight_recorder;
        if (!args.flight_out.empty()) {
          async_options.flight = &flight_recorder;
        }
        const auto result =
            async::train_async_quorum_plos(dataset, async_options, &network);
        if (!args.flight_out.empty()) {
          if (!flight_recorder.write(args.flight_out)) {
            std::fprintf(stderr, "failed to write flight log to %s\n",
                         args.flight_out.c_str());
            return 1;
          }
          if (args.flight_out != "-") {
            std::printf("flight log written to %s (%zu events, %llu "
                        "overwritten)\n",
                        args.flight_out.c_str(), flight_recorder.size(),
                        static_cast<unsigned long long>(
                            flight_recorder.dropped()));
          }
        }
        model = result.model;
        diagnostics = result.diagnostics;
        const auto& a = result.async;
        double mean_quorum = 0.0;
        for (const std::uint64_t q : a.quorum_trace) {
          mean_quorum += static_cast<double>(q);
        }
        if (!a.quorum_trace.empty()) {
          mean_quorum /= static_cast<double>(a.quorum_trace.size());
        }
        const std::uint64_t evictions = a.evictions_offline_total +
                                        a.evictions_late_total +
                                        a.evictions_failed_total;
        std::printf(
            "async PLOS: %d ADMM iterations, %.4f virtual s, mean quorum "
            "%.2f/%zu, late uploads %llu, evictions %llu, max staleness "
            "%llu\n",
            diagnostics.admm_iterations_total, a.virtual_seconds, mean_quorum,
            dataset.num_users(),
            static_cast<unsigned long long>(a.late_uploads_total),
            static_cast<unsigned long long>(evictions),
            static_cast<unsigned long long>(a.max_staleness_seen));
        results["async_mean_quorum"] = mean_quorum;
        results["async_late_uploads"] =
            static_cast<double>(a.late_uploads_total);
        results["async_evictions"] = static_cast<double>(evictions);
        results["async_virtual_seconds"] = a.virtual_seconds;
        results["async_max_staleness"] =
            static_cast<double>(a.max_staleness_seen);
        if (args.auto_tune) {
          std::printf(
              "auto-tune: %llu actions, final quorum %.2f, final staleness "
              "bound %llu\n",
              static_cast<unsigned long long>(a.tune_actions), a.final_quorum,
              static_cast<unsigned long long>(a.final_staleness_bound));
          results["async_tune_actions"] =
              static_cast<double>(a.tune_actions);
          results["async_final_quorum"] = a.final_quorum;
          results["async_final_staleness_bound"] =
              static_cast<double>(a.final_staleness_bound);
        }
        // The async engine's wall clock is the deterministic virtual one.
        timing_map["simulated_seconds"] = a.virtual_seconds;
      } else {
        const auto result =
            core::train_distributed_plos(dataset, options, &network);
        model = result.model;
        diagnostics = result.diagnostics;
        std::printf(
            "distributed PLOS: %d ADMM iterations, %.2f simulated s, "
            "%.2f KB/device\n",
            diagnostics.admm_iterations_total,
            network.total_simulated_seconds(),
            network.mean_bytes_per_device() / 1024.0);
        timing_map["simulated_seconds"] = network.total_simulated_seconds();
      }
      if (diagnostics.watchdog_aborted) {
        std::printf("watchdog aborted training after %d ADMM iterations\n",
                    diagnostics.admm_iterations_total);
      }
      rounds_completed = diagnostics.admm_iterations_total;
      results["cccp_rounds"] =
          static_cast<double>(diagnostics.cccp_iterations);
      results["admm_iterations"] =
          static_cast<double>(diagnostics.admm_iterations_total);
      results["qp_solves"] = static_cast<double>(diagnostics.qp_solves);
      results["qp_unconverged"] =
          static_cast<double>(diagnostics.qp_unconverged);
      if (!diagnostics.objective_trace.empty()) {
        results["final_objective"] = diagnostics.objective_trace.back();
      }
      if (!diagnostics.primal_residual_trace.empty()) {
        results["final_primal_residual"] =
            diagnostics.primal_residual_trace.back();
        results["final_dual_residual"] =
            diagnostics.dual_residual_trace.back();
      }
      const auto traffic = network.traffic_snapshot();
      results["bytes_to_devices"] =
          static_cast<double>(traffic.bytes_to_devices);
      results["bytes_to_server"] = static_cast<double>(traffic.bytes_to_server);
      results["messages_dropped"] =
          static_cast<double>(traffic.messages_dropped);
      results["retries"] = static_cast<double>(traffic.retries);
      if (!diagnostics.participation_trace.empty()) {
        double mean = 0.0;
        for (double p : diagnostics.participation_trace) mean += p;
        results["mean_participation"] =
            mean /
            static_cast<double>(diagnostics.participation_trace.size());
      }
      if (fault_spec.any_faults()) {
        const auto& d = diagnostics;
        double mean_participation = 0.0;
        for (double p : d.participation_trace) mean_participation += p;
        if (!d.participation_trace.empty()) {
          mean_participation /=
              static_cast<double>(d.participation_trace.size());
        }
        std::printf(
            "faults: participation %.3f, offline %zu, deadline misses %zu, "
            "dropped %zu (down %zu / up %zu), corrupted %zu, retries %zu, "
            "failed messages %zu\n",
            mean_participation, d.devices_offline_total,
            d.deadline_misses_total,
            d.fault_counters.downlink_dropped + d.fault_counters.uplink_dropped,
            d.fault_counters.downlink_dropped, d.fault_counters.uplink_dropped,
            d.fault_counters.downlink_corrupted +
                d.fault_counters.uplink_corrupted,
            d.fault_counters.retries, d.fault_counters.failed_messages);
      }
    } else {
      core::CentralizedPlosOptions options;
      options.params = params;
      options.num_threads = args.threads;
      options.hotpath_cache = args.hotpath_cache;
      options.journal = journal_ptr;
      options.watchdog = watchdog_ptr;
      const auto result = core::train_centralized_plos(dataset, options);
      model = result.model;
      std::printf("centralized PLOS: %d CCCP rounds, %zu planes, %.2fs\n",
                  result.diagnostics.cccp_iterations,
                  result.diagnostics.final_constraint_count,
                  result.diagnostics.train_seconds);
      if (result.diagnostics.watchdog_aborted) {
        std::printf("watchdog aborted training after %d CCCP rounds\n",
                    result.diagnostics.cccp_iterations);
      }
      rounds_completed = result.diagnostics.cccp_iterations;
      results["cccp_rounds"] =
          static_cast<double>(result.diagnostics.cccp_iterations);
      results["qp_solves"] = static_cast<double>(result.diagnostics.qp_solves);
      results["qp_unconverged"] =
          static_cast<double>(result.diagnostics.qp_unconverged);
      results["constraints"] =
          static_cast<double>(result.diagnostics.final_constraint_count);
      if (!result.diagnostics.objective_trace.empty()) {
        results["final_objective"] = result.diagnostics.objective_trace.back();
      }
    }
    const auto plos_report =
        core::evaluate(dataset, core::predict_all(dataset, model));
    print_report("PLOS", plos_report);
    trained_plos = true;
    plos_overall_accuracy = plos_report.overall;
    results["accuracy.plos.providers"] = plos_report.providers;
    results["accuracy.plos.non_providers"] = plos_report.non_providers;
    results["accuracy.plos.overall"] = plos_report.overall;
    if (!args.save_model_path.empty()) {
      if (core::save_model(model, args.save_model_path)) {
        std::printf("model saved to %s\n", args.save_model_path.c_str());
      } else {
        std::fprintf(stderr, "failed to save model to %s\n",
                     args.save_model_path.c_str());
        return 1;
      }
    }
  }
  core::BaselineOptions baseline_options;
  baseline_options.num_threads = args.threads;
  if (wants(args, "all")) {
    const auto report = core::evaluate(
        dataset, core::run_all_baseline(dataset, baseline_options));
    print_report("All", report);
    results["accuracy.all.overall"] = report.overall;
  }
  if (wants(args, "group")) {
    core::GroupBaselineOptions group_options;
    group_options.base = baseline_options;
    const auto report = core::evaluate(
        dataset, core::run_group_baseline(dataset, group_options));
    print_report("Group", report);
    results["accuracy.group.overall"] = report.overall;
  }
  if (wants(args, "single")) {
    const auto report = core::evaluate(
        dataset, core::run_single_baseline(dataset, baseline_options));
    print_report("Single", report);
    results["accuracy.single.overall"] = report.overall;
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const char* watchdog_verdict = watchdog_on ? watchdog.verdict() : "off";
  PLOS_LOG_INFO("run complete", obs::F("accuracy", plos_overall_accuracy),
                obs::F("trained_plos", trained_plos),
                obs::F("rounds", rounds_completed),
                obs::F("wall_seconds", wall_seconds),
                obs::F("watchdog", watchdog_verdict));

  if (!args.manifest_out.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "plos_run";
    obs::fill_build_info(manifest);
    manifest.seed = args.seed;
    manifest.dataset = data::fingerprint(dataset, args.dataset);
    manifest.options["dataset"] = args.dataset;
    manifest.options["methods"] = args.methods;
    manifest.options["mode"] = args.logistic      ? "logistic"
                               : args.distributed ? "distributed"
                                                  : "centralized";
    manifest.options["lambda"] = render_double(args.lambda);
    manifest.options["cl"] = render_double(args.cl);
    manifest.options["cu"] = render_double(args.cu);
    manifest.options["rate"] = render_double(args.rate);
    if (args.dataset == "synth") {
      manifest.options["rotation"] = render_double(args.rotation);
    }
    manifest.options["hotpath_cache"] = args.hotpath_cache ? "1" : "0";
    // Async keys ride under the "async" prefix so a degenerate-equivalence
    // diff can exclude them wholesale (--ignore options.async); synchronous
    // manifests gain no new keys at all.
    if (args.async_mode) {
      manifest.options["async"] = "1";
      manifest.options["async_quorum"] = render_double(args.quorum);
      manifest.options["async_staleness_bound"] =
          std::to_string(args.staleness_bound);
      manifest.options["async_adaptive_deadline"] =
          args.adaptive_deadline ? "on" : "off";
      if (args.auto_tune) manifest.options["async_auto_tune"] = "on";
    }
    // Only non-default downsampling lands in the manifest: default-1 runs
    // keep byte-identical manifests with pre-flag builds (golden files).
    if (args.journal_every > 1) {
      manifest.options["journal_every"] = std::to_string(args.journal_every);
    }
    manifest.options["watchdog"] = args.watchdog;
    if (args.watchdog_stall_rounds > 0) {
      manifest.options["watchdog_stall_rounds"] =
          std::to_string(args.watchdog_stall_rounds);
    }
    const bool any_faults = args.fault_drop > 0.0 || args.fault_offline > 0.0 ||
                            args.fault_straggler > 0.0 ||
                            args.fault_corrupt > 0.0 ||
                            args.round_deadline > 0.0;
    if (any_faults) {
      manifest.fault["drop_probability"] = render_double(args.fault_drop);
      manifest.fault["offline_probability"] = render_double(args.fault_offline);
      manifest.fault["straggler_probability"] =
          render_double(args.fault_straggler);
      manifest.fault["corrupt_probability"] = render_double(args.fault_corrupt);
      manifest.fault["round_deadline_s"] = render_double(args.round_deadline);
    }
    manifest.results = results;
    manifest.watchdog_verdict = watchdog_verdict;
    manifest.watchdog_violations = watchdog.violations().size();
    if (!watchdog.violations().empty()) {
      manifest.watchdog_first_violation =
          obs::violation_kind_name(watchdog.violations().front().kind);
    }
    manifest.threads =
        args.threads == 0
            ? static_cast<int>(std::thread::hardware_concurrency())
            : args.threads;
    manifest.wall_seconds = wall_seconds;
    manifest.timing = timing_map;
    if (!obs::write_manifest(manifest, args.manifest_out)) {
      std::fprintf(stderr, "failed to write manifest to %s\n",
                   args.manifest_out.c_str());
      return 1;
    }
    if (args.manifest_out != "-") {
      std::printf("manifest written to %s\n", args.manifest_out.c_str());
    }
  }
  if (!args.journal_out.empty()) {
    if (!journal.write_jsonl(args.journal_out)) {
      std::fprintf(stderr, "failed to write journal to %s\n",
                   args.journal_out.c_str());
      return 1;
    }
    if (args.journal_out != "-") {
      std::printf("journal written to %s\n", args.journal_out.c_str());
    }
  }
  if (!args.trace_out.empty()) {
    if (obs::TraceCollector::instance().write_chrome_json(args.trace_out)) {
      std::printf("trace written to %s\n", args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  if (!args.metrics_out.empty()) {
    const std::string payload = args.metrics_format == "prom"
                                    ? obs::metrics().to_prometheus()
                                    : obs::metrics().to_json();
    if (!write_text(args.metrics_out, payload)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    if (args.metrics_out != "-") {
      std::printf("metrics written to %s\n", args.metrics_out.c_str());
    }
  }
  if (!args.profile_out.empty()) {
    obs::ProfileJsonOptions profile_options;
    profile_options.registry = &obs::metrics();
    if (!obs::write_profile(args.profile_out, profile_options)) {
      std::fprintf(stderr, "failed to write profile to %s\n",
                   args.profile_out.c_str());
      return 1;
    }
    if (args.profile_out != "-") {
      std::printf("profile written to %s\n", args.profile_out.c_str());
    }
  }
  return 0;
}
