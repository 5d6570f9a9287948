// Ablation 7 — partial participation in distributed PLOS (§VII future
// work): accuracy, ADMM iterations, and per-device traffic as the fault
// schedule's per-round churn (FaultSpec::offline_probability) rises, i.e.
// as expected participation 1 - offline drops. Offline devices keep their
// last upload in force on the server.
// Expected shape: accuracy degrades gracefully; iterations to converge grow
// as staleness rises, but per-round traffic falls proportionally.
#include <benchmark/benchmark.h>

#include <numbers>

#include "bench_support.hpp"
#include "net/fault.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace {

using namespace plos;

data::MultiUserDataset make_dataset() {
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = 60;
  spec.max_rotation = std::numbers::pi / 2.0;
  rng::Engine engine(71);
  auto dataset = data::generate_synthetic(spec, engine);
  bench::reveal_spread_providers(dataset, 10, 0.05, 72);
  return dataset;
}

core::DistributedPlosOptions make_options() {
  core::DistributedPlosOptions options = bench::bench_distributed_options();
  options.cutting_plane.epsilon = 5e-2;
  options.cccp.max_iterations = 3;
  return options;
}

/// Trains on a network whose fault schedule takes each device offline for
/// a round with probability `offline`.
core::DistributedPlosResult train_with_churn(
    const data::MultiUserDataset& dataset, double offline,
    net::SimNetwork& network) {
  net::FaultSpec spec;
  spec.offline_probability = offline;
  spec.seed = 7;
  network.set_fault_model(net::FaultModel(spec));
  return core::train_distributed_plos(dataset, make_options(), &network);
}

void print_figure() {
  bench::print_title(
      "Ablation 7: distributed PLOS vs per-round churn (offline probability)");
  const std::vector<std::string> names{"acc_label", "acc_unlabel",
                                       "admm_iters", "overhead_kb"};
  bench::print_header("offline", names);

  const auto dataset = make_dataset();
  for (double offline : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    const auto result = train_with_churn(dataset, offline, network);
    const auto report =
        core::evaluate(dataset, core::predict_all(dataset, result.model));
    bench::print_row(
        offline, std::vector<double>{
                     report.providers, report.non_providers,
                     static_cast<double>(
                         result.diagnostics.admm_iterations_total),
                     network.mean_bytes_per_device() / 1024.0});
  }
}

void BM_HalfParticipationChurn(benchmark::State& state) {
  const auto dataset = make_dataset();
  for (auto _ : state) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    benchmark::DoNotOptimize(train_with_churn(dataset, 0.5, network));
  }
}
BENCHMARK(BM_HalfParticipationChurn)
    ->Unit(benchmark::kMillisecond)
    ->Apply(plos::bench::bench_time_config);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
