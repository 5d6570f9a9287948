// Tests for partial participation in distributed PLOS (paper §VII future
// work). Per-round participation is the fault schedule's churn: a device
// is offline in a round with FaultSpec::offline_probability, and its last
// upload (w_t, v_t, ξ_t) and dual u_t stay in force on the server until it
// next responds.
#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/fault.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

data::MultiUserDataset make_population(std::uint64_t seed,
                                       std::size_t num_users = 6) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = 30;
  spec.max_rotation = 0.5;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers;
  for (std::size_t t = 0; t < num_users; t += 2) providers.push_back(t);
  data::reveal_labels(dataset, providers, 0.3, engine);
  return dataset;
}

DistributedPlosOptions fast_options() {
  DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 150;
  return options;
}

struct ChurnRun {
  DistributedPlosResult result;
  std::size_t server_bytes = 0;
};

/// Trains with each device offline in a round with probability `offline`
/// (expected participation 1 - offline).
ChurnRun train_with_churn(const data::MultiUserDataset& dataset,
                          double offline) {
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  net::FaultSpec spec;
  spec.offline_probability = offline;
  spec.seed = 7;
  network.set_fault_model(net::FaultModel(spec));
  ChurnRun run{train_distributed_plos(dataset, fast_options(), &network)};
  run.server_bytes = network.server_metrics().bytes_received;
  return run;
}

double accuracy(const data::MultiUserDataset& dataset,
                const DistributedPlosResult& result) {
  return evaluate(dataset, predict_all(dataset, result.model)).overall;
}

TEST(AsyncDistributedPlos, FullParticipationMatchesSynchronous) {
  auto dataset = make_population(1);
  net::SimNetwork network(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto sync = train_distributed_plos(dataset, fast_options(), &network);
  const auto full = train_with_churn(dataset, 0.0);
  EXPECT_TRUE(linalg::approx_equal(sync.model.global_weights,
                                   full.result.model.global_weights, 0.0));
  EXPECT_EQ(sync.diagnostics.admm_iterations_total,
            full.result.diagnostics.admm_iterations_total);
  EXPECT_EQ(network.server_metrics().bytes_received, full.server_bytes);
}

TEST(AsyncDistributedPlos, PartialParticipationStillLearns) {
  auto dataset = make_population(2);
  const auto half = train_with_churn(dataset, 0.5);
  EXPECT_GT(half.result.diagnostics.devices_offline_total, 0u);
  EXPECT_GT(accuracy(dataset, half.result), 0.75);
}

TEST(AsyncDistributedPlos, AccuracyDegradesGracefully) {
  auto dataset = make_population(3);
  const auto full = train_with_churn(dataset, 0.0);
  const auto sparse = train_with_churn(dataset, 0.7);
  EXPECT_GT(accuracy(dataset, sparse.result),
            accuracy(dataset, full.result) - 0.15);
}

TEST(AsyncDistributedPlos, BootstrapSurvivesChurnOfEveryProvider) {
  // This schedule takes all three label providers offline in the bootstrap
  // round; the server reopens the bootstrap instead of starting from a
  // random direction that discards every label.
  net::FaultSpec spec;
  spec.offline_probability = 0.7;
  spec.seed = 7;
  const net::FaultModel fault(spec);
  for (std::size_t provider : {0, 2, 4}) ASSERT_TRUE(fault.offline(0, provider));
  auto dataset = make_population(1);
  const auto churned = train_with_churn(dataset, 0.7);
  EXPECT_GT(accuracy(dataset, churned.result), 0.8);
}

TEST(AsyncDistributedPlos, LowerParticipationSendsFewerMessagesPerRound) {
  auto dataset = make_population(4, 8);
  const auto full = train_with_churn(dataset, 0.0);
  const auto sparse = train_with_churn(dataset, 0.6);
  const double full_bytes_per_round =
      static_cast<double>(full.server_bytes) /
      std::max(1, full.result.diagnostics.admm_iterations_total);
  const double sparse_bytes_per_round =
      static_cast<double>(sparse.server_bytes) /
      std::max(1, sparse.result.diagnostics.admm_iterations_total);
  EXPECT_LT(sparse_bytes_per_round, 0.8 * full_bytes_per_round);
}

TEST(AsyncDistributedPlos, DeterministicGivenScheduleSeed) {
  auto dataset = make_population(5);
  const auto a = train_with_churn(dataset, 0.4);
  const auto b = train_with_churn(dataset, 0.4);
  EXPECT_TRUE(linalg::approx_equal(a.result.model.global_weights,
                                   b.result.model.global_weights, 0.0));
  EXPECT_EQ(a.server_bytes, b.server_bytes);
}

TEST(AsyncDistributedPlos, InvalidParticipationThrows) {
  net::FaultSpec spec;
  spec.offline_probability = -0.1;
  EXPECT_THROW(net::FaultModel{spec}, PreconditionError);
  spec.offline_probability = 1.5;
  EXPECT_THROW(net::FaultModel{spec}, PreconditionError);
}

}  // namespace
}  // namespace plos::core
