// Cache-equivalence suite for the hot-path engine (DESIGN.md §13).
//
// The Gram/cutting-plane dot cache is memoization of a pure function, so
// it must be BITWISE invisible: for both trainers, at every supported
// thread count, a run with hotpath_cache=true must produce the same model
// doubles, the same serialized round journal, and the same integer-exact
// SimNetwork byte ledgers as a run with hotpath_cache=false. A second set
// of tests proves
// the cache is actually ON in the default configuration by asserting the
// obs counters record real reuse — equivalence alone would also pass if the
// cache silently never engaged.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

data::MultiUserDataset make_population() {
  data::SyntheticSpec spec;
  spec.num_users = 5;
  spec.points_per_class = 18;
  spec.max_rotation = 1.1;
  rng::Engine engine(23);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 2}, 0.3, engine);
  return dataset;
}

void expect_bitwise_equal(const linalg::Vector& cached,
                          const linalg::Vector& plain, const char* what) {
  ASSERT_EQ(cached.size(), plain.size()) << what;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    // Exact double comparison on purpose: the contract is bitwise identity.
    ASSERT_EQ(cached[i], plain[i]) << what << " differs at " << i;
  }
}

void expect_models_equal(const PersonalizedModel& cached,
                         const PersonalizedModel& plain) {
  expect_bitwise_equal(cached.global_weights, plain.global_weights, "w0");
  ASSERT_EQ(cached.user_deviations.size(), plain.user_deviations.size());
  for (std::size_t t = 0; t < cached.user_deviations.size(); ++t) {
    expect_bitwise_equal(cached.user_deviations[t], plain.user_deviations[t],
                         "v_t");
  }
}

class CacheEquivalence : public ::testing::TestWithParam<int> {};

CentralizedPlosOptions centralized_options(int threads, bool cache,
                                           obs::Journal* journal) {
  CentralizedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.num_threads = threads;
  options.hotpath_cache = cache;
  options.journal = journal;
  return options;
}

DistributedPlosOptions distributed_options(int threads, bool cache,
                                           obs::Journal* journal) {
  DistributedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 50;
  options.num_threads = threads;
  options.hotpath_cache = cache;
  options.journal = journal;
  return options;
}

TEST_P(CacheEquivalence, CentralizedModelAndJournalBitwiseIdentical) {
  const auto dataset = make_population();
  obs::Journal cached_journal;
  obs::Journal plain_journal;
  const auto cached = train_centralized_plos(
      dataset, centralized_options(GetParam(), true, &cached_journal));
  const auto plain = train_centralized_plos(
      dataset, centralized_options(GetParam(), false, &plain_journal));

  expect_models_equal(cached.model, plain.model);
  ASSERT_EQ(cached.diagnostics.objective_trace.size(),
            plain.diagnostics.objective_trace.size());
  for (std::size_t i = 0; i < cached.diagnostics.objective_trace.size(); ++i) {
    ASSERT_EQ(cached.diagnostics.objective_trace[i],
              plain.diagnostics.objective_trace[i])
        << "objective entry " << i;
  }
  EXPECT_EQ(cached.diagnostics.qp_solves, plain.diagnostics.qp_solves);
  EXPECT_EQ(cached.diagnostics.final_constraint_count,
            plain.diagnostics.final_constraint_count);
  // Byte-identical serialized journals: same objectives, same constraint
  // counts, same QP work — the cache may not even change iteration counts.
  EXPECT_EQ(cached_journal.to_jsonl(), plain_journal.to_jsonl());
}

TEST_P(CacheEquivalence, DistributedModelJournalAndLedgerBitwiseIdentical) {
  const auto dataset = make_population();
  obs::Journal cached_journal;
  obs::Journal plain_journal;
  net::SimNetwork cached_net(dataset.num_users(), net::DeviceProfile{},
                             net::LinkProfile{});
  net::SimNetwork plain_net(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
  const auto cached = train_distributed_plos(
      dataset, distributed_options(GetParam(), true, &cached_journal),
      &cached_net);
  const auto plain = train_distributed_plos(
      dataset, distributed_options(GetParam(), false, &plain_journal),
      &plain_net);

  expect_models_equal(cached.model, plain.model);
  EXPECT_EQ(cached.diagnostics.admm_iterations_total,
            plain.diagnostics.admm_iterations_total);
  EXPECT_EQ(cached.diagnostics.qp_solves, plain.diagnostics.qp_solves);
  EXPECT_EQ(cached_journal.to_jsonl(), plain_journal.to_jsonl());

  EXPECT_EQ(cached_net.server_metrics().bytes_sent,
            plain_net.server_metrics().bytes_sent);
  EXPECT_EQ(cached_net.server_metrics().bytes_received,
            plain_net.server_metrics().bytes_received);
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    const auto& c = cached_net.device_metrics(t);
    const auto& p = plain_net.device_metrics(t);
    EXPECT_EQ(c.bytes_sent, p.bytes_sent) << "device " << t;
    EXPECT_EQ(c.bytes_received, p.bytes_received) << "device " << t;
    EXPECT_EQ(c.messages_sent, p.messages_sent) << "device " << t;
    EXPECT_EQ(c.messages_received, p.messages_received) << "device " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CacheEquivalence,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) {
                           return "threads" + std::to_string(param_info.param);
                         });

// Equivalence is vacuous if the cache never engages: prove reuse happens.
// The global registry starts disabled; these tests enable it around one
// training run and read the counters back. They are deliberately not
// parameterized — counters are process-global and cumulative.

struct CounterSnapshot {
  double dots_reused;
  double planes_reused;
  double warm_store_hits;
  double warm_hits;
};

CounterSnapshot snapshot(const char* warm_hit_counter) {
  auto& registry = obs::metrics();
  return {registry.counter("plos.gram_cache.dots_reused").value(),
          registry.counter("plos.gram_cache.planes_reused").value(),
          registry.counter("qp.warm_store.hits").value(),
          registry.counter(warm_hit_counter).value()};
}

TEST(CacheCounters, CentralizedRunRecordsReuse) {
  const auto dataset = make_population();
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  (void)train_centralized_plos(dataset,
                               centralized_options(1, true, nullptr));
  const auto counters = snapshot("qp.capped_simplex.warm_hits");
  registry.set_enabled(false);

  // Cross-iteration dual re-solves and the sign-fitting inner loops hit the
  // Gram cache; cross-round warm-start seeding must land at least one hit.
  EXPECT_GT(counters.dots_reused, 0.0);
  EXPECT_GT(counters.warm_store_hits, 0.0);
}

TEST(CacheCounters, DistributedRunRecordsReuse) {
  const auto dataset = make_population();
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  (void)train_distributed_plos(dataset, distributed_options(1, true, nullptr),
                               nullptr);
  const auto counters = snapshot("qp.capped_simplex.warm_hits");
  registry.set_enabled(false);

  EXPECT_GT(counters.dots_reused, 0.0);
  EXPECT_GT(counters.warm_store_hits, 0.0);
}

TEST(CacheCounters, DisabledCacheRecordsNoDotReuse) {
  const auto dataset = make_population();
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  (void)train_distributed_plos(dataset, distributed_options(1, false, nullptr),
                               nullptr);
  const double dots_reused =
      registry.counter("plos.gram_cache.dots_reused").value();
  registry.set_enabled(false);

  // hotpath_cache=false disables memoization only (interning and warm-start
  // seeding are algorithm state and stay on), so dot reuse must be exactly
  // zero.
  EXPECT_EQ(dots_reused, 0.0);
}

}  // namespace
}  // namespace plos::core
