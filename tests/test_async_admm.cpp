// Tests for the asynchronous bounded-staleness quorum schedule: the
// synchronous trainer picks the engine's degenerate configuration (bitwise
// equal runs), cross-thread byte identity, the bounded-staleness property,
// and the latency/deadline model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "async/async_admm.hpp"
#include "common/assert.hpp"
#include "core/autotune.hpp"
#include "core/latency.hpp"
#include "core/distributed_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "rng/engine.hpp"

namespace plos::async {
namespace {

using core::AdaptiveDeadlines;
using core::AutoTuneConfig;
using core::AutoTuneDecision;
using core::AutoTuner;
using core::completion_seconds;
using core::LatencyModelSpec;

data::MultiUserDataset make_population(std::size_t num_users,
                                       double max_rotation,
                                       std::size_t num_providers,
                                       double training_rate,
                                       std::uint64_t seed,
                                       std::size_t points_per_class = 30) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = points_per_class;
  spec.max_rotation = max_rotation;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers(num_providers);
  for (std::size_t i = 0; i < num_providers; ++i) providers[i] = i;
  data::reveal_labels(dataset, providers, training_rate, engine);
  return dataset;
}

core::DistributedPlosOptions fast_base() {
  core::DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  return options;
}

/// Degenerate configuration: 100% quorum, no deadlines — the configuration
/// train_distributed_plos runs the engine in, so both entry points must
/// agree bit for bit.
AsyncQuorumOptions degenerate_options(std::uint64_t staleness_bound = 0) {
  AsyncQuorumOptions options;
  options.base = fast_base();
  options.quorum = 1.0;
  options.staleness_bound = staleness_bound;
  options.adaptive_deadline = false;
  options.fixed_deadline_s = 0.0;
  return options;
}

void expect_models_bitwise_equal(const core::PersonalizedModel& a,
                                 const core::PersonalizedModel& b) {
  ASSERT_EQ(a.global_weights.size(), b.global_weights.size());
  for (std::size_t j = 0; j < a.global_weights.size(); ++j) {
    EXPECT_EQ(a.global_weights[j], b.global_weights[j]) << "w0[" << j << "]";
  }
  ASSERT_EQ(a.user_deviations.size(), b.user_deviations.size());
  for (std::size_t t = 0; t < a.user_deviations.size(); ++t) {
    ASSERT_EQ(a.user_deviations[t].size(), b.user_deviations[t].size());
    for (std::size_t j = 0; j < a.user_deviations[t].size(); ++j) {
      EXPECT_EQ(a.user_deviations[t][j], b.user_deviations[t][j])
          << "dev[" << t << "][" << j << "]";
    }
  }
}

TEST(AsyncQuorum, DegenerateMatchesSyncBitwiseFaultFree) {
  auto dataset = make_population(6, 0.4, 3, 0.4, 21);

  obs::Journal sync_journal;
  auto sync_options = fast_base();
  sync_options.journal = &sync_journal;
  net::SimNetwork sync_net(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto sync =
      core::train_distributed_plos(dataset, sync_options, &sync_net);

  obs::Journal async_journal;
  auto async_options = degenerate_options();  // staleness_bound = 0
  async_options.base.journal = &async_journal;
  net::SimNetwork async_net(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto async_result =
      train_async_quorum_plos(dataset, async_options, &async_net);

  expect_models_bitwise_equal(sync.model, async_result.model);
  EXPECT_EQ(sync_journal.to_jsonl(), async_journal.to_jsonl());
  const auto sync_traffic = sync_net.traffic_snapshot();
  const auto async_traffic = async_net.traffic_snapshot();
  EXPECT_EQ(sync_traffic.bytes_to_devices, async_traffic.bytes_to_devices);
  EXPECT_EQ(sync_traffic.bytes_to_server, async_traffic.bytes_to_server);
  EXPECT_EQ(sync_traffic.messages_dropped, async_traffic.messages_dropped);
  EXPECT_EQ(sync_traffic.retries, async_traffic.retries);
  // Nothing was ever late, busy, or evicted.
  EXPECT_EQ(async_result.async.late_uploads_total, 0u);
  EXPECT_EQ(async_result.async.evictions_offline_total, 0u);
  EXPECT_EQ(async_result.async.evictions_late_total, 0u);
  EXPECT_EQ(async_result.async.evictions_failed_total, 0u);
  EXPECT_EQ(async_result.async.max_staleness_seen, 0u);
}

TEST(AsyncQuorum, DegenerateMatchesSyncBitwiseUnderFaults) {
  auto dataset = make_population(6, 0.4, 3, 0.4, 22);
  net::FaultSpec spec;
  spec.drop_probability = 0.15;
  spec.offline_probability = 0.15;
  spec.straggler_probability = 0.2;
  spec.straggler_slowdown = 3.0;
  spec.round_deadline_s = 0.0;  // the sync engine must wait, like quorum=1
  spec.seed = 5;

  obs::Journal sync_journal;
  auto sync_options = fast_base();
  sync_options.journal = &sync_journal;
  net::SimNetwork sync_net(6, net::DeviceProfile{}, net::LinkProfile{});
  sync_net.set_fault_model(net::FaultModel(spec));
  const auto sync =
      core::train_distributed_plos(dataset, sync_options, &sync_net);

  obs::Journal async_journal;
  // A bound larger than any possible run length: the sync engine never
  // evicts, so the degenerate async run must not either.
  auto async_options = degenerate_options(/*staleness_bound=*/1u << 20);
  async_options.base.journal = &async_journal;
  net::SimNetwork async_net(6, net::DeviceProfile{}, net::LinkProfile{});
  async_net.set_fault_model(net::FaultModel(spec));
  const auto async_result =
      train_async_quorum_plos(dataset, async_options, &async_net);

  expect_models_bitwise_equal(sync.model, async_result.model);
  EXPECT_EQ(sync_journal.to_jsonl(), async_journal.to_jsonl());
  const auto sync_traffic = sync_net.traffic_snapshot();
  const auto async_traffic = async_net.traffic_snapshot();
  EXPECT_EQ(sync_traffic.bytes_to_devices, async_traffic.bytes_to_devices);
  EXPECT_EQ(sync_traffic.bytes_to_server, async_traffic.bytes_to_server);
  EXPECT_EQ(sync_traffic.messages_dropped, async_traffic.messages_dropped);
  EXPECT_EQ(sync_traffic.retries, async_traffic.retries);
  EXPECT_EQ(sync.diagnostics.devices_offline_total,
            async_result.diagnostics.devices_offline_total);
  EXPECT_EQ(sync.diagnostics.downlink_failures_total,
            async_result.diagnostics.downlink_failures_total);
  EXPECT_EQ(sync.diagnostics.uplink_failures_total,
            async_result.diagnostics.uplink_failures_total);
}

/// Full async configuration (partial quorum, tight staleness bound,
/// adaptive deadlines, churn + stragglers): models, journals, and the
/// virtual clock must be bitwise identical at every thread count.
TEST(AsyncQuorum, ByteIdenticalAcrossThreadCounts) {
  auto dataset = make_population(8, 0.5, 4, 0.4, 23);
  net::FaultSpec spec;
  spec.drop_probability = 0.1;
  spec.offline_probability = 0.2;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 5.0;
  spec.retry_jitter = 0.5;
  spec.seed = 9;

  std::string reference_journal;
  core::PersonalizedModel reference_model;
  double reference_virtual = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    obs::Journal journal;
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.base.num_threads = threads;
    options.base.journal = &journal;
    options.quorum = 0.6;
    options.staleness_bound = 2;
    options.adaptive_deadline = true;
    net::SimNetwork network(8, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    const auto result = train_async_quorum_plos(dataset, options, &network);
    if (threads == 1) {
      reference_journal = journal.to_jsonl();
      reference_model = result.model;
      reference_virtual = result.async.virtual_seconds;
      EXPECT_FALSE(reference_journal.empty());
    } else {
      EXPECT_EQ(journal.to_jsonl(), reference_journal)
          << "journal diverged at " << threads << " threads";
      expect_models_bitwise_equal(reference_model, result.model);
      EXPECT_EQ(result.async.virtual_seconds, reference_virtual)
          << "virtual clock diverged at " << threads << " threads";
    }
  }
}

/// The bounded-staleness property: with 20% churn and a bound of S, no
/// server block older than S steps ever enters an aggregate — at any
/// thread count — and the bound actually bites (evictions happen).
TEST(AsyncQuorum, NoAggregateEverSeesBlocksOlderThanBound) {
  auto dataset = make_population(10, 0.5, 5, 0.4, 24);
  constexpr std::uint64_t kBound = 3;
  net::FaultSpec spec;
  spec.offline_probability = 0.2;  // 20% churn
  spec.drop_probability = 0.1;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 6.0;
  spec.seed = 31;

  for (int threads : {1, 2, 4, 8}) {
    obs::Journal journal;
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.base.num_threads = threads;
    options.base.journal = &journal;
    options.quorum = 0.5;
    options.staleness_bound = kBound;
    net::SimNetwork network(10, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    const auto result = train_async_quorum_plos(dataset, options, &network);

    EXPECT_LE(result.async.max_staleness_seen, kBound);
    std::uint64_t evictions = 0;
    for (const obs::RoundRecord& record : journal.records()) {
      EXPECT_LE(record.max_staleness, kBound)
          << "stale block in aggregate at cccp " << record.cccp_round
          << " admm " << record.admm_iteration << " (" << threads
          << " threads)";
      ASSERT_FALSE(record.staleness_hist.empty());
      for (std::size_t bucket = static_cast<std::size_t>(kBound) + 1;
           bucket < record.staleness_hist.size(); ++bucket) {
        EXPECT_EQ(record.staleness_hist[bucket], 0u);
      }
      evictions += record.evictions_offline + record.evictions_late +
                   record.evictions_failed;
    }
    // The property must not hold vacuously: churn at this rate has to
    // trigger evictions, otherwise the bound was never exercised.
    EXPECT_GT(evictions, 0u) << "at " << threads << " threads";
  }
}

/// A partial quorum must cut rounds earlier than the full barrier on a
/// straggler-heavy fleet: same fleet, same faults, less virtual time.
TEST(AsyncQuorum, PartialQuorumShortensVirtualTime) {
  auto dataset = make_population(10, 0.4, 5, 0.4, 25);
  net::FaultSpec spec;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 8.0;
  spec.seed = 41;

  const auto run = [&](double quorum) {
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.quorum = quorum;
    options.staleness_bound = 1u << 20;  // isolate the quorum effect
    options.adaptive_deadline = false;
    net::SimNetwork network(10, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    return train_async_quorum_plos(dataset, options, &network);
  };

  const auto barrier = run(1.0);
  const auto quorum = run(0.6);
  ASSERT_GT(barrier.async.virtual_seconds, 0.0);
  EXPECT_LT(quorum.async.virtual_seconds,
            0.8 * barrier.async.virtual_seconds);
}

/// A late upload joins the first aggregate cut after it lands: in the
/// flight log, no aggregate that could have taken a folded upload (any
/// step after the one its solve was based on) was cut at or after its
/// arrival without it.
TEST(AsyncQuorum, LateUploadsFoldIntoFirstCutAfterArrival) {
  auto dataset = make_population(10, 0.4, 5, 0.4, 25);
  net::FaultSpec spec;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 8.0;
  spec.seed = 41;
  obs::FlightRecorder flight;
  AsyncQuorumOptions options;
  options.base = fast_base();
  options.quorum = 0.6;
  options.staleness_bound = 1u << 20;
  options.flight = &flight;
  net::SimNetwork network(10, net::DeviceProfile{}, net::LinkProfile{});
  network.set_fault_model(net::FaultModel(spec));
  train_async_quorum_plos(dataset, options, &network);
  ASSERT_EQ(flight.dropped(), 0u);

  const std::vector<obs::FlightEvent> events = flight.events();
  std::map<std::uint64_t, double> cut_at;  // aggregation step -> virtual s
  for (const obs::FlightEvent& event : events) {
    if (event.kind == obs::FlightEventKind::kAggregate) {
      cut_at[event.round] = event.t_start;
    }
  }
  std::size_t folds = 0;
  for (const obs::FlightEvent& event : events) {
    if (event.kind != obs::FlightEventKind::kLateFold) continue;
    ++folds;
    ASSERT_LE(event.staleness, event.round);
    for (std::uint64_t step = event.round - event.staleness + 1;
         step < event.round; ++step) {
      ASSERT_EQ(cut_at.count(step), 1u);
      EXPECT_LT(cut_at[step], event.t_start)
          << "device " << event.device << " landed at " << event.t_start
          << " but skipped the cut of step " << step << " and folded at "
          << event.round;
    }
  }
  EXPECT_GT(folds, 0u);
}

TEST(AsyncQuorum, RejectsInvalidQuorum) {
  auto dataset = make_population(3, 0.3, 2, 0.4, 26);
  AsyncQuorumOptions options;
  options.base = fast_base();
  net::SimNetwork network(3, net::DeviceProfile{}, net::LinkProfile{});
  options.quorum = 0.0;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, &network),
               PreconditionError);
  options.quorum = 1.5;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, &network),
               PreconditionError);
  options.quorum = 0.5;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, nullptr),
               PreconditionError);
}

// ---- AutoTuner ------------------------------------------------------------

obs::RoundRecord record_with_tail(double stale_p99) {
  obs::RoundRecord record;
  record.stale_p99 = stale_p99;
  return record;
}

AutoTuneConfig small_config() {
  AutoTuneConfig config;
  config.enabled = true;
  config.min_quorum = 0.5;
  config.max_quorum = 1.0;
  config.quorum_step = 0.1;
  config.min_bound = 2;
  config.max_bound = 16;
  config.patience = 2;
  config.cooldown = 2;
  return config;
}

TEST(AutoTuner, WidensBoundAfterPatienceThenHoldsThroughCooldown) {
  AutoTuner tuner(small_config(), 0.6, 4);
  // p99 at 3.5 >= 0.75 * 4: widen signal, but patience = 2 means the first
  // sighting produces no action.
  AutoTuneDecision d = tuner.observe(record_with_tail(3.5));
  EXPECT_STREQ(d.event, "");
  EXPECT_EQ(tuner.staleness_bound(), 4u);
  d = tuner.observe(record_with_tail(3.5));
  EXPECT_STREQ(d.event, "bound_widen");
  EXPECT_EQ(d.trigger, 3.5);
  EXPECT_EQ(tuner.staleness_bound(), 8u);
  EXPECT_EQ(d.staleness_bound, 8u);
  // Two cooldown steps hold even though the signal persists at the new
  // bound (7 >= 0.75 * 8)...
  d = tuner.observe(record_with_tail(7.0));
  EXPECT_STREQ(d.event, "hold");
  d = tuner.observe(record_with_tail(7.0));
  EXPECT_STREQ(d.event, "hold");
  EXPECT_EQ(tuner.staleness_bound(), 8u);
  // ...and the streak carried through the hold, so the next step acts.
  d = tuner.observe(record_with_tail(7.0));
  EXPECT_STREQ(d.event, "bound_widen");
  EXPECT_EQ(tuner.staleness_bound(), 16u);
}

TEST(AutoTuner, RaisesQuorumOnceBoundIsMaxed) {
  AutoTuneConfig config = small_config();
  config.cooldown = 0;
  AutoTuner tuner(config, 0.6, 16);
  tuner.observe(record_with_tail(15.0));
  const AutoTuneDecision d = tuner.observe(record_with_tail(15.0));
  EXPECT_STREQ(d.event, "quorum_up");
  EXPECT_EQ(tuner.staleness_bound(), 16u);
  EXPECT_NEAR(tuner.quorum(), 0.7, 1e-12);
}

TEST(AutoTuner, LowersQuorumWhenTailIsComfortablyInsideTheBound) {
  AutoTuneConfig config = small_config();
  config.cooldown = 0;
  AutoTuner tuner(config, 0.8, 16);
  tuner.observe(record_with_tail(2.0));  // 2 * 2 <= 16: lower signal
  const AutoTuneDecision d = tuner.observe(record_with_tail(2.0));
  EXPECT_STREQ(d.event, "quorum_down");
  EXPECT_NEAR(tuner.quorum(), 0.7, 1e-12);
  EXPECT_EQ(tuner.staleness_bound(), 16u);  // tighten deferred to the floor
}

TEST(AutoTuner, TightensBoundOnlyAfterQuorumReachesTheFloor) {
  AutoTuneConfig config = small_config();
  config.cooldown = 0;
  AutoTuner tuner(config, 0.5, 16);  // quorum already at min_quorum
  tuner.observe(record_with_tail(1.0));  // 4 * 1 <= 16: tighten signal
  const AutoTuneDecision d = tuner.observe(record_with_tail(1.0));
  EXPECT_STREQ(d.event, "bound_tighten");
  EXPECT_EQ(tuner.staleness_bound(), 8u);
  EXPECT_NEAR(tuner.quorum(), 0.5, 1e-12);
}

TEST(AutoTuner, NoisyRoundDoesNotFlipAKnob) {
  AutoTuner tuner(small_config(), 0.6, 4);
  // Alternate widen / quiet: the streak resets each quiet step, so with
  // patience = 2 nothing ever fires.
  for (int i = 0; i < 10; ++i) {
    const double p99 = (i % 2 == 0) ? 3.9 : 0.0;
    const AutoTuneDecision d = tuner.observe(record_with_tail(p99));
    EXPECT_TRUE(d.event[0] == '\0' || std::string(d.event) == "hold") << i;
  }
  EXPECT_EQ(tuner.staleness_bound(), 4u);
  EXPECT_NEAR(tuner.quorum(), 0.6, 1e-12);
}

TEST(AutoTuner, UnsetSketchMeansNoDecision) {
  AutoTuner tuner(small_config(), 0.6, 4);
  const AutoTuneDecision d = tuner.observe(obs::RoundRecord{});
  EXPECT_STREQ(d.event, "");
  EXPECT_TRUE(std::isnan(d.trigger));
}

TEST(AutoTuner, ClampsInitialKnobsAndRejectsBadConfig) {
  AutoTuner tuner(small_config(), 1.5, 1000);
  EXPECT_NEAR(tuner.quorum(), 1.0, 1e-12);
  EXPECT_EQ(tuner.staleness_bound(), 16u);
  AutoTuneConfig bad = small_config();
  bad.patience = 0;
  EXPECT_THROW(AutoTuner(bad, 0.6, 4), PreconditionError);
}

TEST(LatencyModel, CompletionSecondsIsDeterministicAndJitterBounded) {
  LatencyModelSpec spec;
  spec.jitter = 0.2;
  spec.seed = 77;
  const double base = spec.compute_base_s;
  const double a = completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4);
  const double b = completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4);
  EXPECT_EQ(a, b);
  const double nominal =
      0.1 + (base + spec.compute_per_qp_iter_s * 50.0) * 10.0;
  EXPECT_GE(a, nominal * 0.8);
  EXPECT_LT(a, nominal * 1.2);
  // Different devices draw different jitter.
  const double c = completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 5);
  EXPECT_NE(a, c);
  // Zero jitter is exactly the nominal time.
  spec.jitter = 0.0;
  EXPECT_EQ(completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4), nominal);
  // The straggler multiplier scales only the compute proxy.
  spec.jitter = 0.0;
  const double slowed = completion_seconds(spec, 0.1, 50, 10.0, 3.0, 3, 4);
  EXPECT_DOUBLE_EQ(slowed,
                   0.1 + (base + spec.compute_per_qp_iter_s * 50.0) * 30.0);
}

TEST(AdaptiveDeadlinesTest, EwmaTracksObservationsAndSlackApplies) {
  AdaptiveDeadlines deadlines(2, /*adaptive=*/true, /*slack=*/2.0,
                              /*alpha=*/0.5, /*fixed_deadline_s=*/0.0);
  // No observations yet and no fixed fallback: no deadline.
  EXPECT_TRUE(std::isinf(deadlines.deadline(0)));
  deadlines.observe(0, 1.0);
  EXPECT_DOUBLE_EQ(deadlines.ewma(0), 1.0);
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 2.0);
  deadlines.observe(0, 2.0);
  EXPECT_DOUBLE_EQ(deadlines.ewma(0), 1.5);
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 3.0);
  // Device 1 is untouched.
  EXPECT_TRUE(std::isinf(deadlines.deadline(1)));
}

TEST(AdaptiveDeadlinesTest, FixedFallbackWhenNotAdaptive) {
  AdaptiveDeadlines deadlines(1, /*adaptive=*/false, /*slack=*/2.0,
                              /*alpha=*/0.5, /*fixed_deadline_s=*/4.0);
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 4.0);
  deadlines.observe(0, 100.0);  // observations must not move a fixed deadline
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 4.0);
}

}  // namespace
}  // namespace plos::async
