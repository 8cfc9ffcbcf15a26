// Tests for the online serving subsystem: virtual-time processor sharing
// (stale-event discipline), request merging, the drifting-Zipf workload,
// thread-count bit-identity, config and cache-policy validation (every bad
// knob is named), and the streaming metrics (latency histogram, queue-depth
// series).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "src/core/trimcaching_gen.h"
#include "src/serve/cache_policy.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"
#include "src/sim/scenario.h"
#include "src/workload/drifting_zipf.h"
#include "tests/test_util.h"

namespace trimcaching {
namespace {

using support::Rng;

class ServeSystemTest : public ::testing::Test {
 protected:
  ServeSystemTest() {
    sim::ScenarioConfig config;
    config.num_servers = 5;
    config.num_users = 30;
    config.library_size = 24;
    config.special.models_per_family = 8;
    config.capacity_bytes = support::megabytes(500);
    Rng rng(42);
    scenario_ = std::make_unique<sim::Scenario>(sim::build_scenario(config, rng));
    problem_ = std::make_unique<core::PlacementProblem>(scenario_->problem());
    placement_ = std::make_unique<core::PlacementSolution>(
        core::trimcaching_gen(*problem_).placement);
    empty_ = std::make_unique<core::PlacementSolution>(problem_->num_servers(),
                                                       problem_->num_models());
  }

  [[nodiscard]] serve::ServeResult run(const core::PlacementSolution& placement,
                                       const serve::ServeConfig& config,
                                       std::uint64_t seed) const {
    return serve::simulate_serving(scenario_->topology, scenario_->library,
                                   scenario_->requests, placement, config,
                                   Rng(seed));
  }

  std::unique_ptr<sim::Scenario> scenario_;
  std::unique_ptr<core::PlacementProblem> problem_;
  std::unique_ptr<core::PlacementSolution> placement_;
  std::unique_ptr<core::PlacementSolution> empty_;
};

// ------------------------------------------------------- stale-event discipline

TEST_F(ServeSystemTest, StaleFinishEventsAreDiscardedAndCounted) {
  // Every flow that attaches while a finish event is outstanding bumps the
  // schedule version and strands the old event; under sustained contention
  // that must happen many times, and never corrupt the books.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 400.0;
  const auto result = run(*placement_, config, 11);
  const auto& t = result.totals;
  EXPECT_GT(t.stale_events, 100u);
  EXPECT_EQ(t.requests, t.deadline_hits + t.late + t.unserved);
  EXPECT_EQ(t.terminal(), t.requests);
  EXPECT_EQ(t.completed(), t.latency.count());
}

// ------------------------------------------------------- compute admission

TEST_F(ServeSystemTest, ComputeAdmissionRejectsToCloudAndPartitions) {
  // One inference slot per server under sustained load: arrivals that find
  // the slot busy degrade to the cloud (a terminal state, 1:1 with the
  // rejection counter) and the four terminal states still partition the
  // request count exactly.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 400.0;
  config.compute_slots = 1;
  const auto constrained = run(*placement_, config, 11);
  const auto& t = constrained.totals;
  EXPECT_GT(t.compute_rejects, 0u);
  EXPECT_EQ(t.compute_rejects, t.cloud_served);
  EXPECT_EQ(t.terminal(), t.requests);
  EXPECT_EQ(t.completed(), t.latency.count());

  // A slot count the workload can never saturate admits everything and
  // reproduces the unlimited replay's per-flow outcomes exactly.
  config.compute_slots = std::size_t{1} << 20;
  const auto roomy = run(*placement_, config, 11);
  config.compute_slots = 0;
  const auto unlimited = run(*placement_, config, 11);
  EXPECT_EQ(roomy.totals.compute_rejects, 0u);
  EXPECT_EQ(roomy.totals.cloud_served, 0u);
  EXPECT_EQ(unlimited.totals.compute_rejects, 0u);
  EXPECT_EQ(roomy.totals.deadline_hits, unlimited.totals.deadline_hits);
  EXPECT_EQ(roomy.totals.late, unlimited.totals.late);
  EXPECT_EQ(roomy.totals.unserved, unlimited.totals.unserved);
  EXPECT_EQ(roomy.totals.download_sum_s, unlimited.totals.download_sum_s);
  EXPECT_EQ(unlimited.totals.terminal(), unlimited.totals.requests);
  // Saturation can only lower the served mass, never raise it.
  EXPECT_LE(t.deadline_hits, unlimited.totals.deadline_hits);
}

TEST(ServeAdmission, BudgetSpentAtArrivalCountsUnserved) {
  // Deadlines strictly shorter than any inference time: every request's
  // download budget is already negative when it arrives, so nothing may be
  // enqueued (a doomed flow would finish late *and* steal processor-sharing
  // bandwidth from viable ones) — the whole replay lands in `unserved`.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 4;
  config.requests.deadline_min_s = 0.10;
  config.requests.deadline_max_s = 0.15;
  config.requests.inference_min_s = 0.20;
  config.requests.inference_max_s = 0.30;
  Rng rng(19);
  const auto scenario = sim::build_scenario(config, rng);
  core::PlacementSolution placement(config.num_servers,
                                    scenario.library.num_models());
  for (ServerId m = 0; m < config.num_servers; ++m) {
    for (ModelId i = 0; i < scenario.library.num_models(); ++i) {
      placement.place(m, i);
    }
  }

  serve::ServeConfig serving;
  serving.arrival_rate_per_user = 0.5;
  serving.duration_s = 100.0;
  const auto result = serve::simulate_serving(scenario.topology, scenario.library,
                                              scenario.requests, placement, serving,
                                              Rng(23));
  const auto& t = result.totals;
  EXPECT_GT(t.requests, 0u);
  EXPECT_EQ(t.unserved, t.requests);
  EXPECT_EQ(t.deadline_hits, 0u);
  EXPECT_EQ(t.late, 0u);
  EXPECT_EQ(t.completed(), 0u);
  EXPECT_EQ(t.latency.count(), 0u);
  EXPECT_EQ(t.terminal(), t.requests);
}

// ------------------------------------------------------------- request merging

TEST(ServeMerging, ConcurrentMissesShareOneFetch) {
  // Cold caches with room for the whole library (no evictions, so nothing
  // is ever re-fetched): each server pulls a block from the cloud at most
  // once, so distinct fetches are bounded by models x servers while the
  // misses that arrived mid-flight merge onto them. Without merging, every
  // early request would open its own transfer.
  sim::ScenarioConfig config;
  config.num_servers = 4;
  config.num_users = 20;
  config.library_size = 16;
  config.special.models_per_family = 6;
  config.capacity_bytes = support::gigabytes(4.0);
  Rng rng(21);
  const auto scenario = sim::build_scenario(config, rng);
  const core::PlacementSolution empty(config.num_servers,
                                      scenario.library.num_models());

  serve::ServeConfig serving;
  serving.policy = "lru";
  serving.arrival_rate_per_user = 1.0;
  serving.duration_s = 300.0;
  const auto result = serve::simulate_serving(scenario.topology, scenario.library,
                                              scenario.requests, empty, serving,
                                              Rng(3));
  const auto& t = result.totals;
  const std::size_t num_models = scenario.library.num_models();
  EXPECT_GT(t.cloud_fetches, 0u);
  EXPECT_LE(t.cloud_fetches, num_models * config.num_servers);
  EXPECT_GT(t.merged_fetches, 0u);
  // Bytes are counted per transfer, not per rider: the total is bounded by
  // one dedup copy of the library per server.
  std::vector<ModelId> all(num_models);
  std::iota(all.begin(), all.end(), ModelId{0});
  EXPECT_LE(t.cloud_bytes, scenario.library.dedup_size(all) * config.num_servers);
  EXPECT_EQ(t.requests, t.deadline_hits + t.late + t.unserved);
  EXPECT_EQ(t.terminal(), t.requests);
}

// -------------------------------------------------------- full-coverage parity

TEST_F(ServeSystemTest, FullCoverageServesEverythingAtTheEdge) {
  // When every server caches the whole library, routing and cache state
  // cannot differ between policies: everything is an edge hit, nothing
  // touches the backhaul or the cloud, and static and LRU agree exactly.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 4;
  config.capacity_bytes = support::gigabytes(4.0);
  Rng rng(7);
  const auto scenario = sim::build_scenario(config, rng);
  core::PlacementSolution placement(config.num_servers,
                                    scenario.library.num_models());
  for (ServerId m = 0; m < config.num_servers; ++m) {
    for (ModelId i = 0; i < scenario.library.num_models(); ++i) {
      placement.place(m, i);
    }
  }
  std::vector<ModelId> all(scenario.library.num_models());
  std::iota(all.begin(), all.end(), ModelId{0});
  ASSERT_LE(scenario.library.dedup_size(all), config.capacity_bytes);

  serve::ServeConfig serving;
  serving.arrival_rate_per_user = 0.1;
  serving.duration_s = 500.0;
  const auto fixed = serve::simulate_serving(scenario.topology, scenario.library,
                                             scenario.requests, placement, serving,
                                             Rng(5));
  serving.policy = "lru";
  const auto reactive = serve::simulate_serving(scenario.topology, scenario.library,
                                                scenario.requests, placement,
                                                serving, Rng(5));
  for (const auto* r : {&fixed, &reactive}) {
    EXPECT_EQ(r->totals.cloud_fetches, 0u);
    EXPECT_EQ(r->totals.relays, 0u);
    EXPECT_EQ(r->totals.edge_hits, r->totals.requests - r->totals.unserved);
  }
  EXPECT_EQ(fixed.totals.deadline_hits, reactive.totals.deadline_hits);
  EXPECT_EQ(fixed.totals.download_sum_s, reactive.totals.download_sum_s);
}

// -------------------------------------------------------- drifting-Zipf sanity

TEST(DriftingZipf, EmpiricalCountsMatchAnalyticPmf) {
  const std::size_t num_models = 20;
  std::vector<ModelId> order(num_models);
  std::iota(order.begin(), order.end(), ModelId{0});
  workload::DriftingZipfConfig config;
  config.exponent_start = 0.7;
  config.exponent_end = 1.3;
  config.epoch_s = 100.0;
  config.swaps_per_epoch = 4;
  const workload::DriftingZipf drift(order, 1000.0, config, Rng(91));

  // Chi-squared against the closed-form pmf inside two different epochs.
  for (const double t : {50.0, 850.0}) {
    double pmf_sum = 0.0;
    for (ModelId i = 0; i < num_models; ++i) pmf_sum += drift.pmf(t, i);
    EXPECT_NEAR(pmf_sum, 1.0, 1e-12);

    const std::size_t draws = 100000;
    std::vector<std::size_t> counts(num_models, 0);
    Rng rng(static_cast<std::uint64_t>(t) + 1);
    for (std::size_t n = 0; n < draws; ++n) ++counts[drift.sample(t, rng)];
    double chi2 = 0.0;
    for (ModelId i = 0; i < num_models; ++i) {
      const double expected = static_cast<double>(draws) * drift.pmf(t, i);
      ASSERT_GT(expected, 0.0);
      const double diff = static_cast<double>(counts[i]) - expected;
      chi2 += diff * diff / expected;
    }
    // 19 degrees of freedom: mean 19, p(chi2 > 60) ~ 4e-6. Deterministic
    // seed, so this is a regression bound, not a flaky gate.
    EXPECT_LT(chi2, 60.0) << "at t=" << t;
  }
}

TEST(DriftingZipf, OrdersStayPermutationsAndExponentRamps) {
  const std::size_t num_models = 16;
  std::vector<ModelId> order(num_models);
  std::iota(order.begin(), order.end(), ModelId{0});
  workload::DriftingZipfConfig config;
  config.exponent_start = 0.5;
  config.exponent_end = 1.5;
  config.epoch_s = 10.0;
  config.swaps_per_epoch = 3;
  const workload::DriftingZipf drift(order, 100.0, config, Rng(13));
  ASSERT_EQ(drift.num_epochs(), 10u);
  for (std::size_t e = 0; e < drift.num_epochs(); ++e) {
    std::vector<char> seen(num_models, 0);
    for (const ModelId i : drift.order_at(e)) {
      ASSERT_LT(i, num_models);
      ASSERT_FALSE(seen[i]);
      seen[i] = 1;
    }
    if (e > 0) EXPECT_GT(drift.exponent_at(e), drift.exponent_at(e - 1));
  }
}

// -------------------------------------------------------- thread bit-identity

TEST_F(ServeSystemTest, MetricsBitIdenticalAcrossThreadCounts) {
  const workload::DriftingZipf drift(
      workload::DriftingZipf::popularity_order(scenario_->requests), 300.0,
      workload::DriftingZipfConfig{0.8, 1.1, 50.0, 5}, Rng(77));
  serve::ServeConfig config;
  config.policy = "ewma:tau_s=90";
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 300.0;
  config.average_channel = false;  // per-request fading also in the streams
  config.queue_depth_samples = 64;
  config.drift = &drift;
  config.compute_slots = 2;  // admission decisions also in the replay

  config.threads = 1;
  const auto serial = run(*placement_, config, 29);
  config.threads = 8;
  const auto threaded = run(*placement_, config, 29);

  const auto& a = serial.totals;
  const auto& b = threaded.totals;
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.unserved, b.unserved);
  EXPECT_EQ(a.edge_hits, b.edge_hits);
  EXPECT_EQ(a.relays, b.relays);
  EXPECT_EQ(a.cloud_fetches, b.cloud_fetches);
  EXPECT_EQ(a.merged_fetches, b.merged_fetches);
  EXPECT_EQ(a.cloud_bytes, b.cloud_bytes);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.compute_rejects, b.compute_rejects);
  EXPECT_EQ(a.cloud_served, b.cloud_served);
  EXPECT_EQ(a.stale_events, b.stale_events);
  EXPECT_EQ(a.download_sum_s, b.download_sum_s);  // bit-identical, not NEAR
  EXPECT_EQ(a.busy_time_s, b.busy_time_s);
  EXPECT_EQ(a.flow_time_s, b.flow_time_s);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(serial.hit_ratio, threaded.hit_ratio);
  EXPECT_EQ(serial.p99_download_s, threaded.p99_download_s);
}

// ----------------------------------------------------------- policy factory

TEST(CachePolicyFactory, KnownPoliciesConstructAndReportNames) {
  for (const std::string& name : serve::known_cache_policies()) {
    const auto policy = serve::make_cache_policy(name);
    EXPECT_EQ(policy->name(), name);
    EXPECT_EQ(policy->reactive(), name != "static");
  }
}

/// `fn` throws std::invalid_argument whose message names `knob`.
template <typename Fn>
void expect_rejects_naming(Fn fn, const std::string& knob) {
  try {
    fn();
    ADD_FAILURE() << "accepted a bad " << knob;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
  }
}

TEST(ServeConfigValidation, RejectsNonFiniteOrNonPositiveKnobsNamingThem) {
  // An infinite arrival rate makes every exponential gap 0 and an infinite
  // duration never ends, so either would hang generation; NaN slips past a
  // bare `<= 0` test.
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), 0.0, -1.0};
  for (const double value : bad) {
    serve::ServeConfig config;
    config.arrival_rate_per_user = value;
    expect_rejects_naming([&] { config.validate(); }, "arrival_rate_per_user");
    config = serve::ServeConfig{};
    config.duration_s = value;
    expect_rejects_naming([&] { config.validate(); }, "duration_s");
    config = serve::ServeConfig{};
    config.cloud_rate_bps = value;
    expect_rejects_naming([&] { config.validate(); }, "cloud_rate_bps");
  }
  EXPECT_NO_THROW(serve::ServeConfig{}.validate());
}

TEST(DriftingZipfValidation, InfiniteEpochRejectedNamingIt) {
  // An infinite epoch used to give zero epochs, and sample() then read past
  // an empty per-epoch table.
  workload::DriftingZipfConfig config;
  config.epoch_s = std::numeric_limits<double>::infinity();
  expect_rejects_naming([&] { config.validate(); }, "epoch_s");
  expect_rejects_naming(
      [&] { (void)workload::DriftingZipf({0, 1, 2}, 100.0, config, Rng(1)); }, "epoch_s");
}

TEST(DriftingZipfValidation, NanEpochRejectedNamingIt) {
  // A NaN epoch reached an undefined float-to-size_t cast of the epoch count.
  workload::DriftingZipfConfig config;
  config.epoch_s = std::nan("");
  expect_rejects_naming([&] { config.validate(); }, "epoch_s");
  expect_rejects_naming(
      [&] { (void)workload::DriftingZipf({0, 1, 2}, 100.0, config, Rng(1)); }, "epoch_s");
}

TEST(DriftingZipfValidation, NonFiniteExponentsRejectedNamingThem) {
  // A NaN exponent gave NaN pmfs.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -0.1}) {
    workload::DriftingZipfConfig config;
    config.exponent_start = bad;
    expect_rejects_naming([&] { config.validate(); }, "exponent_start");
    config = workload::DriftingZipfConfig{};
    config.exponent_end = bad;
    expect_rejects_naming([&] { config.validate(); }, "exponent_end");
  }
  EXPECT_NO_THROW(workload::DriftingZipfConfig{}.validate());
}

TEST(CachePolicyFactory, EwmaRejectsNonFiniteTauNamingIt) {
  // A NaN tau would put NaN scores into the eviction order.
  for (const char* spec : {"ewma:tau_s=nan", "ewma:tau_s=inf", "ewma:tau_s=-inf",
                           "ewma:tau_s=0", "ewma:tau_s=-5"}) {
    expect_rejects_naming([&] { (void)serve::make_cache_policy(spec); }, "tau_s");
    serve::ServeConfig config;
    config.policy = spec;
    expect_rejects_naming([&] { config.validate(); }, "tau_s");
  }
}

TEST(CachePolicyFactory, RejectsUnknownSpecs) {
  EXPECT_THROW((void)serve::make_cache_policy("arc"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy(""), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("ewma:tau=5"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("ewma:tau_s=0"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("lru:tau_s=5"), std::invalid_argument);
  EXPECT_NO_THROW((void)serve::make_cache_policy("ewma:tau_s=5"));
}

// ------------------------------------------------------------- metrics units

TEST(LatencyHistogram, QuantilesLandInTheRightBin) {
  serve::LatencyHistogram h;
  for (int n = 0; n < 90; ++n) h.add(0.1);
  for (int n = 0; n < 9; ++n) h.add(10.0);
  h.add(100.0);
  EXPECT_EQ(h.count(), 100u);
  // Log-spaced bins are ~7.5% wide; allow 10% either side of the midpoint.
  EXPECT_NEAR(h.quantile(0.50), 0.1, 0.01);
  EXPECT_NEAR(h.quantile(0.95), 10.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 100.0, 10.0);
}

TEST(LatencyHistogram, UnderAndOverflowClampToTheRange) {
  serve::LatencyHistogram h;
  h.add(1e-9);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), serve::LatencyHistogram::kMinSeconds);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), serve::LatencyHistogram::kMaxSeconds);

  serve::LatencyHistogram other;
  other.add(1.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.quantile(0.5), 1.0, 0.1);
}

TEST_F(ServeSystemTest, QueueDepthSeriesHasTheRequestedShape) {
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 200.0;
  config.queue_depth_samples = 50;
  const auto result = run(*placement_, config, 17);
  ASSERT_EQ(result.totals.queue_depth.size(), 50u);
  // Sample 0 is taken at t = 0, before any Poisson arrival can attach.
  EXPECT_EQ(result.totals.queue_depth.front(), 0u);
  std::uint32_t peak = 0;
  for (const std::uint32_t depth : result.totals.queue_depth) {
    peak = std::max(peak, depth);
  }
  EXPECT_GT(peak, 0u);
}

}  // namespace
}  // namespace trimcaching
