#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "src/core/dp_rounding.h"
#include "src/core/storage.h"
#include "src/core/trimcaching_spec.h"
#include "src/model/special_case_generator.h"
#include "src/sim/scenario.h"
#include "src/support/simd.h"
#include "tests/test_util.h"

namespace trimcaching::core {
namespace {

using support::megabytes;
using support::Rng;

/// Exact weight mode for whole-MB instances: quantum divides all sizes.
SpecSolverConfig exact_weight_config(double capacity_mb) {
  SpecSolverConfig config;
  config.mode = DpMode::kWeightQuantized;
  config.weight_states = static_cast<std::size_t>(capacity_mb);
  return config;
}

std::vector<double> random_utilities(const model::ModelLibrary& lib, Rng& rng,
                                     double zero_fraction = 0.2) {
  std::vector<double> u(lib.num_models(), 0.0);
  for (auto& x : u) {
    if (!rng.bernoulli(zero_fraction)) x = rng.uniform(0.01, 1.0);
  }
  return u;
}

void expect_feasible(const model::ModelLibrary& lib,
                     const ServerSubproblemResult& result, support::Bytes capacity) {
  EXPECT_LE(lib.dedup_size(result.models), capacity);
}

// ------------------------------------------------ vs brute force (weight mode)

class DpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpVsBruteForce, WeightModeMatchesOptimum) {
  Rng rng(GetParam());
  const auto lib = testutil::random_library(rng, 10, 12);
  const auto utilities = random_utilities(lib, rng);
  const double capacity_mb = 30.0;
  const auto result = solve_server_subproblem(lib, utilities, megabytes(capacity_mb),
                                              exact_weight_config(capacity_mb));
  const double optimum =
      testutil::brute_force_subproblem(lib, utilities, megabytes(capacity_mb));
  EXPECT_NEAR(result.value, optimum, 1e-9);
  expect_feasible(lib, result, megabytes(capacity_mb));
  // Reported value must equal the sum of chosen utilities.
  double sum = 0;
  for (const ModelId i : result.models) sum += utilities[i];
  EXPECT_NEAR(sum, result.value, 1e-12);
}

TEST_P(DpVsBruteForce, ProfitModeWithinEpsilon) {
  Rng rng(GetParam() + 1000);
  const auto lib = testutil::random_library(rng, 10, 12);
  const auto utilities = random_utilities(lib, rng);
  const support::Bytes capacity = megabytes(30);
  SpecSolverConfig config;
  config.mode = DpMode::kProfitRounding;
  config.epsilon = 0.1;
  const auto result = solve_server_subproblem(lib, utilities, capacity, config);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  EXPECT_GE(result.value, (1.0 - config.epsilon) * optimum - 1e-9);
  EXPECT_LE(result.value, optimum + 1e-9);
  expect_feasible(lib, result, capacity);
}

TEST_P(DpVsBruteForce, TinyEpsilonIsNearExact) {
  Rng rng(GetParam() + 2000);
  const auto lib = testutil::random_library(rng, 9, 10);
  const auto utilities = random_utilities(lib, rng);
  const support::Bytes capacity = megabytes(25);
  SpecSolverConfig config;
  config.mode = DpMode::kProfitRounding;
  config.epsilon = 0.0;  // maps to 1e-5 rounding
  const auto result = solve_server_subproblem(lib, utilities, capacity, config);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  EXPECT_NEAR(result.value, optimum, 1e-4 * std::max(1.0, optimum));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 20));

// --------------------------------------------------- chain path (special case)

class DpChainPath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpChainPath, UsesChainTraversalOnFreezeLibraries) {
  Rng rng(GetParam());
  model::SpecialCaseConfig config;
  config.models_per_family = 5;
  const auto lib = model::build_special_case_library(config, rng);
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(0.0, 1.0);
  const auto result = solve_server_subproblem(lib, utilities, megabytes(200),
                                              SpecSolverConfig{});
  EXPECT_TRUE(result.used_chain_path);
  EXPECT_GT(result.combinations_visited, 0u);
  expect_feasible(lib, result, megabytes(200));
}

/// Runs all three DP modes on one instance and checks them against brute
/// force: weight mode exact, profit mode within ε, and the joint mode with
/// zero compute loads (a slack compute axis) exact. `chain_path` is the
/// traversal every mode must have taken.
void expect_modes_match_brute_force(const model::ModelLibrary& lib,
                                    const std::vector<double>& utilities,
                                    double capacity_mb, bool chain_path) {
  const support::Bytes capacity = megabytes(capacity_mb);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  ASSERT_GT(optimum, 0.0);

  const auto weight = solve_server_subproblem(lib, utilities, capacity,
                                              exact_weight_config(capacity_mb));
  EXPECT_EQ(weight.used_chain_path, chain_path);
  EXPECT_NEAR(weight.value, optimum, 1e-9);
  expect_feasible(lib, weight, capacity);

  SpecSolverConfig profit;
  profit.mode = DpMode::kProfitRounding;
  profit.epsilon = 0.1;
  const auto rounded = solve_server_subproblem(lib, utilities, capacity, profit);
  EXPECT_EQ(rounded.used_chain_path, chain_path);
  EXPECT_GE(rounded.value, (1.0 - profit.epsilon) * optimum - 1e-9);
  EXPECT_LE(rounded.value, optimum + 1e-9);
  expect_feasible(lib, rounded, capacity);

  const std::vector<double> no_load(lib.num_models(), 0.0);
  const auto joint = solve_server_subproblem(
      lib, utilities, capacity, exact_weight_config(capacity_mb), &no_load, 1.0);
  EXPECT_EQ(joint.used_chain_path, chain_path);
  EXPECT_NEAR(joint.value, optimum, 1e-9);
  expect_feasible(lib, joint, capacity);
}

TEST_P(DpChainPath, EveryModeMatchesBruteForce) {
  // Freeze libraries nest their shared parts, so every mode takes the chain
  // traversal; the fallback is covered by DpFallbackPath below.
  Rng rng(GetParam() + 500);
  model::SpecialCaseConfig config;
  config.models_per_family = 4;
  config.archs = {model::ResNetArch::kResNet18};
  const auto lib = model::build_special_case_library(config, rng);
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(0.1, 1.0);
  expect_modes_match_brute_force(lib, utilities, 120.0, /*chain_path=*/true);
}

TEST_P(DpChainPath, TightCapacityEveryModeMatchesBruteForce) {
  // Two nested-prefix families plus two unshared models, all whole-MB, with
  // the capacity 5 MB above the largest shared prefix: every chain level
  // trims the DP to a budget below its parent's, and the deep levels' trims
  // drop states the unshared models alone would reach.
  Rng rng(GetParam() + 600);
  auto mb = [&rng](int lo, int hi) {
    return megabytes(static_cast<double>(rng.uniform_int(lo, hi)));
  };
  model::ModelLibrary lib;
  std::size_t next = 0;
  auto add = [&](std::vector<BlockId> blocks) {
    const std::string name = "m" + std::to_string(next++);
    blocks.push_back(lib.add_block(mb(1, 4), "x" + name));
    lib.add_model(name, "f", std::move(blocks));
  };
  const BlockId p1 = lib.add_block(mb(4, 12), "p1");
  const BlockId p2 = lib.add_block(mb(4, 12), "p2");
  const BlockId p3 = lib.add_block(mb(4, 12), "p3");
  const BlockId q1 = lib.add_block(mb(4, 12), "q1");
  const BlockId q2 = lib.add_block(mb(4, 12), "q2");
  for (const auto& shared : std::vector<std::vector<BlockId>>{
           {p1}, {p1, p2}, {p1, p2, p3}, {p1, p2, p3}, {q1}, {q1, q2}, {q1, q2}, {}, {}}) {
    add(shared);
  }
  lib.finalize();
  support::Bytes largest_prefix = 0;
  for (ModelId i = 0; i < lib.num_models(); ++i) {
    largest_prefix = std::max(largest_prefix, lib.combination_size(lib.shared_part(i)));
  }
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(0.1, 1.0);
  const double capacity_mb = support::as_megabytes(largest_prefix) + 5.0;
  expect_modes_match_brute_force(lib, utilities, capacity_mb, /*chain_path=*/true);
  // Near-exact profits: a trim that dropped an affordable state would lose a
  // whole model's utility (>= 1% of the optimum here), which ε = 0.1 could
  // hide.
  SpecSolverConfig fine;
  fine.epsilon = 1e-4;
  const support::Bytes capacity = megabytes(capacity_mb);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  EXPECT_NEAR(solve_server_subproblem(lib, utilities, capacity, fine).value, optimum,
              1e-4 * optimum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpChainPath, ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------- closure fallback (general case)

class DpFallbackPath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpFallbackPath, EveryModeMatchesBruteForce) {
  // Shared parts {A}, {A,B}, {B,C}, {C}: one sharing group whose parts
  // overlap without nesting, so no inclusion chain exists and every mode must
  // enumerate the union-closure instead.
  Rng rng(GetParam() + 700);
  auto mb = [&rng] { return megabytes(static_cast<double>(rng.uniform_int(1, 8))); };
  model::ModelLibrary lib;
  const BlockId a = lib.add_block(mb(), "A");
  const BlockId b = lib.add_block(mb(), "B");
  const BlockId c = lib.add_block(mb(), "C");
  const std::vector<std::vector<BlockId>> shared = {{a}, {a, b}, {b, c}, {c}, {a}, {}};
  for (std::size_t i = 0; i < shared.size(); ++i) {
    std::vector<BlockId> blocks = shared[i];
    blocks.push_back(lib.add_block(mb(), "x" + std::to_string(i)));
    lib.add_model("m" + std::to_string(i), "f", std::move(blocks));
  }
  lib.finalize();
  const auto utilities = random_utilities(lib, rng, 0.0);
  expect_modes_match_brute_force(lib, utilities, 20.0, /*chain_path=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpFallbackPath, ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------------ joint (storage x compute)

TEST(DpJoint, SlackComputeBudgetEqualsWeightModeBitForBit) {
  // When every subset fits the compute axis, the joint DP's last compute
  // column runs the weight DP's max/add sequence, so picks and value match
  // kWeightQuantized exactly — the equivalence a 1-D fast path relies on.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 3000);
    const auto lib = testutil::random_library(rng, 10, 12);
    const auto utilities = random_utilities(lib, rng);
    const support::Bytes capacity = megabytes(30);
    SpecSolverConfig config;
    config.mode = DpMode::kWeightQuantized;
    config.weight_states = 512;
    const auto weight = solve_server_subproblem(lib, utilities, capacity, config);
    // Zero loads, and whole-unit loads summing to at most the 64 compute
    // buckets of a budget of 64.
    std::vector<double> small_loads(lib.num_models());
    for (auto& load : small_loads) load = static_cast<double>(rng.uniform_int(0, 6));
    ASSERT_LE(std::accumulate(small_loads.begin(), small_loads.end(), 0.0), 64.0);
    for (const auto& loads : {std::vector<double>(lib.num_models(), 0.0), small_loads}) {
      const auto joint =
          solve_server_subproblem(lib, utilities, capacity, config, &loads, 64.0);
      EXPECT_EQ(joint.models, weight.models) << "seed " << seed;
      EXPECT_EQ(joint.value, weight.value) << "seed " << seed;
      EXPECT_EQ(joint.combinations_visited, weight.combinations_visited);
    }
  }
}

TEST(DpJoint, BindingComputeBudgetIsRespected) {
  bool bound = false;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 4000);
    const auto lib = testutil::random_library(rng, 10, 12);
    const auto utilities = random_utilities(lib, rng);
    std::vector<double> loads(lib.num_models());
    for (auto& load : loads) load = rng.uniform(0.01, 0.3);
    const double budget = 0.4;  // above every lone load: no clamping
    const support::Bytes capacity = megabytes(40);
    const auto config = exact_weight_config(40);
    const auto joint =
        solve_server_subproblem(lib, utilities, capacity, config, &loads, budget);
    double used = 0.0;
    for (const ModelId i : joint.models) used += loads[i];
    EXPECT_LE(used, budget) << "seed " << seed;
    expect_feasible(lib, joint, capacity);
    const auto storage_only = solve_server_subproblem(lib, utilities, capacity, config);
    EXPECT_LE(joint.value, storage_only.value + 1e-12) << "seed " << seed;
    double storage_only_load = 0.0;
    for (const ModelId i : storage_only.models) storage_only_load += loads[i];
    if (storage_only_load > budget) bound = true;
  }
  EXPECT_TRUE(bound) << "the compute budget never bound; the test checked nothing";
}

// ------------------------------------------------------------------ edge cases

TEST(DpRounding, EmptyUtilitiesReturnEmpty) {
  Rng rng(1);
  const auto lib = testutil::random_library(rng, 5, 6);
  std::vector<double> utilities(lib.num_models(), 0.0);
  const auto result = solve_server_subproblem(lib, utilities, megabytes(100));
  EXPECT_TRUE(result.models.empty());
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(DpRounding, ZeroCapacitySelectsNothing) {
  Rng rng(2);
  const auto lib = testutil::random_library(rng, 5, 6);
  std::vector<double> utilities(lib.num_models(), 1.0);
  const auto result = solve_server_subproblem(lib, utilities, 0);
  EXPECT_TRUE(result.models.empty());
}

TEST(DpRounding, HugeCapacitySelectsEverythingUseful) {
  Rng rng(3);
  const auto lib = testutil::random_library(rng, 6, 8);
  std::vector<double> utilities(lib.num_models(), 0.5);
  const auto result =
      solve_server_subproblem(lib, utilities, support::gigabytes(10));
  EXPECT_EQ(result.models.size(), lib.num_models());
  EXPECT_NEAR(result.value, 0.5 * lib.num_models(), 1e-9);
}

TEST(DpRounding, ProfitModeAtUint64ScaleCapacitySelectsEverythingUseful) {
  // 1e19 B is above the profit DP's 2^62 unset sentinel; the solve must
  // still take every model with positive utility.
  Rng rng(31);
  const auto lib = testutil::random_library(rng, 8, 10);
  const auto utilities = random_utilities(lib, rng, 0.3);
  std::vector<ModelId> useful;
  double total = 0.0;
  for (ModelId i = 0; i < lib.num_models(); ++i) {
    if (utilities[i] > 0.0) {
      useful.push_back(i);
      total += utilities[i];
    }
  }
  ASSERT_FALSE(useful.empty());
  ASSERT_LT(useful.size(), lib.num_models());
  const auto result = solve_server_subproblem(
      lib, utilities, support::Bytes{10'000'000'000'000'000'000ull}, SpecSolverConfig{});
  EXPECT_EQ(result.models, useful);
  EXPECT_NEAR(result.value, total, 1e-12);
}

TEST(DpRounding, ProfitModeRejectsWeightsAtTheUnsetSentinel) {
  // Two 2^61 B models sum to the profit DP's 2^62 B unset sentinel.
  model::ModelLibrary lib;
  for (int i = 0; i < 2; ++i) {
    const BlockId block = lib.add_block(support::Bytes{1} << 61, "b" + std::to_string(i));
    lib.add_model("m" + std::to_string(i), "f", {block});
  }
  lib.finalize();
  const std::vector<double> utilities = {1.0, 1.0};
  const support::Bytes capacity = support::Bytes{1} << 63;
  EXPECT_THROW((void)solve_server_subproblem(lib, utilities, capacity),
               std::invalid_argument);
  // Weight mode has no sentinel: it takes both.
  SpecSolverConfig weight;
  weight.mode = DpMode::kWeightQuantized;
  EXPECT_EQ(solve_server_subproblem(lib, utilities, capacity, weight).models.size(), 2u);
}

TEST(DpRounding, ProfitStateCapThrowsNamingTheKnob) {
  Rng rng(32);
  const auto lib = testutil::random_library(rng, 6, 8);
  const auto utilities = random_utilities(lib, rng, 0.0);
  SpecSolverConfig config;
  config.max_profit_states = 10;  // ε = 0.1 rounds each profit to >= 10
  try {
    (void)solve_server_subproblem(lib, utilities, megabytes(20), config);
    ADD_FAILURE() << "a profit table above max_profit_states was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("max_profit_states"), std::string::npos)
        << e.what();
  }
}

TEST(DpRounding, ShardedProfitFillMatchesSerialBitForBit) {
  // 48 unshared models with profits rounded to 1000-2000 each (ε = 1e-3,
  // utilities in [1, 2]): the profit table passes the 2^16 states above
  // which a multi-threaded fill shards the state axis.
  Rng rng(33);
  model::ModelLibrary lib;
  for (int i = 0; i < 48; ++i) {
    const BlockId block = lib.add_block(
        megabytes(static_cast<double>(rng.uniform_int(1, 8))), "b" + std::to_string(i));
    lib.add_model("m" + std::to_string(i), "f", {block});
  }
  lib.finalize();
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(1.0, 2.0);
  SpecSolverConfig config;
  config.epsilon = 1e-3;
  const auto serial = solve_server_subproblem(lib, utilities, megabytes(120), config);
  config.threads = 4;
  const auto sharded = solve_server_subproblem(lib, utilities, megabytes(120), config);
  EXPECT_FALSE(serial.models.empty());
  EXPECT_LT(serial.models.size(), lib.num_models());
  EXPECT_EQ(sharded.models, serial.models);
  EXPECT_EQ(sharded.value, serial.value);
  EXPECT_EQ(sharded.combinations_visited, serial.combinations_visited);
}

TEST(DpRounding, SpecIsIdenticalOnScalarAndDispatchedFill) {
  // The profit DP's fill runs through simd::Ops::min_plus_shift_u64; the
  // scalar reference and the dispatched backend must give the same Spec run
  // on fig8's 10x point (M=32, K=200, I=300).
  sim::ScenarioConfig config;
  config.num_servers = 32;
  config.num_users = 200;
  config.area_side_m = 1789.0;
  config.library_size = 300;
  config.special.models_per_family = 100;
  config.requests.models_per_user = 30;
  config.requests.deadline_min_s = 2.0;
  config.requests.deadline_max_s = 6.0;
  Rng rng(2);
  const sim::Scenario scenario = sim::build_scenario(config, rng);
  const PlacementProblem problem = scenario.problem();
  namespace simd = support::simd;
  const simd::Backend best = simd::active_backend();
  const SpecResult dispatched = trimcaching_spec(problem);
  simd::force_backend(simd::Backend::kScalar);
  const SpecResult scalar = trimcaching_spec(problem);
  simd::clear_forced_backend();
  ASSERT_EQ(simd::active_backend(), best);
  EXPECT_GT(dispatched.placement.total_placements(), 0u);
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    EXPECT_EQ(dispatched.placement.models_on(m), scalar.placement.models_on(m))
        << "server " << m;
  }
  EXPECT_EQ(dispatched.combinations_visited, scalar.combinations_visited);
  EXPECT_EQ(dispatched.hit_ratio, scalar.hit_ratio);
}

TEST(DpRounding, InvalidInputsThrow) {
  Rng rng(4);
  const auto lib = testutil::random_library(rng, 4, 5);
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_THROW((void)solve_server_subproblem(lib, wrong_size, megabytes(10)),
               std::invalid_argument);
  std::vector<double> negative(4, -1.0);
  EXPECT_THROW((void)solve_server_subproblem(lib, negative, megabytes(10)),
               std::invalid_argument);
  std::vector<double> ok(4, 1.0);
  SpecSolverConfig bad;
  bad.epsilon = 2.0;
  EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
               std::invalid_argument);
  bad.epsilon = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)solve_server_subproblem(lib, ok, megabytes(10), bad);
    ADD_FAILURE() << "NaN epsilon was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eps"), std::string::npos) << e.what();
  }
  // weight_states sets the storage quantum in every mode, profit included.
  for (const DpMode mode : {DpMode::kWeightQuantized, DpMode::kProfitRounding}) {
    bad = SpecSolverConfig{};
    bad.mode = mode;
    bad.weight_states = 0;
    EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
                 std::invalid_argument);
  }
  for (const double u : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    std::vector<double> non_finite(4, 1.0);
    non_finite[2] = u;
    EXPECT_THROW((void)solve_server_subproblem(lib, non_finite, megabytes(10)),
                 std::invalid_argument);
  }
}

TEST(DpRounding, CombinationCapThrows) {
  // Many independent sharing pairs -> closure 2^16; cap of 100 must throw.
  model::ModelLibrary lib;
  for (int g = 0; g < 16; ++g) {
    const BlockId shared = lib.add_block(megabytes(1), "s");
    const BlockId a = lib.add_block(megabytes(1), "a");
    const BlockId b = lib.add_block(megabytes(1), "b");
    lib.add_model("a" + std::to_string(g), "f", {shared, a});
    lib.add_model("b" + std::to_string(g), "f", {shared, b});
  }
  lib.finalize();
  std::vector<double> utilities(lib.num_models(), 1.0);
  SpecSolverConfig config;
  config.max_combinations = 100;
  EXPECT_THROW((void)solve_server_subproblem(lib, utilities, megabytes(10), config),
               std::runtime_error);
}

TEST(DpRounding, EpsilonSweepImprovesValue) {
  Rng rng(6);
  const auto lib = testutil::random_library(rng, 12, 14);
  const auto utilities = random_utilities(lib, rng, 0.0);
  const support::Bytes capacity = megabytes(25);
  double prev = -1.0;
  for (const double eps : {0.9, 0.5, 0.2, 0.05}) {
    SpecSolverConfig config;
    config.epsilon = eps;
    const double value =
        solve_server_subproblem(lib, utilities, capacity, config).value;
    // Finer rounding can only lose less (within its own guarantee).
    EXPECT_GE(value, (1.0 - eps) *
                         testutil::brute_force_subproblem(lib, utilities, capacity) -
                         1e-9);
    prev = std::max(prev, value);
  }
  EXPECT_GT(prev, 0.0);
}

TEST(DpRounding, SharedBlocksStoredOnce) {
  // Two models share a 20 MB block; each has a 5 MB specific part. Capacity
  // 30 MB only fits both models *because* the shared block is stored once.
  model::ModelLibrary lib;
  const BlockId shared = lib.add_block(megabytes(20), "shared");
  const BlockId a = lib.add_block(megabytes(5), "a");
  const BlockId b = lib.add_block(megabytes(5), "b");
  lib.add_model("m0", "f", {shared, a});
  lib.add_model("m1", "f", {shared, b});
  lib.finalize();
  std::vector<double> utilities = {1.0, 1.0};
  const auto result = solve_server_subproblem(lib, utilities, megabytes(30),
                                              exact_weight_config(30));
  EXPECT_EQ(result.models.size(), 2u);
  EXPECT_NEAR(result.value, 2.0, 1e-12);
}

TEST(DpRounding, PrefersSharingWhenCapacityTight) {
  // Independent model with utility 1.2 vs two sharing models worth 1.0 each:
  // with 30 MB, the sharing pair (total 30 MB dedup, value 2.0) must win over
  // the 28 MB independent model (value 1.2).
  model::ModelLibrary lib;
  const BlockId shared = lib.add_block(megabytes(20), "shared");
  const BlockId a = lib.add_block(megabytes(5), "a");
  const BlockId b = lib.add_block(megabytes(5), "b");
  const BlockId solo = lib.add_block(megabytes(28), "solo");
  lib.add_model("m0", "f", {shared, a});
  lib.add_model("m1", "f", {shared, b});
  lib.add_model("m2", "g", {solo});
  lib.finalize();
  std::vector<double> utilities = {1.0, 1.0, 1.2};
  const auto result = solve_server_subproblem(lib, utilities, megabytes(30),
                                              exact_weight_config(30));
  EXPECT_EQ(result.models, (std::vector<ModelId>{0, 1}));
}

}  // namespace
}  // namespace trimcaching::core
