// Contracts of the cross-tile repair pass (core::repair_placement /
// sim::PlacementRepair / the tiler's repair knob):
//
//   * repair never decreases the global Eq. 2 value, on any solver's
//     stitched placement;
//   * coverage-disjoint tilings are a bit-equal no-op (nothing is evicted,
//     nothing is added, the placement is returned unchanged);
//   * a crafted two-tile instance with one shared halo user has its
//     duplicated copies removed: after repair every cached model has
//     exactly one holder and no hit mass is lost;
//   * repair is bit-identical for threads=1 vs threads=8, through the tiler
//     knob and standalone;
//   * the "repair" registry refiner composes ("gen+repair") and never
//     worsens its base;
//   * standalone "repair" runs gen's lazy-greedy engine, so on storage-only
//     scenarios it returns gen's placement, hit ratio and gain-evaluation
//     count bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/objective.h"
#include "src/core/solver_registry.h"
#include "src/core/submodular.h"
#include "src/sim/placement_repair.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"

namespace trimcaching::sim {
namespace {

using support::Rng;

/// Builds a 1 km scenario from explicit server/user positions with the
/// backhaul throttled to ~1 kbps, so relays can never meet a deadline and
/// eligibility is strictly coverage-local.
Scenario explicit_scenario(std::vector<wireless::Point> servers,
                           std::vector<wireless::Point> users, Rng& rng) {
  const wireless::Area area{1000.0};
  wireless::RadioConfig radio;
  radio.backhaul_bps = 1e3;  // hours per model: a relay is never eligible
  std::vector<support::Bytes> capacities(servers.size(), support::gigabytes(1.0));
  wireless::NetworkTopology topology(area, radio, std::move(servers), std::move(users),
                                     std::move(capacities));

  model::SpecialCaseConfig special;
  special.models_per_family = 8;
  auto library = model::build_special_case_library(special, rng);

  workload::RequestConfig requests;
  requests.models_per_user = 10;
  auto request_model = workload::RequestModel::generate(
      topology.num_users(), library.num_models(), requests, rng);
  return Scenario{std::move(topology), std::move(library), std::move(request_model)};
}

/// Four coverage-disjoint server clusters at the quadrant centers (the
/// regime where 2x2 spatial tiling is exact and repair must not act).
Scenario clustered_scenario(Rng& rng) {
  const std::vector<wireless::Point> centers = {
      {250, 250}, {750, 250}, {250, 750}, {750, 750}};
  std::vector<wireless::Point> servers;
  std::vector<wireless::Point> users;
  for (const auto& center : centers) {
    servers.push_back(center);
    for (std::size_t u = 0; u < 6; ++u) {
      users.push_back({center.x + rng.uniform(-140.0, 140.0),
                       center.y + rng.uniform(-140.0, 140.0)});
    }
  }
  return explicit_scenario(std::move(servers), std::move(users), rng);
}

void expect_same_placements(const core::PlacementSolution& a,
                            const core::PlacementSolution& b) {
  ASSERT_EQ(a.num_servers(), b.num_servers());
  ASSERT_EQ(a.num_models(), b.num_models());
  ASSERT_EQ(a.total_placements(), b.total_placements());
  for (ServerId m = 0; m < a.num_servers(); ++m) {
    auto lhs = a.models_on(m);
    auto rhs = b.models_on(m);
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    EXPECT_EQ(lhs, rhs) << "server " << m;
  }
}

TEST(PlacementRepair, NoOpOnCoverageDisjointTiling) {
  Rng rng(101);
  const Scenario scenario = clustered_scenario(rng);
  TilerConfig raw_config;
  raw_config.tiles_x = 2;
  raw_config.tiles_y = 2;
  TilerConfig repair_config = raw_config;
  repair_config.repair = true;

  const ScenarioTiler raw_tiler(scenario, raw_config);
  const ScenarioTiler repair_tiler(scenario, repair_config);
  ASSERT_EQ(raw_tiler.halo_memberships(), 0u);

  const auto raw = raw_tiler.solve("gen", 17);
  const auto repaired = repair_tiler.solve("gen", 17);
  // Bit-equal placements, nothing evicted, nothing added.
  expect_same_placements(raw.placement, repaired.placement);
  EXPECT_EQ(repaired.duplicates_evicted, 0u);
  EXPECT_EQ(repaired.repair_additions, 0u);
  EXPECT_DOUBLE_EQ(raw.hit_ratio, repaired.hit_ratio);
  EXPECT_DOUBLE_EQ(raw.duplication_factor, repaired.duplication_factor);

  // Standalone engine on the stitched placement agrees.
  const PlacementRepair repairer(scenario, raw_tiler.server_tiles(), {});
  const RepairResult result = repairer.repair(raw.placement);
  expect_same_placements(raw.placement, result.placement);
  EXPECT_EQ(result.duplicates_evicted, 0u);
  EXPECT_EQ(result.models_added, 0u);
}

TEST(PlacementRepair, RemovesCraftedCrossTileDuplicates) {
  Rng rng(102);
  // Two servers in opposite 2x1 tiles and a single shared user at
  // (495, 500): home tile is the left one, and the halo carries it into the
  // right tile too (both servers are within the 275 m coverage radius —
  // distances 195 and 205). Each tile's greedy then caches the user's hot
  // models on *its* server, duplicating them across the tile boundary.
  const Scenario scenario = explicit_scenario(
      {{300, 500}, {700, 500}}, {{495.0, 500.0}}, rng);
  TilerConfig config;
  config.tiles_x = 2;
  config.tiles_y = 1;
  const ScenarioTiler tiler(scenario, config);
  ASSERT_GE(tiler.halo_memberships(), 1u);

  const auto raw = tiler.solve("gen", 17);
  EXPECT_GT(raw.duplication_factor, 1.0);  // the cross-tile waste exists

  const PlacementRepair repairer(scenario, tiler.server_tiles(), {});
  const RepairResult repaired = repairer.repair(raw.placement);
  EXPECT_GE(repaired.duplicates_evicted, 1u);
  // Every surviving model has exactly one holder: the duplicate copies are
  // gone and the refill only adds models nobody else caches.
  for (ModelId i = 0; i < repaired.placement.num_models(); ++i) {
    EXPECT_LE(repaired.placement.holders_of(i).size(), 1u) << "model " << i;
  }
  EXPECT_DOUBLE_EQ(repaired.duplication_after, 1.0);
  EXPECT_LT(repaired.duplication_after, repaired.duplication_before);
  // No hit mass is lost; the freed capacity may even serve more.
  EXPECT_GE(repaired.hit_ratio, raw.hit_ratio - 1e-9);

  const core::PlacementProblem problem = scenario.problem();
  EXPECT_NEAR(core::expected_hit_ratio(problem, repaired.placement),
              repaired.hit_ratio, 1e-9);
}

TEST(PlacementRepair, NeverDecreasesGlobalHitRatio) {
  for (const std::uint64_t seed : {201, 202, 203}) {
    ScenarioConfig config;
    config.num_servers = 16;
    config.num_users = 80;
    config.area_side_m = 1600.0;
    config.library_size = 40;
    config.special.models_per_family = 14;
    config.requests.models_per_user = 12;
    // Wide deadlines keep relays eligible — the regime where tiles overlap
    // through halos and the repair pass actually acts.
    config.requests.deadline_min_s = 2.0;
    config.requests.deadline_max_s = 6.0;
    Rng rng(seed);
    const Scenario scenario = build_scenario(config, rng);
    TilerConfig tiler_config;
    tiler_config.tiles_x = 2;
    tiler_config.tiles_y = 2;
    const ScenarioTiler tiler(scenario, tiler_config);
    const PlacementRepair repairer(scenario, tiler.server_tiles(), {});
    const core::PlacementProblem problem = scenario.problem();

    for (const std::string spec : {"gen", "independent", "top_pop", "random"}) {
      const auto raw = tiler.solve(spec, seed);
      const RepairResult repaired = repairer.repair(raw.placement);
      EXPECT_GE(repaired.hit_ratio, raw.hit_ratio - 1e-9)
          << spec << " seed " << seed;
      EXPECT_LE(repaired.duplication_after, repaired.duplication_before + 1e-12)
          << spec << " seed " << seed;
      // The reported value is the honest global Eq. 2 recompute.
      EXPECT_NEAR(core::expected_hit_ratio(problem, repaired.placement),
                  repaired.hit_ratio, 1e-9)
          << spec << " seed " << seed;
    }
  }
}

TEST(PlacementRepair, BitIdenticalAcrossThreadCounts) {
  ScenarioConfig config;
  config.num_servers = 24;
  config.num_users = 120;
  config.area_side_m = 2000.0;
  config.library_size = 60;
  config.special.models_per_family = 20;
  config.requests.models_per_user = 15;
  config.requests.deadline_min_s = 2.0;
  config.requests.deadline_max_s = 6.0;
  Rng rng(103);
  const Scenario scenario = build_scenario(config, rng);
  TilerConfig tiler_config;
  tiler_config.tiles_x = 3;
  tiler_config.tiles_y = 3;
  tiler_config.repair = true;
  const ScenarioTiler tiler(scenario, tiler_config);

  const auto serial = tiler.solve("gen", 5, 1);
  const auto threaded = tiler.solve("gen", 5, 8);
  expect_same_placements(serial.placement, threaded.placement);
  EXPECT_DOUBLE_EQ(serial.hit_ratio, threaded.hit_ratio);
  EXPECT_DOUBLE_EQ(serial.duplication_factor, threaded.duplication_factor);
  EXPECT_EQ(serial.duplicates_evicted, threaded.duplicates_evicted);
  EXPECT_EQ(serial.repair_additions, threaded.repair_additions);

  // Standalone engine: identical placements *and* work counters.
  TilerConfig raw_config;
  raw_config.tiles_x = 3;
  raw_config.tiles_y = 3;
  const ScenarioTiler raw_tiler(scenario, raw_config);
  const auto raw = raw_tiler.solve("gen", 5, 1);
  const PlacementRepair repairer(scenario, raw_tiler.server_tiles(), {});
  const RepairResult one = repairer.repair(raw.placement, 1);
  const RepairResult eight = repairer.repair(raw.placement, 8);
  expect_same_placements(one.placement, eight.placement);
  EXPECT_DOUBLE_EQ(one.hit_ratio, eight.hit_ratio);
  EXPECT_EQ(one.duplicates_evicted, eight.duplicates_evicted);
  EXPECT_EQ(one.models_added, eight.models_added);
  EXPECT_EQ(one.gain_evaluations, eight.gain_evaluations);
}

TEST(RepairSolver, ComposesAsRefinerAndNeverWorsens) {
  ScenarioConfig config;
  config.num_servers = 6;
  config.num_users = 40;
  config.library_size = 30;
  config.special.models_per_family = 12;
  config.requests.models_per_user = 12;
  Rng rng(104);
  const Scenario scenario = build_scenario(config, rng);
  const core::PlacementProblem problem = scenario.problem();
  const auto& registry = core::SolverRegistry::instance();

  for (const std::string base : {"gen", "top_pop", "independent"}) {
    core::SolverContext base_context(Rng(7));
    core::SolverContext composed_context(Rng(7));
    const auto plain = registry.make(base)->run(problem, base_context);
    const auto composed =
        registry.make(base + "+repair")->run(problem, composed_context);
    EXPECT_GE(composed.hit_ratio, plain.hit_ratio - 1e-9) << base;
    EXPECT_NEAR(core::expected_hit_ratio(problem, composed.placement),
                composed.hit_ratio, 1e-9)
        << base;
  }

  // Standalone "repair" greedy-fills from scratch with the lazy-greedy
  // engine and reports the honest Eq. 2 value.
  core::SolverContext context(Rng(7));
  const auto standalone = registry.make("repair")->run(problem, context);
  EXPECT_GT(standalone.hit_ratio, 0.0);
  EXPECT_NEAR(core::expected_hit_ratio(problem, standalone.placement),
              standalone.hit_ratio, 1e-9);
}

TEST(RepairSolver, StandaloneEqualsGenBitwiseOnStorageOnlyScenarios) {
  // The fig8 2x point: relay-heavy enough that servers' hit lists overlap.
  ScenarioConfig config;
  config.num_servers = 14;
  config.num_users = 40;
  config.area_side_m = 1183.0;
  config.library_size = 60;
  config.special.models_per_family = 20;
  config.requests.models_per_user = 30;
  config.requests.deadline_min_s = 2.0;
  config.requests.deadline_max_s = 6.0;
  const auto& registry = core::SolverRegistry::instance();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Scenario scenario = build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    ASSERT_FALSE(problem.compute_constrained());
    core::SolverContext gen_context(Rng(7));
    core::SolverContext repair_context(Rng(7));
    const auto gen = registry.make("gen")->run(problem, gen_context);
    const auto repair = registry.make("repair")->run(problem, repair_context);
    ASSERT_GT(gen.placement.total_placements(), 0u) << "seed " << seed;
    expect_same_placements(gen.placement, repair.placement);
    EXPECT_EQ(gen.hit_ratio, repair.hit_ratio) << "seed " << seed;
    EXPECT_EQ(gen.gain_evaluations, repair.gain_evaluations) << "seed " << seed;
  }
}

TEST(RepairConfigValidation, RejectsBadTolerances) {
  TilerConfig config;
  config.repair_tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.repair_tolerance = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  RepairConfig repair;
  repair.eviction_tolerance = std::numeric_limits<double>::infinity();
  EXPECT_THROW(repair.validate(), std::invalid_argument);

  // server_group must be empty or match the problem's server count.
  Rng rng(105);
  const Scenario scenario = clustered_scenario(rng);
  EXPECT_THROW(PlacementRepair(scenario, {0, 1}, {}), std::invalid_argument);
  const core::PlacementProblem problem = scenario.problem();
  core::PlacementSolution placement(problem.num_servers(), problem.num_models());
  EXPECT_THROW(
      (void)core::repair_placement(problem, placement, {0, 1, 2}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace trimcaching::sim
