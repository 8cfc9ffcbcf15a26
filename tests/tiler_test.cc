// Contracts of the scale-out scenario engine:
//
//   * tiled-vs-untiled *equivalence* when tiles are coverage-disjoint
//     (clustered deployment, relay disabled): identical placements;
//   * halo correctness on a crafted boundary-user instance: the boundary
//     user rides into the neighbour tile and gets served, matching the
//     untiled solution; without a halo it is lost;
//   * bit-identity of ScenarioTiler::solve and of the parallelized Spec/Gen
//     inner loops (utility accumulation, batched gains, sharded DP fills)
//     across thread counts;
//   * PlacementProblem sub-views agree with the full instance cell by cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "src/core/objective.h"
#include "src/core/solver_registry.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"
#include "src/support/parallel.h"

namespace trimcaching::sim {
namespace {

using support::Rng;

/// Builds a 1 km scenario from explicit server/user positions with the
/// backhaul throttled to ~1 kbps, so relays can never meet a deadline and
/// eligibility is strictly coverage-local — the regime where spatial tiling
/// is exact.
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

/// Four server clusters at the quadrant centers, each with its own users
/// well inside coverage; inter-cluster gaps exceed the coverage radius, so
/// with relays disabled the 2x2 tiles are fully coverage-disjoint.
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

TEST(ScenarioTiler, CoverageDisjointTilesMatchUntiledExactly) {
  Rng rng(91);
  const Scenario scenario = clustered_scenario(rng);
  TilerConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  const ScenarioTiler tiler(scenario, config);
  // Every cluster lands in its own tile and no user crosses tiles.
  EXPECT_EQ(tiler.halo_memberships(), 0u);

  const auto tiled = tiler.solve("gen", 17);
  const core::PlacementProblem problem = scenario.problem();
  core::SolverContext context(Rng(17).at(0x711E, 0));
  const auto untiled = core::SolverRegistry::instance().make("gen")->run(problem, context);

  expect_same_placements(tiled.placement, untiled.placement);
  EXPECT_NEAR(core::expected_hit_ratio(problem, tiled.placement),
              core::expected_hit_ratio(problem, untiled.placement), 1e-12);
  EXPECT_NEAR(tiled.hit_ratio, untiled.hit_ratio, 1e-9);
}

TEST(ScenarioTiler, HaloCarriesBoundaryUserIntoNeighbourTile) {
  Rng rng(92);
  // Two servers in opposite 2x2 tiles plus one crafted boundary user at
  // (510, 250): its home tile (1, 0) has no server, and only the tile-(0,0)
  // server at (250, 250) covers it (distance 260 < coverage 275; the other
  // server is ~554 m away). Only the halo can carry it into tile (0, 0).
  std::vector<wireless::Point> servers = {{250, 250}, {750, 750}};
  std::vector<wireless::Point> users = {{510.0, 250.0}};
  for (std::size_t u = 0; u < 5; ++u) {
    users.push_back({250 + rng.uniform(-120.0, 120.0), 250 + rng.uniform(-120.0, 120.0)});
    users.push_back({750 + rng.uniform(-120.0, 120.0), 750 + rng.uniform(-120.0, 120.0)});
  }
  const Scenario scenario = explicit_scenario(std::move(servers), std::move(users), rng);

  TilerConfig with_halo;
  with_halo.tiles_x = 2;
  with_halo.tiles_y = 2;
  const ScenarioTiler halo_tiler(scenario, with_halo);
  EXPECT_GE(halo_tiler.halo_memberships(), 1u);
  // The boundary user is a member of both its home tile and the covering
  // server's tile.
  std::size_t memberships = 0;
  for (const Tile& tile : halo_tiler.tiles()) {
    if (std::find(tile.users.begin(), tile.users.end(), UserId{0}) !=
        tile.users.end()) {
      ++memberships;
    }
  }
  EXPECT_EQ(memberships, 2u);

  TilerConfig no_halo = with_halo;
  no_halo.halo_m = 0.0;
  const ScenarioTiler bare_tiler(scenario, no_halo);

  const auto with = halo_tiler.solve("gen", 17);
  const auto without = bare_tiler.solve("gen", 17);
  const core::PlacementProblem problem = scenario.problem();
  core::SolverContext context(Rng(17).at(0x711E, 0));
  const auto untiled = core::SolverRegistry::instance().make("gen")->run(problem, context);

  // With the halo the boundary user's requests are served exactly as in the
  // untiled solution; without it they are structurally lost.
  EXPECT_NEAR(with.hit_ratio, untiled.hit_ratio, 1e-9);
  EXPECT_LT(without.hit_ratio, with.hit_ratio);
}

TEST(ScenarioTiler, SolveBitIdenticalAcrossThreadCounts) {
  ScenarioConfig config;
  config.num_servers = 24;
  config.num_users = 120;
  config.area_side_m = 2000.0;
  config.library_size = 60;
  config.special.models_per_family = 20;
  config.requests.models_per_user = 15;
  Rng rng(93);
  const Scenario scenario = build_scenario(config, rng);
  TilerConfig tiler_config;
  tiler_config.tiles_x = 3;
  tiler_config.tiles_y = 3;
  const ScenarioTiler tiler(scenario, tiler_config);

  const auto serial = tiler.solve("gen", 5, 1);
  const auto threaded = tiler.solve("gen", 5, 8);
  expect_same_placements(serial.placement, threaded.placement);
  EXPECT_DOUBLE_EQ(serial.hit_ratio, threaded.hit_ratio);
  EXPECT_EQ(serial.gain_evaluations, threaded.gain_evaluations);
  EXPECT_EQ(serial.iterations, threaded.iterations);
  EXPECT_EQ(serial.tiles_solved, threaded.tiles_solved);
}

TEST(ParallelSolvers, SpecAndGenInnerLoopsBitIdenticalAcrossThreadCounts) {
  ScenarioConfig config;
  config.num_servers = 6;
  config.num_users = 40;
  config.library_size = 30;
  config.special.models_per_family = 12;
  config.requests.models_per_user = 12;
  Rng rng(94);
  const Scenario scenario = build_scenario(config, rng);
  const core::PlacementProblem problem = scenario.problem();

  // eps=0.001 inflates the profit DP past the parallel-fill threshold, and
  // states=200000 does the same for the weight-quantized mode, so the
  // sharded table fills actually execute.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"spec:threads=1", "spec:threads=8"},
      {"spec:eps=0.001,threads=1", "spec:eps=0.001,threads=8"},
      {"spec:mode=weight,states=200000,threads=1",
       "spec:mode=weight,states=200000,threads=8"},
      {"gen:threads=1", "gen:threads=8"},
      {"gen_naive:threads=1", "gen_naive:threads=8"},
      {"gen_naive:rule=per_byte,threads=1", "gen_naive:rule=per_byte,threads=8"},
      // Standalone repair fills from empty (the per-candidate heap build);
      // top_pop's copies are mostly duplicates, so its repair refill takes
      // the inverted uncovered-demand build.
      {"repair:threads=1", "repair:threads=8"},
      {"top_pop+repair:threads=1", "top_pop+repair:threads=8"},
  };
  const auto expect_thread_invariant = [](const core::PlacementProblem& instance,
                                          const std::string& serial_spec,
                                          const std::string& threaded_spec) {
    core::SolverContext serial_context(Rng(7));
    core::SolverContext threaded_context(Rng(7));
    const auto& registry = core::SolverRegistry::instance();
    const auto serial = registry.make(serial_spec)->run(instance, serial_context);
    const auto threaded = registry.make(threaded_spec)->run(instance, threaded_context);
    expect_same_placements(serial.placement, threaded.placement);
    EXPECT_DOUBLE_EQ(serial.hit_ratio, threaded.hit_ratio) << serial_spec;
    EXPECT_EQ(serial.gain_evaluations, threaded.gain_evaluations) << serial_spec;
    EXPECT_EQ(serial.iterations, threaded.iterations) << serial_spec;
  };
  for (const auto& [serial_spec, threaded_spec] : pairs) {
    expect_thread_invariant(problem, serial_spec, threaded_spec);
  }

  // The same scenario under a binding compute constraint: gen's heap build
  // then prices every candidate through the compute charge walk.
  config.compute_capacity = 0.5;
  Rng constrained_rng(94);
  const Scenario constrained = build_scenario(config, constrained_rng);
  const core::PlacementProblem constrained_problem = constrained.problem();
  ASSERT_TRUE(constrained_problem.compute_constrained());
  expect_thread_invariant(constrained_problem, "gen:threads=1", "gen:threads=8");
}

TEST(ParallelSolvers, ThreadedSpecsMatchLegacyDefaults) {
  // threads=N must change nothing versus the pre-parallel defaults.
  ScenarioConfig config;
  config.num_servers = 5;
  config.num_users = 30;
  config.library_size = 24;
  config.special.models_per_family = 10;
  Rng rng(95);
  const Scenario scenario = build_scenario(config, rng);
  const core::PlacementProblem problem = scenario.problem();
  for (const std::string base : {"spec", "gen", "gen_naive", "independent"}) {
    core::SolverContext lhs_context(Rng(3));
    core::SolverContext rhs_context(Rng(3));
    const auto& registry = core::SolverRegistry::instance();
    const auto lhs = registry.make(base)->run(problem, lhs_context);
    const auto rhs = registry.make(base == "independent" ? base : base + ":threads=8")
                         ->run(problem, rhs_context);
    expect_same_placements(lhs.placement, rhs.placement);
    EXPECT_DOUBLE_EQ(lhs.hit_ratio, rhs.hit_ratio) << base;
  }
}

TEST(PlacementProblemView, SubsetAgreesWithFullInstance) {
  ScenarioConfig config;
  config.num_servers = 8;
  config.num_users = 50;
  config.library_size = 30;
  config.special.models_per_family = 12;
  Rng rng(96);
  const Scenario scenario = build_scenario(config, rng);
  const core::PlacementProblem full = scenario.problem();

  const std::vector<ServerId> servers = {1, 3, 4, 7};
  const std::vector<UserId> users = {0, 5, 6, 11, 23, 42, 49};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  EXPECT_EQ(view.num_servers(), servers.size());
  EXPECT_EQ(view.num_users(), users.size());
  EXPECT_EQ(view.num_models(), full.num_models());

  double expected_mass = 0.0;
  for (const UserId gk : users) {
    for (ModelId i = 0; i < full.num_models(); ++i) {
      expected_mass += scenario.requests.probability(gk, i);
    }
  }
  EXPECT_NEAR(view.total_mass(), expected_mass, 1e-12);

  for (std::size_t m = 0; m < servers.size(); ++m) {
    EXPECT_EQ(view.global_server(static_cast<ServerId>(m)), servers[m]);
    EXPECT_EQ(view.capacity(static_cast<ServerId>(m)), full.capacity(servers[m]));
    for (std::size_t k = 0; k < users.size(); ++k) {
      for (ModelId i = 0; i < full.num_models(); ++i) {
        EXPECT_EQ(view.eligible(static_cast<ServerId>(m), static_cast<UserId>(k), i),
                  full.eligible(servers[m], users[k], i))
            << "m=" << servers[m] << " k=" << users[k] << " i=" << i;
      }
    }
    // Hit lists carry the same masses, re-indexed to view-local users.
    for (ModelId i = 0; i < full.num_models(); ++i) {
      const auto local = view.hit_list(static_cast<ServerId>(m), i);
      double local_mass = 0.0;
      for (const auto& entry : local) {
        EXPECT_LT(entry.user, users.size());
        local_mass += entry.mass;
      }
      double global_mass = 0.0;
      for (const auto& entry : full.hit_list(servers[m], i)) {
        if (std::find(users.begin(), users.end(), entry.user) != users.end()) {
          global_mass += entry.mass;
        }
      }
      EXPECT_NEAR(local_mass, global_mass, 1e-12);
    }
  }

  EXPECT_THROW(core::PlacementProblem(scenario.topology, scenario.library,
                                      scenario.requests, {3, 1}, users),
               std::invalid_argument);
  EXPECT_THROW(core::PlacementProblem(scenario.topology, scenario.library,
                                      scenario.requests, {}, users),
               std::invalid_argument);
}

TEST(ScenarioConfigValidation, SelfDiagnosingMessages) {
  ScenarioConfig config;
  config.library_size = 10'000;  // default special generator produces 300
  try {
    config.validate();
    FAIL() << "oversized library_size must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("library_size"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("300"), std::string::npos);
  }

  config = ScenarioConfig{};
  config.num_servers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = ScenarioConfig{};
  config.num_users = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = ScenarioConfig{};
  config.area_side_m = -5.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.area_side_m = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = ScenarioConfig{};
  config.requests.models_per_user = 10'000;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // Boundary: exactly the generated library size is fine.
  config = ScenarioConfig{};
  config.library_size = 300;
  EXPECT_NO_THROW(config.validate());
}

TEST(ScaledGenerators, ZooScaleLibrariesAssemble) {
  Rng rng(97);
  model::SpecialCaseConfig special;
  special.models_per_family = 1000;
  const auto zoo = model::build_special_case_library(special, rng);
  EXPECT_EQ(zoo.num_models(), 3000u);
  // Bottom-layer freezing keeps the shared-block count bounded by the
  // distinct freeze depths, not the zoo size (the Spec-tractable regime).
  EXPECT_LE(zoo.shared_blocks().size(), 3u * 110u);

  model::LoraLibraryConfig lora;
  lora.num_foundations = 4;
  lora.adapters_per_foundation = 2500;
  const auto adapters = model::build_lora_library(lora, rng);
  EXPECT_EQ(adapters.num_models(), 10'000u);
  EXPECT_EQ(adapters.shared_blocks().size(), 4u);
  const auto stats = adapters.stats();
  EXPECT_GT(stats.sharing_ratio, 0.9);
}

}  // namespace
}  // namespace trimcaching::sim
