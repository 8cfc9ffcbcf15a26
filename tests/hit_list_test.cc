// Factored hit lists against a brute-force reference.
//
// PlacementProblem stores direct entries per (m, i) and one relay list per
// model, and hit_list(m, i) merges them. The contract is that the merge is
// exactly the per-server list a dense build would hold: for every (m, i),
// the users k (ascending) with p_{k,i} > 0 and eligible(m, k, i), each with
// mass p_{k,i}. total_mass() and reachable_mass() must equal the per-user,
// per-row sums bitwise. Checked on full instances, tiler sub-views (incl. a
// view whose servers all cover one user, so that user's relay entries must
// vanish) and deserialized owning tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "src/core/problem.h"
#include "src/io/tile_codec.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"

namespace trimcaching::core {
namespace {

using support::Rng;

static_assert(std::ranges::forward_range<HitRange>);

using Entries = std::vector<std::pair<UserId, double>>;

sim::Scenario relay_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.num_servers = 9;
  config.num_users = 60;
  config.library_size = 24;
  config.special.models_per_family = 8;
  config.requests.models_per_user = 8;
  Rng rng(seed);
  return sim::build_scenario(config, rng);
}

Entries collect(const HitRange& range) {
  Entries out;
  for (const HitEntry& entry : range) out.emplace_back(entry.user, entry.mass);
  return out;
}

/// Checks every hit list and both mass totals of `problem` against the
/// brute-force reference; returns the number of entries compared.
std::size_t expect_matches_reference(const PlacementProblem& problem,
                                     const std::string& label) {
  const std::size_t M = problem.num_servers();
  const std::size_t K = problem.num_users();
  const std::size_t I = problem.num_models();
  std::vector<char> requested(K * I, 0);
  double total = 0.0;
  double reachable = 0.0;
  for (UserId k = 0; k < K; ++k) {
    const UserId rk = problem.request_user(k);
    for (const workload::RequestCell& cell : problem.requests().requested(rk)) {
      const ModelId i = cell.model;
      requested[k * I + i] = 1;
      const double p = problem.requests().probability(rk, i);
      total += p;
      bool any = false;
      for (ServerId m = 0; m < M && !any; ++m) any = problem.eligible(m, k, i);
      if (any) reachable += p;
    }
  }
  EXPECT_EQ(problem.total_mass(), total) << label;
  EXPECT_EQ(problem.reachable_mass(), reachable) << label;

  std::size_t compared = 0;
  for (ServerId m = 0; m < M; ++m) {
    for (ModelId i = 0; i < I; ++i) {
      Entries reference;
      for (UserId k = 0; k < K; ++k) {
        if (requested[k * I + i] && problem.eligible(m, k, i)) {
          reference.emplace_back(k,
                                 problem.requests().probability(problem.request_user(k), i));
        }
      }
      const HitRange range = problem.hit_list(m, i);
      EXPECT_EQ(collect(range), reference) << label << " m=" << m << " i=" << i;
      EXPECT_EQ(range.empty(), reference.empty()) << label << " m=" << m << " i=" << i;
      compared += reference.size();
    }
  }
  return compared;
}

TEST(HitList, FullInstanceMatchesBruteForce) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    const sim::Scenario scenario = relay_scenario(seed);
    const PlacementProblem problem = scenario.problem();
    EXPECT_GT(expect_matches_reference(problem, "full seed " + std::to_string(seed)),
              0u);
  }
}

TEST(HitList, TilerSubViewsMatchBruteForce) {
  const sim::Scenario scenario = relay_scenario(5);
  sim::TilerConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  const sim::ScenarioTiler tiler(scenario, config);
  std::size_t views = 0;
  for (std::size_t t = 0; t < tiler.tiles().size(); ++t) {
    const sim::Tile& tile = tiler.tiles()[t];
    if (tile.servers.empty() || tile.users.empty()) continue;
    expect_matches_reference(tiler.tile_problem(t), "tile " + std::to_string(t));
    ++views;
  }
  EXPECT_GT(views, 1u);
}

TEST(HitList, RelayEntriesVanishForAUserCoveredByEveryViewServer) {
  // Find a user k, a requested model i and a covering server m whose own
  // link misses i's deadline while k's relay path (from any non-covering
  // server) meets it. A view over m alone leaves k no relay server, so k
  // must drop out of m's list for i and (k, i) out of reachable_mass(): a
  // merge that forgot the association skip, or a reachability test that
  // ignored it, would keep them.
  for (const std::uint64_t seed : {3u, 5u, 17u, 29u, 41u}) {
    const sim::Scenario scenario = relay_scenario(seed);
    const PlacementProblem full = scenario.problem();
    for (UserId k = 0; k < full.num_users(); ++k) {
      std::vector<ServerId> covering;
      for (ServerId m = 0; m < full.num_servers(); ++m) {
        if (full.associations(m)[k]) covering.push_back(m);
      }
      if (covering.size() < 2 || covering.size() == full.num_servers()) continue;
      for (const workload::RequestCell& cell : full.requests().requested(k)) {
        const ModelId i = cell.model;
        bool relay = false;
        std::size_t weak = covering.size();  // position in `covering`
        for (ServerId m = 0; m < full.num_servers(); ++m) {
          const bool associated = full.associations(m)[k] != 0;
          if (!associated && full.eligible(m, k, i)) relay = true;
          if (associated && !full.eligible(m, k, i)) {
            weak = static_cast<std::size_t>(
                std::find(covering.begin(), covering.end(), m) - covering.begin());
          }
        }
        if (!relay || weak == covering.size()) continue;

        std::vector<UserId> users = {k};
        for (UserId other = 0; other < full.num_users() && users.size() < 12; ++other) {
          if (other != k) users.push_back(other);
        }
        std::sort(users.begin(), users.end());
        const PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, {covering[weak]}, users);
        const UserId local_k = static_cast<UserId>(
            std::find(users.begin(), users.end(), k) - users.begin());
        ASSERT_TRUE(view.associations(0)[local_k]);
        for (const HitEntry& entry : view.hit_list(0, i)) {
          EXPECT_NE(entry.user, local_k) << "relay entry survived on a covering server";
        }
        expect_matches_reference(view, "covering view");
        return;
      }
    }
  }
  FAIL() << "no covering server that misses a relay-eligible model in any seed";
}

TEST(HitList, DeserializedOwnedTilesMatchBruteForce) {
  const sim::Scenario scenario = relay_scenario(11);
  sim::TilerConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  const sim::ScenarioTiler tiler(scenario, config);
  io::TileViewHeader header;
  header.algo = "gen";
  std::size_t tiles = 0;
  for (std::size_t t = 0; t < tiler.tiles().size(); ++t) {
    const sim::Tile& tile = tiler.tiles()[t];
    if (tile.servers.empty() || tile.users.empty()) continue;
    const PlacementProblem view = tiler.tile_problem(t);
    io::TileView parsed = io::parse_tile_view(io::serialize_tile_view(header, view));
    const PlacementProblem owned(std::move(parsed.data));
    expect_matches_reference(owned, "owned tile " + std::to_string(t));
    for (ServerId m = 0; m < view.num_servers(); ++m) {
      for (ModelId i = 0; i < view.num_models(); ++i) {
        EXPECT_EQ(collect(owned.hit_list(m, i)), collect(view.hit_list(m, i)));
      }
    }
    ++tiles;
  }
  EXPECT_GT(tiles, 1u);
}

}  // namespace
}  // namespace trimcaching::core
