#include "src/sim/placement_repair.h"

#include <stdexcept>

#include "src/support/timing.h"

namespace trimcaching::sim {

void RepairConfig::validate() const {
  core::RepairPassConfig{.eviction_tolerance = eviction_tolerance}.validate(
      "RepairConfig: eviction_tolerance");
}

PlacementRepair::PlacementRepair(const Scenario& scenario,
                                 std::vector<std::size_t> server_tile,
                                 RepairConfig config)
    : server_tile_(std::move(server_tile)),
      config_(config),
      problem_(scenario.topology, scenario.library, scenario.requests) {
  config_.validate();
  if (!server_tile_.empty() && server_tile_.size() != problem_.num_servers()) {
    throw std::invalid_argument(
        "PlacementRepair: server_tile size must match the scenario's servers");
  }
}

RepairResult PlacementRepair::repair(const core::PlacementSolution& stitched,
                                     std::size_t threads) const {
  const auto start = support::WallClock::now();
  if (threads == SIZE_MAX) threads = config_.threads;

  core::RepairPassConfig pass;
  pass.threads = threads;
  pass.eviction_tolerance = config_.eviction_tolerance;

  RepairResult result{stitched};
  result.duplication_before = core::duplication_factor(stitched);
  const core::RepairPassStats stats =
      core::repair_placement(problem_, result.placement, server_tile_, pass);
  result.hit_ratio = stats.hit_ratio;
  result.duplicates_evicted = stats.duplicates_evicted;
  result.models_added = stats.models_added;
  result.gain_evaluations = stats.gain_evaluations;
  result.duplication_after = core::duplication_factor(result.placement);
  result.wall_seconds = support::seconds_since(start);
  return result;
}

}  // namespace trimcaching::sim
