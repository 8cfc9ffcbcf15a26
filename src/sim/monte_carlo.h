// Monte-Carlo experiment driver: averages solver performance over random
// network topologies (the paper averages 100 topologies x >10³ Rayleigh
// realizations; benches default to a reduced budget, switchable to paper
// scale via TRIMCACHING_FULL=1, see experiment.h).
//
// Solvers are requested by registry spec string ("spec", "gen_naive",
// "independent+ls", ...) — see core/solver_registry.h. Per-solver options
// ride in the spec, so one driver serves every figure and ablation.
//
// Parallelism & determinism: topologies are sharded over the support
// thread pool (`threads`, 0 = hardware concurrency), and all randomness is
// derived counter-based with Rng::at — topology t's scenario, solver seeds
// and fading base depend only on (seed, t), never on execution order. Every
// solver within a topology evaluates against the same fading base, so all
// solvers see identical channel draws, and the returned SolverStats are
// bit-identical for any thread count (wall-clock `runtime_seconds` is a
// measurement, not a draw, and varies run to run).
#pragma once

#include <string>
#include <vector>

#include "src/core/solver_registry.h"
#include "src/sim/scenario.h"
#include "src/support/stats.h"

namespace trimcaching::sim {

struct MonteCarloConfig {
  std::size_t topologies = 10;
  std::size_t fading_realizations = 200;
  std::uint64_t seed = 1;
  /// Topology-shard thread count: 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical for every value.
  std::size_t threads = 0;
};

struct SolverStats {
  std::string spec;   ///< the registry spec string this row was produced from
  std::string title;  ///< the solver's human-readable title
  std::size_t threads = 1;  ///< resolved thread count the run used
  support::Summary fading_hit_ratio;    ///< fading-averaged ratio per topology
  support::Summary expected_hit_ratio;  ///< Eq. 2 ratio per topology
  support::Summary runtime_seconds;     ///< placement wall-clock per topology
  support::Summary gain_evaluations;    ///< marginal-gain evaluations per topology
  support::Summary iterations;          ///< solver-specific work counter
};

/// Runs every requested solver on the same sequence of sampled scenarios and
/// returns per-solver statistics (in the order given). Throws
/// std::invalid_argument on unknown solver specs, empty spec lists, or a
/// zero topology budget.
[[nodiscard]] std::vector<SolverStats> run_comparison(
    const ScenarioConfig& scenario_config,
    const std::vector<std::string>& solver_specs, const MonteCarloConfig& mc);

}  // namespace trimcaching::sim
