#include "src/sim/monte_carlo.h"

#include <memory>
#include <stdexcept>

#include "src/core/objective.h"
#include "src/sim/evaluator.h"
#include "src/support/parallel.h"

namespace trimcaching::sim {

namespace {

// Counter-based stream tags (Rng::at): one per independent random input of
// a topology shard. Solver a's context stream is kSolverStreamBase + a.
constexpr std::uint64_t kTopologyStream = 1;
constexpr std::uint64_t kFadingBaseStream = 2;
constexpr std::uint64_t kSolverStreamBase = 1000;

}  // namespace

std::vector<SolverStats> run_comparison(const ScenarioConfig& scenario_config,
                                        const std::vector<std::string>& solver_specs,
                                        const MonteCarloConfig& mc) {
  if (solver_specs.empty()) throw std::invalid_argument("run_comparison: no solvers");
  if (mc.topologies == 0) throw std::invalid_argument("run_comparison: no topologies");

  // Instantiate everything up front so a typo in any spec fails before the
  // first (possibly expensive) topology is solved. This also forces the
  // registry's one-time built-in registration onto this thread before any
  // shard races to read it.
  std::vector<std::unique_ptr<core::Solver>> solvers;
  solvers.reserve(solver_specs.size());
  for (const auto& spec : solver_specs) {
    solvers.push_back(core::SolverRegistry::instance().make(spec));
  }

  const std::size_t threads = support::resolve_threads(mc.threads);

  // One result cell per (topology, solver); shards write disjoint slots and
  // the reduction below runs in topology order, so the aggregate is
  // bit-identical for every thread count.
  struct Cell {
    double fading = 0, expected = 0, runtime = 0, gain_evals = 0, iterations = 0;
  };
  const std::size_t num_solvers = solver_specs.size();
  std::vector<Cell> cells(mc.topologies * num_solvers);

  const support::Rng master(mc.seed);
  support::parallel_for(mc.topologies, threads, [&](std::size_t t) {
    // Everything in this shard derives counter-based from (seed, t).
    support::Rng topo_rng = master.at(kTopologyStream, t);
    const Scenario scenario = build_scenario(scenario_config, topo_rng);
    const core::PlacementProblem problem = scenario.problem();
    const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);

    // One fading base per topology, shared by every solver: fading draws
    // are derived per realization (Rng::at), so all solvers see identical
    // channel draws and the fading column reflects the placements only.
    const support::Rng fading_base = master.at(kFadingBaseStream, t);
    for (std::size_t a = 0; a < num_solvers; ++a) {
      // Per-shard solver instance: Solver objects are not shared across
      // threads.
      const auto solver = core::SolverRegistry::instance().make(solver_specs[a]);
      core::SolverContext context(master.at(kSolverStreamBase + a, t));
      const core::SolverOutcome outcome = solver->run(problem, context);
      Cell& cell = cells[t * num_solvers + a];
      cell.runtime = outcome.wall_seconds;
      cell.gain_evals = static_cast<double>(outcome.gain_evaluations);
      cell.iterations = static_cast<double>(outcome.iterations);
      cell.expected = core::expected_hit_ratio(problem, outcome.placement);
      cell.fading = evaluator
                        .fading_hit_ratio(outcome.placement, mc.fading_realizations,
                                          fading_base, threads)
                        .mean;
    }
  });

  std::vector<SolverStats> out;
  out.reserve(num_solvers);
  for (std::size_t a = 0; a < num_solvers; ++a) {
    struct {
      support::RunningStats fading, expected, runtime, gain_evals, iterations;
    } acc;
    for (std::size_t t = 0; t < mc.topologies; ++t) {
      const Cell& cell = cells[t * num_solvers + a];
      acc.fading.add(cell.fading);
      acc.expected.add(cell.expected);
      acc.runtime.add(cell.runtime);
      acc.gain_evals.add(cell.gain_evals);
      acc.iterations.add(cell.iterations);
    }
    SolverStats stats;
    stats.spec = solver_specs[a];
    stats.title = solvers[a]->title();
    stats.threads = threads;
    auto summarize = [](const support::RunningStats& rs) {
      return support::Summary{rs.mean(), rs.stddev(), rs.min(), rs.max(), rs.count()};
    };
    stats.fading_hit_ratio = summarize(acc.fading);
    stats.expected_hit_ratio = summarize(acc.expected);
    stats.runtime_seconds = summarize(acc.runtime);
    stats.gain_evaluations = summarize(acc.gain_evals);
    stats.iterations = summarize(acc.iterations);
    out.push_back(stats);
  }
  return out;
}

}  // namespace trimcaching::sim
