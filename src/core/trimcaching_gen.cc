#include "src/core/trimcaching_gen.h"

#include <algorithm>
#include <numeric>

#include "src/core/storage.h"
#include "src/core/submodular.h"

namespace trimcaching::core {

namespace {

constexpr double kGainTolerance = 1e-15;

/// Score of a candidate under the configured rule. Zero-cost additions
/// (every block already cached) are scored as one-byte costs so that free
/// gains always dominate.
double score_candidate(GreedyRule rule, double gain, support::Bytes cost) {
  if (rule == GreedyRule::kGain) return gain;
  return gain / static_cast<double>(std::max<support::Bytes>(1, cost));
}

/// Literal Algorithm 3: rescans every (m, i) each round. `servers` lists
/// every server in id order, so positions in it are server ids.
std::size_t run_naive(const PlacementProblem& problem, const GenConfig& config,
                      const std::vector<ServerId>& servers, CoverageState& coverage,
                      std::vector<ServerStorage>& storage, PlacementSolution& placement) {
  const std::size_t num_models = problem.num_models();
  std::size_t gain_evaluations = 0;
  // Per-round candidate gains, batched across (server, model) pairs through
  // the shared batched_marginal_masses sweep (objective.h): shard m owns
  // server m's row of the flat array, so the parallel evaluation writes
  // disjoint slots and the (m, i)-ordered reduction below selects the same
  // candidate — with the same tie-breaks and evaluation count — as the
  // serial rescan, for every thread count.
  std::vector<double> gains;
  while (true) {
    batched_marginal_masses(problem, coverage, placement, storage, servers,
                            config.threads, gains);
    double best_score = 0.0;
    ServerId best_m = 0;
    ModelId best_i = 0;
    bool found = false;
    for (ServerId m = 0; m < problem.num_servers(); ++m) {
      for (ModelId i = 0; i < num_models; ++i) {
        const double gain = gains[static_cast<std::size_t>(m) * num_models + i];
        if (gain == kSkippedCandidate) continue;
        ++gain_evaluations;
        if (gain <= kGainTolerance) continue;
        const double score = score_candidate(config.rule, gain, storage[m].incremental_cost(i));
        if (score > best_score + kGainTolerance) {
          best_score = score;
          best_m = m;
          best_i = i;
          found = true;
        }
      }
    }
    if (!found) break;
    storage[best_m].add(best_i);
    coverage.add(best_m, best_i);
    placement.place(best_m, best_i);
  }
  return gain_evaluations;
}

}  // namespace

GenResult trimcaching_gen(const PlacementProblem& problem, const GenConfig& config) {
  GenResult result{PlacementSolution(problem.num_servers(), problem.num_models()), 0.0, 0};
  CoverageState coverage(problem);
  std::vector<ServerId> servers(problem.num_servers());
  std::iota(servers.begin(), servers.end(), ServerId{0});
  auto storage = server_storage<ServerStorage>(problem, servers, result.placement);
  // Lazy evaluation is unsound for ratio scores (see GenConfig::rule).
  if (config.lazy && config.rule == GreedyRule::kGain) {
    result.gain_evaluations =
        lazy_greedy(problem, coverage, storage, servers, result.placement,
                    RefillConfig{config.threads, kGainTolerance})
            .gain_evaluations;
  } else {
    result.gain_evaluations =
        run_naive(problem, config, servers, coverage, storage, result.placement);
  }
  result.hit_ratio = coverage.hit_ratio();
  return result;
}

}  // namespace trimcaching::core
