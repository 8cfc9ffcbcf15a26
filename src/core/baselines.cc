#include "src/core/baselines.h"

#include <algorithm>
#include <numeric>

#include "src/core/objective.h"
#include "src/core/storage.h"

namespace trimcaching::core {

BaselineResult top_popularity_caching(const PlacementProblem& problem) {
  const std::size_t num_servers = problem.num_servers();
  const std::size_t num_models = problem.num_models();

  std::vector<double> popularity(num_models, 0.0);
  for (UserId k = 0; k < problem.num_users(); ++k) {
    for (const auto& cell : problem.requests().requested(problem.request_user(k))) {
      popularity[cell.model] += cell.probability;
    }
  }
  std::vector<ModelId> order(num_models);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&popularity](ModelId a, ModelId b) {
    return popularity[a] > popularity[b];
  });

  BaselineResult result{PlacementSolution(num_servers, num_models), 0.0};
  for (ServerId m = 0; m < num_servers; ++m) {
    ServerStorage storage(problem.library(), problem.capacity(m));
    for (const ModelId i : order) {
      if (popularity[i] <= 0.0) break;
      if (storage.fits(i)) {
        storage.add(i);
        result.placement.place(m, i);
      }
    }
  }
  result.hit_ratio = expected_hit_ratio(problem, result.placement);
  return result;
}

BaselineResult random_placement(const PlacementProblem& problem, support::Rng& rng) {
  const std::size_t num_servers = problem.num_servers();
  const std::size_t num_models = problem.num_models();
  BaselineResult result{PlacementSolution(num_servers, num_models), 0.0};
  for (ServerId m = 0; m < num_servers; ++m) {
    ServerStorage storage(problem.library(), problem.capacity(m));
    std::vector<std::size_t> order = rng.permutation(num_models);
    for (const std::size_t i : order) {
      const auto model = static_cast<ModelId>(i);
      if (storage.fits(model)) {
        storage.add(model);
        result.placement.place(m, model);
      }
    }
  }
  result.hit_ratio = expected_hit_ratio(problem, result.placement);
  return result;
}

}  // namespace trimcaching::core
