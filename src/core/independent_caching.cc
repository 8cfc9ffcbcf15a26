#include "src/core/independent_caching.h"

#include <numeric>

#include "src/core/objective.h"
#include "src/core/storage.h"
#include "src/core/submodular.h"

namespace trimcaching::core {

IndependentResult independent_caching(const PlacementProblem& problem) {
  IndependentResult result{
      PlacementSolution(problem.num_servers(), problem.num_models()), 0.0};
  CoverageState coverage(problem);
  std::vector<ServerId> servers(problem.num_servers());
  std::iota(servers.begin(), servers.end(), ServerId{0});
  auto storage = server_storage<NaiveStorage>(problem, servers, result.placement);
  (void)lazy_greedy(problem, coverage, storage, servers, result.placement);
  result.hit_ratio = coverage.hit_ratio();
  return result;
}

}  // namespace trimcaching::core
