// Independent Caching baseline (§VII-A): classical content placement that
// treats every model as an opaque blob.
//
// Placement is core::lazy_greedy — the same greedy maximization of U(X) as
// TrimCaching Gen — under *naive* storage accounting (core::NaiveStorage):
// each cached model charges its full size D_i, with no block deduplication
// (the knapsack constraints of the femtocaching-style schemes the paper
// cites). Because naive usage over-estimates true usage,
// any placement feasible here is also feasible under g_m, so the comparison
// against TrimCaching isolates the value of parameter-sharing awareness.
#pragma once

#include "src/core/placement.h"
#include "src/core/problem.h"

namespace trimcaching::core {

struct IndependentResult {
  PlacementSolution placement;
  double hit_ratio = 0.0;
};

[[nodiscard]] IndependentResult independent_caching(const PlacementProblem& problem);

}  // namespace trimcaching::core
