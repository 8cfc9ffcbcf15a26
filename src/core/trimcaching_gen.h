// TrimCaching Gen (Algorithm 3): global greedy for arbitrary sharing.
//
// Repeatedly adds the placement x_{m,i} with the largest marginal hit-ratio
// gain among those that still fit under the dedup-aware capacity g_m
// (Eq. 7), until no placement with positive gain fits. 1/Γ approximation
// (Theorem 3); no constant guarantee exists in general (Proposition 2).
//
// Two drivers are provided:
//  * naive  — full rescan of all (m, i) each step (the literal Algorithm 3,
//    registered as gen_naive); the only driver for GreedyRule::kGainPerByte;
//  * lazy   — core::lazy_greedy (submodular.h) over CoverageState and dedup
//    ServerStorage, the Minoux loop Independent Caching and the repair
//    solver share: since U is submodular, marginal gains only decrease, so
//    stale heap entries can be re-evaluated on demand. Candidates that do
//    not currently fit are parked per server and re-priced when an addition
//    to that server makes them fit (placing a model can *lower* a sharing
//    neighbour's incremental size, so infeasibility is not final).
// Both produce a maximal-gain sequence; they can differ only in tie-breaks.
#pragma once

#include "src/core/objective.h"
#include "src/core/placement.h"
#include "src/core/problem.h"

namespace trimcaching::core {

/// Candidate scoring rule. The paper's Algorithm 3 picks the raw maximum
/// marginal gain; gain-per-byte (cost-benefit) is the classic knapsack
/// heuristic and is provided as an ablation (bench/ablation_greedy).
enum class GreedyRule { kGain, kGainPerByte };

struct GenConfig {
  bool lazy = true;
  /// kGainPerByte forces the naive driver: under dedup the incremental byte
  /// cost of a model can *decrease* when a sharing neighbour is placed, so
  /// stale heap scores are no longer upper bounds and lazy evaluation would
  /// be unsound.
  GreedyRule rule = GreedyRule::kGain;
  /// Thread count for batched marginal-gain evaluation (0 = hardware
  /// concurrency, 1 = serial): the naive driver's per-round (m, i) rescan
  /// and lazy_greedy's initial heap build shard gains per server into a
  /// flat array; candidate selection then runs as an ordered serial
  /// reduction over that array, so placements, hit ratios, and
  /// gain-evaluation counts are bit-identical for any value.
  std::size_t threads = 1;
};

struct GenResult {
  PlacementSolution placement;
  double hit_ratio = 0.0;
  /// Number of marginal-gain evaluations performed (lazy vs naive metric).
  std::size_t gain_evaluations = 0;
};

[[nodiscard]] GenResult trimcaching_gen(const PlacementProblem& problem,
                                        const GenConfig& config = {});

}  // namespace trimcaching::core
