// Per-server sub-problem solver (P2.1_m, Algorithm 2).
//
// Given per-model utilities u(m,i) (already multiplied by the I2 "not yet
// served" indicator by the successive greedy driver, Eq. 14), maximize
// Σ_{i chosen} u(m,i) subject to the deduplicated storage constraint
// (Eq. 9b). The paper's key idea: traverse the combinations N of shared
// parameter blocks (set A, Fig. 3); for each N, the models whose shared part
// is covered by N interact *only* through their specific parts, so the inner
// problem is a plain 0/1 knapsack over specific sizes with budget Q_m - d_N.
//
// Combination traversal. Only unions of the candidate models' shared parts
// can be optimal (any other N is dominated by the union it contains), so the
// solver walks exactly that union-closure. When the distinct shared parts
// within every sharing group form an inclusion chain — which is always the
// case for libraries built by bottom-layer freezing, where parts are nested
// prefixes — the closure is the product of per-group chain levels and the
// walk reuses DP state incrementally along each chain. Otherwise a generic
// closure enumeration runs each knapsack from scratch. Either way the
// traversal cost is exponential in the number of sharing groups, which is
// the paper's special-case-vs-general-case distinction (Theorem 1 vs §VI).
//
// Inner knapsack modes, one DP type each, driven by a single template for
// both traversals and the reconstruction:
//  * kProfitRounding — the paper's Algorithm 2: profits are rounded to
//    integers u̇ = floor(u / (ε·u_min)) and the DP is indexed by profit with
//    min-weight values (Eq. 16). ε-optimal per Proposition 4.
//  * kWeightQuantized — DP indexed by storage quantized to
//    `weight_states` buckets (sizes rounded up, so results are always
//    feasible); profits stay exact doubles. Near-exact alternative used to
//    ablate the rounding loss.
// Each DP's recurrence is written once. The winning leaf's picks are
// recovered by replaying its members through a fresh DP of the same type and
// tracing back through the states each member changed.
//
// Joint caching + compute (the second knapsack dimension): when the caller
// passes per-model compute loads and a finite compute budget, the inner
// knapsack becomes a 2D weight-indexed DP over (storage, compute) states —
// storage quantized to `weight_states` buckets as before, compute to a fixed
// 64 buckets with ceil rounding (so DP-feasible selections never overshoot
// the optimistic loads). This joint mode applies regardless of DpMode (a
// profit-indexed 2D variant would need weight-pair values and buys nothing:
// the joint objective is re-scored canonically downstream).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "src/model/model_library.h"
#include "src/support/ids.h"
#include "src/support/units.h"

namespace trimcaching::core {

enum class DpMode { kProfitRounding, kWeightQuantized };

struct SpecSolverConfig {
  DpMode mode = DpMode::kProfitRounding;
  /// Profit-rounding precision ε ∈ (0, 1]; the paper's "ε = 0" (exact) maps
  /// to a fine rounding of 1e-5.
  double epsilon = 0.1;
  /// Resolution of the weight-quantized mode and of the joint mode's storage
  /// axis.
  std::size_t weight_states = 4096;
  /// Abort if the combination traversal would exceed this many leaves
  /// (general-case blow-up guard).
  std::size_t max_combinations = std::size_t{1} << 22;
  /// Abort if a profit-indexed DP would exceed this many states.
  std::size_t max_profit_states = 50'000'000;
  /// Thread count for large DP table fills (and, via SpecConfig, for the
  /// per-server utility accumulation): 0 = hardware concurrency, 1 = serial.
  /// The fill shards the state axis over a snapshot of the previous row, so
  /// results are bit-identical for every value; small tables always fill
  /// serially (the snapshot would cost more than it saves).
  std::size_t threads = 1;
};

struct ServerSubproblemResult {
  std::vector<ModelId> models;      ///< chosen cache content, ascending ids
  double value = 0.0;               ///< Σ u over chosen models (exact)
  std::size_t combinations_visited = 0;
  bool used_chain_path = false;     ///< chain-structured traversal applied
};

/// Solves P2.1_m. `utilities[i]` is u(m,i), finite and ≥ 0 (un-normalized
/// mass is fine); models with zero utility are never selected.
///
/// Joint mode: when `compute_loads` is non-null (size I, per-model optimistic
/// compute weight — Σ p·c over the model's still-uncovered hit entries) and
/// `compute_budget` is finite, the inner knapsack adds the compute dimension:
/// selections whose summed (ceil-quantized) loads exceed the budget are
/// rejected. A model whose lone load exceeds the budget is clamped to the
/// whole budget rather than pruned — it may still serve a feasible subset of
/// its users, which the canonical joint evaluation downstream decides.
[[nodiscard]] ServerSubproblemResult solve_server_subproblem(
    const model::ModelLibrary& library, const std::vector<double>& utilities,
    support::Bytes capacity, const SpecSolverConfig& config = {},
    const std::vector<double>* compute_loads = nullptr,
    double compute_budget = std::numeric_limits<double>::infinity());

}  // namespace trimcaching::core
