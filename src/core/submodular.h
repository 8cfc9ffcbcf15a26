// Submodular gain machinery and randomized set-function property probes.
//
// Two halves:
//
//  * Greedy maximization of the submodular U(X) — lazy_greedy(), the one
//    lazy (Minoux) greedy loop in the repo. TrimCaching Gen (Alg. 3), the
//    Independent Caching baseline, the standalone "repair" solver and the
//    repair pass's refill all run it; they differ only in the coverage
//    tracker, the storage accounting and the starting placement. Next to it,
//    repair_placement() dedups cross-group duplicate copies and refills the
//    freed capacity with lazy_greedy. The repair pass closes the tiler's
//    approximation gap: per-tile greedy re-caches popular models on both
//    sides of a halo, and the pass evicts the copies whose *global*
//    marginal value is zero, then reallocates the freed bytes against the
//    global objective.
//
//  * Property probes used by the property-based test suite to validate
//    Proposition 1 (U is monotone submodular; every g_m is submodular) and
//    the supermodularity of the transformed objective U(Y) on concrete
//    instances: for random chains S ⊆ T and elements x ∉ T, check the
//    defining marginal inequalities.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "src/core/objective.h"
#include "src/core/placement.h"
#include "src/core/problem.h"
#include "src/core/storage.h"
#include "src/support/bitset.h"
#include "src/support/rng.h"

namespace trimcaching::core {

// ------------------------------------------------------------- lazy greedy

struct RefillConfig {
  /// Threads for the initial gain sweep (0 = hardware concurrency,
  /// 1 = serial). Bit-identical results for every value.
  std::size_t threads = 1;
  /// Marginal hit masses at or below this are treated as zero.
  double gain_tolerance = 1e-15;
};

struct RefillStats {
  std::size_t additions = 0;
  std::size_t gain_evaluations = 0;
};

/// Lazy-greedy (Minoux) maximization of U(X) restricted to `servers`:
/// repeatedly adds the (m ∈ servers, i) candidate with the largest marginal
/// hit mass under `coverage` that fits `storage` (parallel to `servers`,
/// reflecting what `placement` already caches there), until no
/// positive-gain candidate fits. Ties break on (gain, position, model).
/// Coverage only grows, so stale heap gains are upper bounds, re-evaluated
/// on demand. A candidate that does not fit is parked per server and
/// re-priced only once an addition to that server makes it fit (dedup
/// sharing can shrink its cost; a NaiveStorage cost never shrinks).
///
/// The initial heap build picks its sweep from its inputs:
///  * per candidate — coverage.marginal_mass of every unplaced (m, i), when
///    `placement` is empty or a CoverageState meets a compute-constrained
///    problem (only the charge walk prices that case);
///  * inverted — otherwise (the repair refill): the still-uncovered (k, i)
///    demand is collected once and tested against each server's flat link
///    row, skipping the already-covered bulk of the hit lists.
/// The sweep shards per server; the heap loop is serial. Placements and
/// work counters are bit-identical for every thread count. Instantiated for
/// (CountedCoverage, ServerStorage), (CoverageState, ServerStorage) and
/// (CoverageState, NaiveStorage).
template <typename Coverage, typename Storage>
[[nodiscard]] RefillStats lazy_greedy(const PlacementProblem& problem,
                                      Coverage& coverage, std::vector<Storage>& storage,
                                      const std::vector<ServerId>& servers,
                                      PlacementSolution& placement,
                                      const RefillConfig& config = {});

/// The `storage` argument of lazy_greedy: one Storage per entry of
/// `servers`, sized to its capacity and charged with the models `placement`
/// already caches there.
template <typename Storage>
[[nodiscard]] std::vector<Storage> server_storage(const PlacementProblem& problem,
                                                  const std::vector<ServerId>& servers,
                                                  const PlacementSolution& placement) {
  std::vector<Storage> storage;
  storage.reserve(servers.size());
  for (const ServerId m : servers) {
    Storage& server = storage.emplace_back(problem.library(), problem.capacity(m));
    for (const ModelId i : placement.models_on(m)) server.add(i);
  }
  return storage;
}

struct RepairPassConfig {
  /// Threads for the refill sweep (0 = hardware concurrency, 1 = serial);
  /// the eviction scan is inherently serial. Bit-identical for every value.
  std::size_t threads = 1;
  /// Max global hit mass a copy may lose on eviction and still count as a
  /// duplicate. The default keeps repair loss-free up to rounding. The
  /// refill's gain floor is max(gain_tolerance, eviction_tolerance), so an
  /// unbounded value would silently turn the pass into a no-op.
  double eviction_tolerance = 1e-12;
  /// Refill stops below this marginal mass (see RefillConfig).
  double gain_tolerance = 1e-15;

  /// Throws std::invalid_argument unless eviction_tolerance is finite and
  /// >= 0. `knob` names the tolerance in the caller's vocabulary (the
  /// registry's "tol", the tiler's "repair_tolerance") for the message.
  void validate(std::string_view knob = "eviction_tolerance") const;
};

struct RepairPassStats {
  std::size_t duplicates_evicted = 0;
  std::size_t models_added = 0;
  /// Marginal evaluations: removal-loss probes of the eviction scan plus the
  /// refill sweep's gain evaluations.
  std::size_t gain_evaluations = 0;
  /// U(X) (Eq. 2) of the repaired placement.
  double hit_ratio = 0.0;
};

/// Post-stitch coordination pass over `placement` (modified in place):
///
///  1. Duplicate detection — a copy (m, i) is a duplicate when model i is
///     also cached in another server *group* (for the tiler: another tile;
///     `server_group` maps each server to its group id, empty = every server
///     its own group), removing the copy loses at most eviction_tolerance of
///     global hit mass, and at least one user the copy serves is also served
///     by a holder in a different group — the cross-tile overlap that only
///     halos create. Groups make the pass a guaranteed no-op on
///     coverage-disjoint tilings: without cross-group overlap nothing is
///     evicted, and the placement is returned bit-equal.
///  2. Eviction — duplicates are removed in ascending (model, server) order
///     with the losses re-probed live, so mutually-shadowing copies never
///     over-evict. Deterministic and serial.
///  3. Refill — the freed capacity is swept with lazy_greedy restricted to
///     the servers that lost copies.
///
/// The repaired placement's Eq. 2 value never drops below the input's by
/// more than duplicates_evicted × eviction_tolerance (exactly never with a
/// zero tolerance); the refill only raises it. `placement` must be feasible
/// (Eq. 6b) and match the problem's dimensions; `config` is validated.
[[nodiscard]] RepairPassStats repair_placement(
    const PlacementProblem& problem, PlacementSolution& placement,
    const std::vector<std::size_t>& server_group,
    const RepairPassConfig& config = {});

// ------------------------------------------------------------- property probes

/// A set function over subsets of a ground set [0, n).
using SetFunction = std::function<double(const support::DynamicBitset&)>;

struct PropertyReport {
  std::size_t trials = 0;
  std::size_t violations = 0;

  [[nodiscard]] bool holds() const noexcept { return violations == 0; }
};

/// Checks f(S ∪ {x}) - f(S) ≥ f(T ∪ {x}) - f(T) for random S ⊆ T, x ∉ T.
[[nodiscard]] PropertyReport check_submodular(const SetFunction& f, std::size_t n,
                                              std::size_t trials, support::Rng& rng,
                                              double tolerance = 1e-9);

/// Checks the reversed inequality (supermodularity).
[[nodiscard]] PropertyReport check_supermodular(const SetFunction& f, std::size_t n,
                                                std::size_t trials, support::Rng& rng,
                                                double tolerance = 1e-9);

/// Checks f(T) ≥ f(S) for random S ⊆ T (monotonicity).
[[nodiscard]] PropertyReport check_monotone(const SetFunction& f, std::size_t n,
                                            std::size_t trials, support::Rng& rng,
                                            double tolerance = 1e-9);

}  // namespace trimcaching::core
