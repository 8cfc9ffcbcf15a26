#include "src/core/submodular.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace trimcaching::core {

namespace {

struct HeapEntry {
  double gain = 0.0;
  std::uint32_t position = 0;  ///< index into `servers`; 16-byte entries
  ModelId model = 0;

  bool operator<(const HeapEntry& other) const {
    // The heap is a max-heap on operator<; tie-break on
    // (position, model) so runs are deterministic whenever gains collide.
    if (gain != other.gain) return gain < other.gain;
    if (position != other.position) return position > other.position;
    return model > other.model;
  }
};

/// A still-uncovered (k, i) request with its latency budget.
struct UncoveredPair {
  UserId user;
  ModelId model;
  double mass;
  double bits;
  double budget_s;
};

template <typename Coverage>
std::vector<UncoveredPair> uncovered_demand(const PlacementProblem& problem,
                                            const Coverage& coverage) {
  std::vector<UncoveredPair> pairs;
  const workload::RequestModel& requests = problem.requests();
  for (UserId k = 0; k < problem.num_users(); ++k) {
    const UserId rk = problem.request_user(k);
    for (const workload::RequestCell& cell : requests.requested(rk)) {
      const ModelId i = cell.model;
      if (coverage.covered(k, i)) continue;
      const double budget = requests.deadline_s(rk, i) - requests.inference_s(rk, i);
      if (budget <= 0) continue;  // mirrors the hit-list construction
      pairs.push_back(UncoveredPair{k, i, cell.probability, problem.payload_bits(i), budget});
    }
  }
  return pairs;
}

}  // namespace

template <typename Coverage, typename Storage>
RefillStats lazy_greedy(const PlacementProblem& problem, Coverage& coverage,
                        std::vector<Storage>& storage,
                        const std::vector<ServerId>& servers,
                        PlacementSolution& placement, const RefillConfig& config) {
  if (storage.size() != servers.size()) {
    throw std::invalid_argument("lazy_greedy: storage/servers size mismatch");
  }
  RefillStats stats;
  const std::size_t num_models = problem.num_models();
  const double tolerance = config.gain_tolerance;

  // Initial gains, shard p writing only row p (the header says which sweep
  // runs when). The inverted sweep's latency arithmetic and ascending-k
  // accumulation order match the storage-only marginal_mass bit for bit.
  const bool per_candidate =
      placement.total_placements() == 0 ||
      (std::is_same_v<Coverage, CoverageState> && problem.compute_constrained());
  const std::vector<UncoveredPair> pairs =
      per_candidate ? std::vector<UncoveredPair>{} : uncovered_demand(problem, coverage);
  const double backhaul = problem.backhaul_bps();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> gains(servers.size() * num_models, 0.0);
  support::parallel_for(servers.size(), config.threads, [&](std::size_t p) {
    const ServerId m = servers[p];
    double* row = gains.data() + p * num_models;
    if (per_candidate) {
      for (ModelId i = 0; i < num_models; ++i) {
        if (!placement.placed(m, i)) row[i] = coverage.marginal_mass(m, i);
      }
      return;
    }
    const std::span<const double> inv_row = problem.inverse_effective_rates(m);
    const std::span<const char> assoc_row = problem.associations(m);
    for (const UncoveredPair& pair : pairs) {
      const double inv = inv_row[pair.user];
      if (inv == inf) continue;
      const double latency = assoc_row[pair.user] != 0
                                 ? pair.bits * inv
                                 : pair.bits / backhaul + pair.bits * inv;
      if (latency <= pair.budget_s) row[pair.model] += pair.mass;
    }
  });
  // Heap pushes in (position, model) order, so the tie-break order is
  // identical for every thread count. Unfit candidates are kept: their
  // stale gains stay valid upper bounds and the parking logic below decides
  // their fate at pop time.
  std::priority_queue<HeapEntry> heap;
  for (std::uint32_t p = 0; p < servers.size(); ++p) {
    for (ModelId i = 0; i < num_models; ++i) {
      if (placement.placed(servers[p], i)) continue;
      ++stats.gain_evaluations;
      const double gain = gains[p * num_models + i];
      if (gain > tolerance) heap.push(HeapEntry{gain, p, i});
    }
  }
  // Candidates that did not fit when they reached the top, per position.
  std::vector<std::vector<ModelId>> parked(servers.size());

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const ServerId m = servers[top.position];
    if (placement.placed(m, top.model)) continue;
    const double fresh = coverage.marginal_mass(m, top.model);
    ++stats.gain_evaluations;
    if (fresh <= tolerance) continue;
    const double next_best = heap.empty() ? 0.0 : heap.top().gain;
    if (fresh + tolerance < next_best) {
      heap.push(HeapEntry{fresh, top.position, top.model});
      continue;
    }
    Storage& server = storage[top.position];
    if (!server.fits(top.model)) {
      parked[top.position].push_back(top.model);
      continue;
    }
    server.add(top.model);
    coverage.add(m, top.model);
    placement.place(m, top.model);
    ++stats.additions;
    // Re-price the parked models this addition made affordable; the rest
    // stay parked until the server's content changes again.
    std::erase_if(parked[top.position], [&](ModelId i) {
      if (placement.placed(m, i)) return true;
      if (!server.fits(i)) return false;
      const double gain = coverage.marginal_mass(m, i);
      ++stats.gain_evaluations;
      if (gain > tolerance) heap.push(HeapEntry{gain, top.position, i});
      return true;
    });
  }
  return stats;
}

template RefillStats lazy_greedy(const PlacementProblem&, CountedCoverage&,
                                 std::vector<ServerStorage>&, const std::vector<ServerId>&,
                                 PlacementSolution&, const RefillConfig&);
template RefillStats lazy_greedy(const PlacementProblem&, CoverageState&,
                                 std::vector<ServerStorage>&, const std::vector<ServerId>&,
                                 PlacementSolution&, const RefillConfig&);
template RefillStats lazy_greedy(const PlacementProblem&, CoverageState&,
                                 std::vector<NaiveStorage>&, const std::vector<ServerId>&,
                                 PlacementSolution&, const RefillConfig&);

void RepairPassConfig::validate(std::string_view knob) const {
  if (!std::isfinite(eviction_tolerance) || eviction_tolerance < 0) {
    throw std::invalid_argument(std::string(knob) + " must be finite and >= 0, got " +
                                std::to_string(eviction_tolerance));
  }
}

RepairPassStats repair_placement(const PlacementProblem& problem,
                                 PlacementSolution& placement,
                                 const std::vector<std::size_t>& server_group,
                                 const RepairPassConfig& config) {
  const std::size_t num_servers = problem.num_servers();
  const std::size_t num_models = problem.num_models();
  if (placement.num_servers() != num_servers ||
      placement.num_models() != num_models) {
    throw std::invalid_argument("repair_placement: dimension mismatch");
  }
  config.validate();
  std::vector<std::size_t> group(num_servers);
  if (server_group.empty()) {
    std::iota(group.begin(), group.end(), std::size_t{0});
  } else if (server_group.size() == num_servers) {
    group = server_group;
  } else {
    throw std::invalid_argument("repair_placement: server_group size mismatch");
  }

  RepairPassStats stats;
  CountedCoverage coverage(problem);
  coverage.add_placement(placement);

  // Joint-constraint re-check, pass level: the eviction scan and refill
  // reason with compute-oblivious counted coverage, so under a compute
  // constraint the whole pass is guarded — if the canonical joint hit mass
  // ends up below the input placement's, the pass is reverted wholesale
  // (repair must never worsen the objective it is scored on).
  const bool joint = problem.compute_constrained();
  std::optional<PlacementSolution> before;
  double before_mass = 0.0;
  if (joint) {
    before = placement;
    before_mass = evaluate_joint(problem, placement).hit_mass;
  }

  // Eviction scan, ascending (model, server). Losses are probed against the
  // live counts: evicting a copy can only *raise* the remaining copies'
  // losses, so re-probing at processing time never over-evicts — of two
  // mutually-shadowing copies the first (lower server id) goes, the second
  // becomes critical and stays.
  std::vector<char> freed_flag(num_servers, 0);
  for (ModelId i = 0; i < num_models; ++i) {
    std::vector<ServerId> holders = placement.holders_of(i);
    if (holders.size() < 2) continue;
    std::sort(holders.begin(), holders.end());
    for (const ServerId m : holders) {
      ++stats.gain_evaluations;
      if (coverage.removal_loss(m, i) > config.eviction_tolerance) continue;
      // Cross-group overlap: some user this copy serves must also be served
      // by a *current* holder in a different group. Coverage-disjoint
      // groupings never satisfy this, which makes the pass a no-op there.
      bool cross_group = false;
      for (const HitEntry& entry : problem.hit_list(m, i)) {
        for (const ServerId other : placement.holders_of(i)) {
          if (other == m || group[other] == group[m]) continue;
          if (problem.eligible(other, entry.user, i)) {
            cross_group = true;
            break;
          }
        }
        if (cross_group) break;
      }
      if (!cross_group) continue;
      coverage.remove(m, i);
      placement.remove(m, i);
      freed_flag[m] = 1;
      ++stats.duplicates_evicted;
    }
  }

  // Refill the freed capacity: lazy greedy over the global problem,
  // restricted to the servers that lost copies.
  std::vector<ServerId> freed;
  for (ServerId m = 0; m < num_servers; ++m) {
    if (freed_flag[m]) freed.push_back(m);
  }
  if (!freed.empty()) {
    std::vector<ServerStorage> storage =
        server_storage<ServerStorage>(problem, freed, placement);
    // The refill's gain floor is clamped to the eviction tolerance: a copy
    // evicted at loss ≤ eviction_tolerance re-appears as a candidate with
    // exactly that gain, and re-adding it would churn the eviction into a
    // net no-op (worse, with a raised tolerance the churn band would cover
    // real hit mass).
    const RefillStats refill = lazy_greedy(
        problem, coverage, storage, freed, placement,
        RefillConfig{config.threads,
                     std::max(config.gain_tolerance, config.eviction_tolerance)});
    stats.models_added = refill.additions;
    stats.gain_evaluations += refill.gain_evaluations;
  }
  if (joint) {
    const double after_mass = evaluate_joint(problem, placement).hit_mass;
    double final_mass = after_mass;
    if (after_mass < before_mass) {
      placement = std::move(*before);
      final_mass = before_mass;
      stats.duplicates_evicted = 0;
      stats.models_added = 0;
    }
    const double total = problem.total_mass();
    stats.hit_ratio = total > 0 ? final_mass / total : 0.0;
    return stats;
  }
  stats.hit_ratio = coverage.hit_ratio();
  return stats;
}

namespace {

using support::DynamicBitset;
using support::Rng;

struct Chain {
  DynamicBitset small;
  DynamicBitset large;
  std::size_t extra = 0;  ///< element outside `large`
  bool valid = false;
};

/// Samples S ⊆ T ⊆ [0,n) and x ∉ T (requires n ≥ 1; retries until x exists).
Chain sample_chain(std::size_t n, Rng& rng) {
  Chain chain{DynamicBitset(n), DynamicBitset(n), 0, false};
  std::size_t outside_count = 0;
  for (std::size_t e = 0; e < n; ++e) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 1.0 / 3.0) {
      chain.small.set(e);
      chain.large.set(e);
    } else if (roll < 2.0 / 3.0) {
      chain.large.set(e);
    } else {
      ++outside_count;
    }
  }
  if (outside_count == 0) return chain;
  std::size_t pick = rng.index(outside_count);
  for (std::size_t e = 0; e < n; ++e) {
    if (!chain.large.test(e)) {
      if (pick == 0) {
        chain.extra = e;
        chain.valid = true;
        break;
      }
      --pick;
    }
  }
  return chain;
}

PropertyReport check_marginals(const SetFunction& f, std::size_t n, std::size_t trials,
                               Rng& rng, double tolerance, bool submodular) {
  if (n == 0) throw std::invalid_argument("property check: empty ground set");
  PropertyReport report;
  for (std::size_t t = 0; t < trials; ++t) {
    const Chain chain = sample_chain(n, rng);
    if (!chain.valid) continue;
    ++report.trials;
    DynamicBitset small_plus = chain.small;
    small_plus.set(chain.extra);
    DynamicBitset large_plus = chain.large;
    large_plus.set(chain.extra);
    const double small_marginal = f(small_plus) - f(chain.small);
    const double large_marginal = f(large_plus) - f(chain.large);
    const bool ok = submodular ? small_marginal >= large_marginal - tolerance
                               : large_marginal >= small_marginal - tolerance;
    if (!ok) ++report.violations;
  }
  return report;
}

}  // namespace

PropertyReport check_submodular(const SetFunction& f, std::size_t n, std::size_t trials,
                                Rng& rng, double tolerance) {
  return check_marginals(f, n, trials, rng, tolerance, /*submodular=*/true);
}

PropertyReport check_supermodular(const SetFunction& f, std::size_t n,
                                  std::size_t trials, Rng& rng, double tolerance) {
  return check_marginals(f, n, trials, rng, tolerance, /*submodular=*/false);
}

PropertyReport check_monotone(const SetFunction& f, std::size_t n, std::size_t trials,
                              Rng& rng, double tolerance) {
  if (n == 0) throw std::invalid_argument("property check: empty ground set");
  PropertyReport report;
  for (std::size_t t = 0; t < trials; ++t) {
    const Chain chain = sample_chain(n, rng);
    ++report.trials;
    if (f(chain.large) < f(chain.small) - tolerance) ++report.violations;
  }
  return report;
}

}  // namespace trimcaching::core
