#include "src/core/dp_rounding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/support/bitset.h"
#include "src/support/parallel.h"

namespace trimcaching::core {

namespace {

using model::ModelLibrary;
using support::Bytes;
using support::DynamicBitset;

constexpr Bytes kInfWeight = std::numeric_limits<Bytes>::max();

/// Resolution of the joint mode's compute axis: the DP table is
/// (weight_states + 1) x (kComputeStates + 1) per traversal level.
constexpr std::size_t kComputeStates = 64;

struct Candidate {
  ModelId id = 0;
  double utility = 0.0;
  Bytes specific_size = 0;       ///< D_N(i) (Eq. 13): size outside shared blocks
  std::uint64_t rounded = 0;     ///< u̇ (profit mode)
  std::size_t quantized = 0;     ///< quantized specific size (weight mode)
  std::size_t compute_q = 0;     ///< quantized compute load (joint mode)
};

// ---------------------------------------------------------------------------
// Inner 0/1 knapsacks, one type per mode. Each writes its recurrence once, in
// add(); the traversal scores leaves with it and the winning leaf is
// reconstructed by replaying its members through fresh() (see solve_leaves()).
// Shared shape:
//   table         flat DP states (states no add() reached hold kUnset)
//   add(c)        fold one candidate in
//   score(b)      leaf score within shared-free budget b (comparable in-mode)
//   start(b)      flat state the traceback starts from
//   step(c)       flat offset a kept candidate moves the traceback by
//   fresh(b)      empty DP for replaying a leaf with budget b
// ---------------------------------------------------------------------------

/// Minimum number of DP states before an add() shards the state axis over
/// the thread pool; below this the snapshot copy costs more than it saves.
constexpr std::uint64_t kParallelFillStates = 1u << 16;

/// Profit-indexed (the paper's Eq. 16): table[w] = min weight to reach
/// rounded profit exactly w.
struct ProfitDp {
  static constexpr Bytes kUnset = kInfWeight;
  std::vector<Bytes> table{0};  // table[0] = 0
  std::uint64_t reach = 0;
  std::size_t max_states = 0;
  std::size_t threads = 1;

  ProfitDp(std::size_t max_profit_states, std::size_t fill_threads)
      : max_states(max_profit_states), threads(fill_threads) {}

  void add(const Candidate& it) {
    if (it.rounded == 0) return;
    reach += it.rounded;
    if (reach + 1 > max_states) {
      throw std::runtime_error("ProfitDp: profit state space exceeds configured limit");
    }
    table.resize(reach + 1, kUnset);
    const std::uint64_t span = reach - it.rounded + 1;
    if (threads != 1 && span >= kParallelFillStates &&
        !support::inside_parallel_region()) {
      // Sharded fill against a snapshot of the previous row: the serial
      // descending loop also reads only pre-update values, so each state is
      // independent and the integer min is bit-identical at any shard count.
      const std::vector<Bytes> prev = table;
      const std::size_t shards = support::resolve_threads(threads);
      support::parallel_for(shards, shards, [&](std::size_t s) {
        const std::uint64_t lo = it.rounded + span * s / shards;
        const std::uint64_t hi = it.rounded + span * (s + 1) / shards;
        for (std::uint64_t w = lo; w < hi; ++w) {
          const Bytes base = prev[w - it.rounded];
          if (base != kInfWeight) {
            table[w] = std::min(prev[w], base + it.specific_size);
          }
        }
      });
      return;
    }
    for (std::uint64_t w = reach; w >= it.rounded; --w) {
      const Bytes base = table[w - it.rounded];
      if (base != kInfWeight) {
        table[w] = std::min(table[w], base + it.specific_size);
      }
      if (w == it.rounded) break;
    }
  }

  /// Largest rounded profit achievable within `budget`.
  [[nodiscard]] std::size_t start(Bytes budget) const {
    for (std::uint64_t w = reach;; --w) {
      if (table[w] <= budget) return w;
      if (w == 0) return 0;
    }
  }
  [[nodiscard]] double score(Bytes budget) const {
    return static_cast<double>(start(budget));
  }
  [[nodiscard]] static std::size_t step(const Candidate& it) { return it.rounded; }
  [[nodiscard]] ProfitDp fresh(Bytes /*budget*/) const {
    return ProfitDp(max_states, threads);
  }
};

/// Weight-indexed: table[w] = max utility with quantized weight ≤ w.
struct WeightDp {
  static constexpr double kUnset = 0.0;
  std::vector<double> table;
  Bytes quantum = 1;
  std::size_t threads = 1;

  WeightDp(std::size_t states, Bytes weight_quantum, std::size_t fill_threads)
      : table(states + 1, kUnset), quantum(weight_quantum), threads(fill_threads) {}

  void add(const Candidate& it) {
    const std::size_t wq = it.quantized;
    if (wq >= table.size()) return;  // never fits
    const std::size_t span = table.size() - wq;
    if (threads != 1 && span >= kParallelFillStates &&
        !support::inside_parallel_region()) {
      // Same snapshot sharding as ProfitDp: per-state max over pre-update
      // values only, so any shard count produces identical bits.
      const std::vector<double> prev = table;
      const std::size_t shards = support::resolve_threads(threads);
      support::parallel_for(shards, shards, [&](std::size_t s) {
        const std::size_t lo = wq + span * s / shards;
        const std::size_t hi = wq + span * (s + 1) / shards;
        for (std::size_t w = lo; w < hi; ++w) {
          table[w] = std::max(prev[w], prev[w - wq] + it.utility);
        }
      });
      return;
    }
    for (std::size_t w = table.size() - 1; w >= wq; --w) {
      table[w] = std::max(table[w], table[w - wq] + it.utility);
      if (w == wq) break;
    }
  }

  [[nodiscard]] std::size_t start(Bytes budget) const {
    return std::min(static_cast<std::size_t>(budget / quantum), table.size() - 1);
  }
  [[nodiscard]] double score(Bytes budget) const { return table[start(budget)]; }
  [[nodiscard]] static std::size_t step(const Candidate& it) { return it.quantized; }
  [[nodiscard]] WeightDp fresh(Bytes budget) const {
    return WeightDp(static_cast<std::size_t>(budget / quantum), quantum, threads);
  }
};

/// Joint (storage x compute) weight-indexed DP: cell (s, c) holds the best
/// utility over selections with quantized storage ≤ s and quantized compute
/// ≤ c, flattened as s·(kComputeStates+1) + c. The traversal's storage budget
/// varies with the shared-combination size; the compute budget is the whole
/// server budget at every leaf, so start() reads the last compute column.
/// Ceil quantization on both axes keeps every pick feasible. Serial fill
/// only — the 2D add is already O(S·C) per item and the joint path runs at
/// test scales.
struct JointDp {
  static constexpr double kUnset = 0.0;
  static constexpr std::size_t kStride = kComputeStates + 1;
  std::size_t storage_states;
  Bytes quantum = 1;
  std::vector<double> table;

  JointDp(std::size_t s_states, Bytes weight_quantum)
      : storage_states(s_states),
        quantum(weight_quantum),
        table((s_states + 1) * kStride, kUnset) {}

  void add(const Candidate& it) {
    const std::size_t wq = it.quantized;
    const std::size_t cq = it.compute_q;
    if (wq > storage_states || cq > kComputeStates) return;  // never fits
    for (std::size_t s = storage_states; s >= wq; --s) {
      for (std::size_t c = kComputeStates; c >= cq; --c) {
        const double candidate_value =
            table[(s - wq) * kStride + (c - cq)] + it.utility;
        if (candidate_value > table[s * kStride + c]) {
          table[s * kStride + c] = candidate_value;
        }
        if (c == cq) break;
      }
      if (s == wq) break;
    }
  }

  [[nodiscard]] std::size_t start(Bytes budget) const {
    const std::size_t s =
        std::min(static_cast<std::size_t>(budget / quantum), storage_states);
    return s * kStride + kComputeStates;
  }
  [[nodiscard]] double score(Bytes budget) const { return table[start(budget)]; }
  [[nodiscard]] static std::size_t step(const Candidate& it) {
    return it.quantized * kStride + it.compute_q;
  }
  [[nodiscard]] JointDp fresh(Bytes budget) const {
    return JointDp(static_cast<std::size_t>(budget / quantum), quantum);
  }
};

// ---------------------------------------------------------------------------
// Sharing-group decomposition of the candidate set.
// ---------------------------------------------------------------------------

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// One sharing group whose distinct shared parts form an inclusion chain.
/// Level t (1-based) corresponds to the t-th smallest part; cum_size[t] is
/// d_N of that part; models_at_level[t] are candidates whose part equals it.
struct Chain {
  std::vector<Bytes> cum_size;                       // index 0 unused (=0)
  std::vector<std::vector<std::size_t>> at_level;    // candidate indices
};

struct Decomposition {
  bool is_chain = true;
  std::vector<std::size_t> base;  ///< candidates with empty shared part
  std::vector<Chain> chains;
  // Fallback data (non-chain): distinct parts and the closure.
  std::vector<DynamicBitset> closure;
};

Decomposition decompose(const ModelLibrary& library,
                        const std::vector<Candidate>& candidates,
                        std::size_t max_combinations) {
  Decomposition out;
  const std::size_t beta = library.shared_blocks().size();
  UnionFind uf(beta);
  for (const auto& cand : candidates) {
    const DynamicBitset& part = library.shared_part(cand.id);
    std::size_t first = beta;
    part.for_each([&](std::size_t t) {
      if (first == beta) {
        first = t;
      } else {
        uf.unite(first, t);
      }
    });
  }
  // Group candidates by component (or base if no shared blocks).
  std::unordered_map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const DynamicBitset& part = library.shared_part(candidates[c].id);
    std::size_t first = beta;
    part.for_each([&](std::size_t t) {
      if (first == beta) first = t;
    });
    if (first == beta) {
      out.base.push_back(c);
    } else {
      groups[uf.find(first)].push_back(c);
    }
  }
  // Per group: distinct parts, chain check.
  for (auto& [root, members] : groups) {
    (void)root;
    std::unordered_map<DynamicBitset, std::vector<std::size_t>,
                       support::DynamicBitsetHash>
        by_part;
    for (const std::size_t c : members) {
      by_part[library.shared_part(candidates[c].id)].push_back(c);
    }
    std::vector<const DynamicBitset*> parts;
    parts.reserve(by_part.size());
    for (const auto& [part, cs] : by_part) {
      (void)cs;
      parts.push_back(&part);
    }
    std::sort(parts.begin(), parts.end(),
              [](const DynamicBitset* a, const DynamicBitset* b) {
                return a->count() < b->count();
              });
    bool chain_ok = true;
    for (std::size_t t = 1; t < parts.size(); ++t) {
      if (!parts[t - 1]->is_subset_of(*parts[t])) {
        chain_ok = false;
        break;
      }
    }
    if (!chain_ok) {
      out.is_chain = false;
      break;
    }
    Chain chain;
    chain.cum_size.push_back(0);
    chain.at_level.emplace_back();  // level 0: empty
    for (const DynamicBitset* part : parts) {
      chain.cum_size.push_back(library.combination_size(*part));
      chain.at_level.push_back(by_part[*part]);
    }
    out.chains.push_back(std::move(chain));
  }

  if (out.is_chain) {
    // Leaf-count guard: ∏ (levels per chain).
    double leaves = 1.0;
    for (const auto& chain : out.chains) {
      leaves *= static_cast<double>(chain.cum_size.size());
      if (leaves > static_cast<double>(max_combinations)) {
        throw std::runtime_error(
            "solve_server_subproblem: combination space exceeds max_combinations "
            "(general-case blow-up; use trimcaching_gen)");
      }
    }
    return out;
  }

  // Generic fallback: union-closure of the candidates' distinct parts.
  out.chains.clear();
  std::unordered_set<DynamicBitset, support::DynamicBitsetHash> distinct;
  for (const auto& cand : candidates) {
    const DynamicBitset& part = library.shared_part(cand.id);
    if (part.any()) distinct.insert(part);
  }
  std::unordered_set<DynamicBitset, support::DynamicBitsetHash> closure;
  std::vector<DynamicBitset> order;
  DynamicBitset empty(beta);
  closure.insert(empty);
  order.push_back(std::move(empty));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const DynamicBitset current = order[head];
    for (const auto& g : distinct) {
      DynamicBitset next = current;
      next |= g;
      if (closure.insert(next).second) {
        if (closure.size() > max_combinations) {
          throw std::runtime_error(
              "solve_server_subproblem: closure exceeds max_combinations "
              "(general-case blow-up; use trimcaching_gen)");
        }
        order.push_back(std::move(next));
      }
    }
  }
  out.closure = std::move(order);
  return out;
}

// ---------------------------------------------------------------------------
// Leaf search (chain traversal or closure fallback) and winner replay.
// ---------------------------------------------------------------------------

struct BestLeaf {
  bool valid = false;
  double score = 0.0;             // comparable across leaves (mode-specific)
  std::vector<std::size_t> levels;
  Bytes shared_size = 0;
};

template <typename Dp>
void traverse(const std::vector<Chain>& chains, const std::vector<Candidate>& candidates,
              std::size_t f, const Dp& dp, Bytes used_shared, Bytes capacity,
              std::vector<std::size_t>& levels, std::size_t& visited, BestLeaf& best) {
  if (f == chains.size()) {
    ++visited;
    const double score = dp.score(capacity - used_shared);
    if (!best.valid || score > best.score) {
      best.valid = true;
      best.score = score;
      best.levels = levels;
      best.shared_size = used_shared;
    }
    return;
  }
  const Chain& chain = chains[f];
  levels[f] = 0;
  traverse(chains, candidates, f + 1, dp, used_shared, capacity, levels, visited, best);
  Dp local = dp;
  for (std::size_t t = 1; t < chain.cum_size.size(); ++t) {
    if (used_shared + chain.cum_size[t] > capacity) break;  // cum sizes increase
    for (const std::size_t c : chain.at_level[t]) local.add(candidates[c]);
    levels[f] = t;
    traverse(chains, candidates, f + 1, local, used_shared + chain.cum_size[t],
             capacity, levels, visited, best);
  }
  levels[f] = 0;
}

/// Finds the best leaf with `empty` as every leaf's starting DP, then
/// reconstructs its picks by replaying the leaf's members, in the order the
/// search added them, through a fresh DP. add() only ever lowers (profit) or
/// raises (weight, joint) a state, so a state changed under member e exactly
/// when taking e is optimal there — the keep bit of a classic traceback.
template <typename Dp>
void solve_leaves(const ModelLibrary& library, const std::vector<Candidate>& candidates,
                  const Decomposition& decomposition, const Dp& empty, Bytes capacity,
                  ServerSubproblemResult& result) {
  BestLeaf best;
  std::size_t visited = 0;
  std::vector<std::size_t> members;  // candidate indices of the winning leaf
  if (decomposition.closure.empty()) {
    // Chain path: incremental DP along each chain.
    result.used_chain_path = true;
    std::vector<std::size_t> levels(decomposition.chains.size(), 0);
    Dp dp = empty;
    for (const std::size_t c : decomposition.base) dp.add(candidates[c]);
    traverse(decomposition.chains, candidates, 0, dp, Bytes{0}, capacity, levels,
             visited, best);
    if (best.valid) {
      members = decomposition.base;
      for (std::size_t f = 0; f < decomposition.chains.size(); ++f) {
        const Chain& chain = decomposition.chains[f];
        for (std::size_t t = 1; t <= best.levels[f]; ++t) {
          members.insert(members.end(), chain.at_level[t].begin(),
                         chain.at_level[t].end());
        }
      }
    }
  } else {
    // Generic fallback: per-combination knapsack from scratch.
    for (const DynamicBitset& combo : decomposition.closure) {
      const Bytes shared_size = library.combination_size(combo);
      if (shared_size > capacity) continue;
      ++visited;
      std::vector<std::size_t> covered = decomposition.base;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const DynamicBitset& part = library.shared_part(candidates[c].id);
        if (part.any() && part.is_subset_of(combo)) covered.push_back(c);
      }
      Dp dp = empty;
      for (const std::size_t c : covered) dp.add(candidates[c]);
      const double score = dp.score(capacity - shared_size);
      if (!best.valid || score > best.score) {
        best.valid = true;
        best.score = score;
        best.shared_size = shared_size;
        members = std::move(covered);
      }
    }
  }

  result.combinations_visited = visited;
  if (!best.valid || best.score <= 0.0) return;

  const Bytes budget = capacity - best.shared_size;
  Dp dp = empty.fresh(budget);
  std::vector<std::vector<char>> changed(members.size());
  decltype(dp.table) before;
  for (std::size_t e = 0; e < members.size(); ++e) {
    before = dp.table;
    dp.add(candidates[members[e]]);
    before.resize(dp.table.size(), Dp::kUnset);
    changed[e].resize(dp.table.size());
    for (std::size_t w = 0; w < dp.table.size(); ++w) {
      changed[e][w] = dp.table[w] != before[w];
    }
  }
  std::size_t state = dp.start(budget);
  for (std::size_t e = members.size(); e-- > 0;) {
    if (state < changed[e].size() && changed[e][state]) {
      const Candidate& it = candidates[members[e]];
      result.value += it.utility;
      result.models.push_back(it.id);
      state -= Dp::step(it);
    }
  }
  std::sort(result.models.begin(), result.models.end());
}

}  // namespace

ServerSubproblemResult solve_server_subproblem(const ModelLibrary& library,
                                               const std::vector<double>& utilities,
                                               Bytes capacity,
                                               const SpecSolverConfig& config,
                                               const std::vector<double>* compute_loads,
                                               double compute_budget) {
  if (!library.finalized()) {
    throw std::invalid_argument("solve_server_subproblem: library must be finalized");
  }
  if (utilities.size() != library.num_models()) {
    throw std::invalid_argument("solve_server_subproblem: utilities size mismatch");
  }
  if (!(config.epsilon >= 0.0 && config.epsilon <= 1.0)) {
    throw std::invalid_argument(
        "solve_server_subproblem: eps (epsilon) must be in [0, 1]");
  }
  // Every mode derives the storage quantum from weight_states (the joint
  // mode's storage axis), so 0 would divide by zero even in profit mode.
  if (config.weight_states == 0) {
    throw std::invalid_argument(
        "solve_server_subproblem: weight_states (states) must be > 0");
  }
  const bool joint = compute_loads != nullptr &&
                     compute_budget != std::numeric_limits<double>::infinity();
  if (joint) {
    if (compute_loads->size() != library.num_models()) {
      throw std::invalid_argument(
          "solve_server_subproblem: compute_loads size mismatch");
    }
    if (std::isnan(compute_budget) || compute_budget < 0) {
      throw std::invalid_argument(
          "solve_server_subproblem: compute_budget must be >= 0");
    }
  }

  ServerSubproblemResult result;

  // Candidate set: only models with positive utility can improve the
  // objective; everything else would waste capacity.
  std::vector<Candidate> candidates;
  double min_utility = std::numeric_limits<double>::infinity();
  for (ModelId i = 0; i < library.num_models(); ++i) {
    const double u = utilities[i];
    if (!(u >= 0.0) || std::isinf(u)) {
      throw std::invalid_argument(
          "solve_server_subproblem: utility must be finite and >= 0");
    }
    if (u <= 0.0) continue;
    Candidate cand;
    cand.id = i;
    cand.utility = u;
    cand.specific_size = library.specific_size(i);
    candidates.push_back(cand);
    min_utility = std::min(min_utility, u);
  }
  if (candidates.empty()) return result;

  // Rounding / quantization. The paper's "ε = 0" means exact profits; we
  // realize it as a very fine rounding (Proposition 4's loss becomes
  // negligible at 1e-5).
  const double eps = config.epsilon == 0.0 ? 1e-5 : config.epsilon;
  const Bytes quantum =
      std::max<Bytes>(1, (capacity + config.weight_states - 1) / config.weight_states);
  const double compute_quantum =
      joint && compute_budget > 0
          ? compute_budget / static_cast<double>(kComputeStates)
          : 1.0;
  for (auto& cand : candidates) {
    cand.rounded =
        static_cast<std::uint64_t>(std::floor(cand.utility / (eps * min_utility)));
    cand.quantized = static_cast<std::size_t>((cand.specific_size + quantum - 1) / quantum);
    if (joint) {
      const double load = (*compute_loads)[cand.id];
      if (load < 0) {
        throw std::invalid_argument("solve_server_subproblem: negative compute load");
      }
      if (load <= 0) {
        cand.compute_q = 0;
      } else if (compute_budget <= 0) {
        cand.compute_q = kComputeStates + 1;  // never fits
      } else {
        // Ceil quantization, clamped to the full budget: a model whose lone
        // optimistic load overshoots may still serve a feasible subset of
        // its users, so it stays placeable (consuming the whole budget).
        cand.compute_q = std::min<std::size_t>(
            kComputeStates,
            static_cast<std::size_t>(std::ceil(load / compute_quantum)));
      }
    }
  }
  if (!joint && config.mode == DpMode::kProfitRounding) {
    std::uint64_t total = 0;
    for (const auto& cand : candidates) total += cand.rounded;
    if (total + 1 > config.max_profit_states) {
      throw std::runtime_error(
          "solve_server_subproblem: profit state space exceeds max_profit_states; "
          "increase epsilon or use kWeightQuantized");
    }
  }

  const Decomposition decomposition =
      decompose(library, candidates, config.max_combinations);
  if (joint) {
    solve_leaves(library, candidates, decomposition,
                 JointDp(config.weight_states, quantum), capacity, result);
  } else if (config.mode == DpMode::kProfitRounding) {
    solve_leaves(library, candidates, decomposition,
                 ProfitDp(config.max_profit_states, config.threads), capacity, result);
  } else {
    solve_leaves(library, candidates, decomposition,
                 WeightDp(config.weight_states, quantum, config.threads), capacity,
                 result);
  }
  return result;
}

}  // namespace trimcaching::core
