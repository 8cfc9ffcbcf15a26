// The cache-hit-ratio maximization instance P1.1 (Eq. 6).
//
// A PlacementProblem snapshots everything the algorithms consume:
//   * the service-eligibility indicator I1(m,k,i) (Eq. 3) — whether edge
//     server m can deliver model i to user k within T̄_{k,i}, including the
//     relayed path through an associated server (Eqs. 4–5), computed from
//     *average* channel rates (the paper's "snapshot" decision stage).
//     Eligibility is evaluated from one precomputed inverse effective rate
//     per (m, k) link (the payload only scales it), so construction is
//     O(M·K + hit-list entries) instead of one latency model walk per
//     (m, k, i) cell;
//   * per-(m,i) hit lists: the users (with request mass) that placement
//     x_{m,i} = 1 can newly serve — the data structure behind every
//     marginal-gain computation;
//   * the storage side: library block structure and server capacities.
//
// Hit-list storage is factored. A server reaches a user it is not
// associated with over the backhaul plus that user's best covering link
// (Eqs. 4–5), and that relay path depends only on (k, i), not on which
// server holds the model. So the problem keeps two tables, each one offsets
// array into one flat entry array: direct entries per (m, i), over the
// users associated with m that pass the direct test, and one relay list per
// model i, over the users that pass the relay test and have at least one
// non-associated view server. hit_list(m, i) is the ascending-user merge of
// direct(m, i) with relay(i), skipping relay users associated with m —
// exactly the (user, mass) sequence a per-server list would hold, so every
// sum over it keeps its order. Storage is O(direct + distinct relay pairs)
// instead of O(M · relay pairs).
//
// Sub-views (the tiling engine, sim/tiler.h): the second constructor
// restricts the instance to explicit server/user subsets while *sharing* the
// topology / library / requests storage — nothing is copied or re-sampled.
// All PlacementProblem indices (ServerId / UserId) are then view-local;
// global_server() / global_user() translate back. The model axis is never
// restricted: every view sees the full library. Algorithms are oblivious to
// views — they only consume local dimensions, hit lists and capacities.
// With factored lists a view costs little beyond its M × K link arrays, so
// the distributed-tile coordinator serializes ordinary sub-views.
//
// The problem borrows (does not own) library / requests; keep them alive
// for the problem's lifetime (sim::Scenario does). The topology is read
// only during construction.
//
// Owning instances (the distributed tile path, io/tile_codec.h): the third
// constructor rebuilds a problem from a self-contained OwnedProblemData
// bundle — a tile-local library / request model / capacities plus the
// precomputed per-(m, k) link arrays — with *no* topology behind it. That is
// what a worker process deserializes: the link arrays already encode the
// global association and best-relay rates, so the rebuilt hit lists (and
// hence every solver decision) are bit-identical to the borrowed sub-view
// the coordinator serialized. request_user() is the one indexing seam: the
// owned request model is tile-local (row k belongs to local user k), while
// borrowed views index the shared global model via global_user().
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/model/model_library.h"
#include "src/support/ids.h"
#include "src/support/units.h"
#include "src/wireless/topology.h"
#include "src/workload/request_model.h"

namespace trimcaching::core {

struct HitEntry {
  UserId user = 0;  ///< view-local user id
  double mass = 0.0;  ///< p_{k,i}
};

/// The users placement x_{m,i} = 1 can serve, in ascending user order: a
/// forward range merging server m's direct entries for model i with model
/// i's shared relay entries, skipping relay users associated with m. The two
/// inputs are disjoint (direct users are associated with m), so the merge is
/// exactly one entry per servable user. Yields HitEntry by value.
///
/// Both inputs end in a sentinel entry whose user is kInvalidId, which sorts
/// after every real user: the merge compares the two heads without bounds
/// checks, and the range ends when both heads are sentinels.
class HitRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = HitEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = HitEntry;

    iterator() = default;
    iterator(const HitEntry* direct, const HitEntry* relay, const char* assoc)
        : direct_(direct), relay_(relay), assoc_(assoc) {
      skip_associated();
    }

    HitEntry operator*() const {
      return direct_->user < relay_->user ? *direct_ : *relay_;
    }
    iterator& operator++() {
      if (direct_->user < relay_->user) {
        ++direct_;
      } else {
        ++relay_;
        skip_associated();
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return direct_ == other.direct_ && relay_ == other.relay_;
    }
    bool operator==(std::default_sentinel_t) const {
      return std::min(direct_->user, relay_->user) == kInvalidId;
    }

   private:
    void skip_associated() {
      while (relay_->user != kInvalidId && assoc_[relay_->user]) ++relay_;
    }

    const HitEntry* direct_ = nullptr;
    const HitEntry* relay_ = nullptr;
    const char* assoc_ = nullptr;  // associations(m), indexed by user
  };

  /// `direct` and `relay` point at sentinel-terminated entry runs.
  HitRange(const HitEntry* direct, const HitEntry* relay, const char* assoc)
      : direct_(direct), relay_(relay), assoc_(assoc) {}

  [[nodiscard]] iterator begin() const { return {direct_, relay_, assoc_}; }
  [[nodiscard]] std::default_sentinel_t end() const { return {}; }
  [[nodiscard]] bool empty() const { return begin() == end(); }

 private:
  const HitEntry* direct_;
  const HitEntry* relay_;
  const char* assoc_;
};

/// Everything an owning PlacementProblem needs, with no topology behind it.
/// Produced by io::parse_tile_view from the binary tile format; the library
/// and request model are tile-local copies, the link arrays are the exact
/// per-(m, k) values the coordinator's borrowed sub-view computed from the
/// global topology (so relays through out-of-view servers stay priced in).
struct OwnedProblemData {
  model::ModelLibrary library;          ///< finalized
  workload::RequestModel requests;      ///< tile-local: row k = local user k
  std::vector<ServerId> server_ids;     ///< local -> global, strictly increasing
  std::vector<UserId> user_ids;         ///< local -> global, strictly increasing
  std::vector<support::Bytes> capacities;  ///< per local server
  /// Per-local-server inference compute capacities; empty = unlimited (the
  /// storage-only problem). Serialized as the codec-v2 optional section.
  std::vector<double> compute_capacities;
  double backhaul_bps = 0.0;
  std::vector<double> inv_eff;          ///< M x K, row-major; +inf = no path
  std::vector<char> assoc;              ///< M x K, 1 = direct association
};

class PlacementProblem {
 public:
  /// Full instance over every server and user of the topology.
  PlacementProblem(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests);

  /// Sub-view over `servers` x `users` (strictly increasing global ids).
  /// Eligibility still uses the *global* association and rates — a view
  /// server can relay through covering servers outside the view — so
  /// within-view decisions match the full instance exactly.
  PlacementProblem(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests,
                   std::vector<ServerId> servers, std::vector<UserId> users);

  /// Owning instance over a self-contained data bundle (no topology): the
  /// deserialized-tile path of the out-of-process solver workers. Hit lists
  /// are rebuilt from the bundle's link arrays with the exact arithmetic of
  /// the borrowed constructors, so solver outcomes are bit-identical. Each
  /// user's relay rate is read from its non-associated inv_eff entries;
  /// throws std::invalid_argument when those differ (a borrowed problem
  /// always writes one best-relay rate per user).
  explicit PlacementProblem(OwnedProblemData data);

  [[nodiscard]] std::size_t num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return num_models_; }

  /// Global topology id of view-local server m (identity on full instances).
  [[nodiscard]] ServerId global_server(ServerId m) const { return server_ids_.at(m); }
  /// Global topology id of view-local user k (identity on full instances).
  [[nodiscard]] UserId global_user(UserId k) const { return user_ids_.at(k); }

  /// Row of view-local user k inside requests(): global_user(k) for borrowed
  /// instances (the request model is the shared global one), k itself for
  /// owning instances (the model is tile-local). Every requests() access
  /// must index through this, never through global_user() directly.
  [[nodiscard]] UserId request_user(UserId k) const {
    return owned_ ? k : global_user(k);
  }

  [[nodiscard]] const model::ModelLibrary& library() const noexcept { return *library_; }
  /// The request model. NOTE: index it with request_user(), not raw local
  /// ids — borrowed instances share the *global* model.
  [[nodiscard]] const workload::RequestModel& requests() const noexcept {
    return *requests_;
  }

  /// Storage capacity of view-local server m.
  [[nodiscard]] support::Bytes capacity(ServerId m) const { return capacities_.at(m); }

  /// Per-server inference compute capacity C_m (abstract units); +inf for
  /// the classic storage-only problem.
  [[nodiscard]] double compute_capacity(ServerId m) const {
    return compute_caps_.at(m);
  }

  /// True when any server in this instance has a finite compute capacity —
  /// the switch between the storage-only objective (Eq. 2/3) and the joint
  /// caching + compute objective. False by default, keeping every legacy
  /// path bit-identical.
  [[nodiscard]] bool compute_constrained() const noexcept { return compute_constrained_; }

  /// Compute cost c_{k,i} of one inference of model i for view-local user k
  /// (abstract units). The expected load a served request adds to its
  /// holder's budget is p_{k,i} · c_{k,i}.
  [[nodiscard]] double compute_cost(UserId k, ModelId i) const {
    return requests_->compute_cost(request_user(k), i);
  }

  /// I1(m,k,i): can server m serve user k's request for model i in time?
  [[nodiscard]] bool eligible(ServerId m, UserId k, ModelId i) const;

  /// Low-level flat link views for batched eligibility sweeps
  /// (core::lazy_greedy's inverted heap build, which prices the repair
  /// refill from the still-uncovered demand): row m holds, per
  /// view-local user k, 1/C̄ of the delivery path — direct when
  /// associations(m)[k] is set, user k's best covering relay otherwise,
  /// +inf when no positive-rate path exists. Latency of payload D is then
  /// bits(D) · inv (direct) or bits(D) / backhaul_bps() + bits(D) · inv
  /// (relayed), matching eligible() bit for bit.
  [[nodiscard]] std::span<const double> inverse_effective_rates(ServerId m) const;
  [[nodiscard]] std::span<const char> associations(ServerId m) const;
  /// bits(D_i) of model i's payload.
  [[nodiscard]] double payload_bits(ModelId i) const { return payload_bits_.at(i); }
  [[nodiscard]] double backhaul_bps() const noexcept { return backhaul_bps_; }

  /// Users servable by placing model i on server m, with their request
  /// mass, in ascending user order (see HitRange).
  [[nodiscard]] HitRange hit_list(ServerId m, ModelId i) const {
    if (m >= num_servers_ || i >= num_models_) {
      throw std::out_of_range("PlacementProblem::hit_list");
    }
    const std::size_t cell = static_cast<std::size_t>(m) * num_models_ + i;
    return HitRange(direct_entries_.data() + direct_starts_[cell],
                    relay_entries_.data() + relay_starts_[i],
                    assoc_.data() + static_cast<std::size_t>(m) * num_users_);
  }

  /// Σ_k Σ_i p_{k,i} over this instance's users — the denominator of U(X).
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }

  /// Mass of requests servable by at least one server (the coverage ceiling
  /// on the achievable hit mass; used by bound computations).
  [[nodiscard]] double reachable_mass() const noexcept { return reachable_mass_; }

 private:
  void build_links(const wireless::NetworkTopology& topology);
  void build_hit_lists();
  void snapshot_capacities(const wireless::NetworkTopology* topology);

  const model::ModelLibrary* library_;
  const workload::RequestModel* requests_;
  // Owning instances keep their data bundle alive here (library_ / requests_
  // point into it); shared_ptr keeps the problem copyable — the bundle is
  // immutable after construction.
  std::shared_ptr<const OwnedProblemData> owned_;

  std::size_t num_servers_;
  std::size_t num_users_;
  std::size_t num_models_;
  std::vector<ServerId> server_ids_;  // local -> global
  std::vector<UserId> user_ids_;      // local -> global

  // Per-(m, k) delivery precomputation (local M x K): `assoc_` says whether
  // the pair is associated; `inv_eff_` is 1/C̄ of the direct link when it is,
  // and 1/C̄ of user k's best covering relay when it is not (+inf when no
  // positive-rate path exists). Latency of payload D is then
  //   assoc:  bits(D) · inv_eff
  //   relay:  bits(D) / backhaul + bits(D) · inv_eff      (Eq. 5)
  // matching sim::EvalPlan's arithmetic bit for bit.
  std::vector<double> inv_eff_;
  std::vector<char> assoc_;
  std::vector<double> payload_bits_;  // per model
  double backhaul_bps_ = 0.0;
  // Per local server, snapshotted at construction.
  std::vector<support::Bytes> capacities_;
  std::vector<double> compute_caps_;  // +inf = unconstrained
  bool compute_constrained_ = false;

  // Factored hit lists, each a start offset into one flat entry array:
  // direct entries per (m, i) cell m * I + i, relay entries per model i.
  // Every list ascends by user and ends in a sentinel (user kInvalidId);
  // empty lists all start at the shared sentinel in slot 0 (see HitRange).
  std::vector<std::size_t> direct_starts_;  // M * I
  std::vector<HitEntry> direct_entries_;
  std::vector<std::size_t> relay_starts_;   // I
  std::vector<HitEntry> relay_entries_;
  double total_mass_ = 0.0;
  double reachable_mass_ = 0.0;
};

}  // namespace trimcaching::core
