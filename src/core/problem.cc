#include "src/core/problem.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace trimcaching::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<ServerId> identity_servers(std::size_t n) {
  std::vector<ServerId> ids(n);
  for (std::size_t m = 0; m < n; ++m) ids[m] = static_cast<ServerId>(m);
  return ids;
}

std::vector<UserId> identity_users(std::size_t n) {
  std::vector<UserId> ids(n);
  for (std::size_t k = 0; k < n; ++k) ids[k] = static_cast<UserId>(k);
  return ids;
}

void check_subset(const std::vector<std::uint32_t>& ids, std::size_t bound,
                  const char* what) {
  if (ids.empty()) {
    throw std::invalid_argument(std::string("PlacementProblem: empty ") + what +
                                " subset");
  }
  for (std::size_t e = 0; e < ids.size(); ++e) {
    if (ids[e] >= bound || (e > 0 && ids[e] <= ids[e - 1])) {
      throw std::invalid_argument(std::string("PlacementProblem: ") + what +
                                  " subset must be strictly increasing ids in range");
    }
  }
}

}  // namespace

PlacementProblem::PlacementProblem(const wireless::NetworkTopology& topology,
                                   const model::ModelLibrary& library,
                                   const workload::RequestModel& requests)
    : PlacementProblem(topology, library, requests,
                       identity_servers(topology.num_servers()),
                       identity_users(topology.num_users())) {}

PlacementProblem::PlacementProblem(const wireless::NetworkTopology& topology,
                                   const model::ModelLibrary& library,
                                   const workload::RequestModel& requests,
                                   std::vector<ServerId> servers,
                                   std::vector<UserId> users)
    : library_(&library),
      requests_(&requests),
      num_servers_(servers.size()),
      num_users_(users.size()),
      num_models_(library.num_models()),
      server_ids_(std::move(servers)),
      user_ids_(std::move(users)) {
  if (!library.finalized()) {
    throw std::invalid_argument("PlacementProblem: library must be finalized");
  }
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != num_models_) {
    throw std::invalid_argument("PlacementProblem: request model dimensions mismatch");
  }
  check_subset(server_ids_, topology.num_servers(), "server");
  check_subset(user_ids_, topology.num_users(), "user");
  build_links(topology);
  build_hit_lists();
}

PlacementProblem::PlacementProblem(OwnedProblemData data)
    : requests_(nullptr),
      num_servers_(data.server_ids.size()),
      num_users_(data.user_ids.size()),
      num_models_(data.library.num_models()),
      server_ids_(std::move(data.server_ids)),
      user_ids_(std::move(data.user_ids)) {
  if (!data.library.finalized()) {
    throw std::invalid_argument("PlacementProblem: owned library must be finalized");
  }
  if (num_servers_ == 0 || num_users_ == 0) {
    throw std::invalid_argument("PlacementProblem: empty owned server or user set");
  }
  if (data.requests.num_users() != num_users_ ||
      data.requests.num_models() != num_models_) {
    throw std::invalid_argument(
        "PlacementProblem: owned request model dimensions mismatch");
  }
  if (data.capacities.size() != num_servers_ ||
      data.inv_eff.size() != num_servers_ * num_users_ ||
      data.assoc.size() != num_servers_ * num_users_) {
    throw std::invalid_argument("PlacementProblem: owned link array dimensions mismatch");
  }
  if (!(data.backhaul_bps > 0)) {
    throw std::invalid_argument("PlacementProblem: owned backhaul_bps must be > 0");
  }
  if (!data.compute_capacities.empty() &&
      data.compute_capacities.size() != num_servers_) {
    throw std::invalid_argument(
        "PlacementProblem: owned compute capacity dimensions mismatch");
  }
  backhaul_bps_ = data.backhaul_bps;
  inv_eff_ = std::move(data.inv_eff);
  assoc_ = std::move(data.assoc);
  // build_hit_lists prices user k's relay once, from its first
  // non-associated cell, so every such cell must carry the same rate.
  for (std::size_t k = 0; k < num_users_; ++k) {
    const double* relay_inv = nullptr;
    for (std::size_t m = 0; m < num_servers_; ++m) {
      const std::size_t cell = m * num_users_ + k;
      if (assoc_[cell]) continue;
      if (!relay_inv) {
        relay_inv = &inv_eff_[cell];
      } else if (std::bit_cast<std::uint64_t>(inv_eff_[cell]) !=
                 std::bit_cast<std::uint64_t>(*relay_inv)) {
        throw std::invalid_argument(
            "PlacementProblem: owned inv_eff entries of local user " +
            std::to_string(k) +
            " differ across its non-associated servers (one relay rate per user)");
      }
    }
  }
  data.server_ids = server_ids_;  // keep the bundle self-describing
  data.user_ids = user_ids_;
  owned_ = std::make_shared<const OwnedProblemData>(std::move(data));
  library_ = &owned_->library;
  requests_ = &owned_->requests;
  payload_bits_.resize(num_models_);
  for (ModelId i = 0; i < num_models_; ++i) {
    payload_bits_[i] = support::bits(library_->model_size(i));
  }
  snapshot_capacities(nullptr);
  build_hit_lists();
}

// Owning instances (null topology) read their data bundle.
void PlacementProblem::snapshot_capacities(const wireless::NetworkTopology* topology) {
  capacities_.resize(num_servers_);
  compute_caps_.assign(num_servers_, kInf);
  for (std::size_t m = 0; m < num_servers_; ++m) {
    if (topology) {
      capacities_[m] = topology->capacity(server_ids_[m]);
      compute_caps_[m] = topology->compute_capacity(server_ids_[m]);
    } else {
      capacities_[m] = owned_->capacities[m];
      if (!owned_->compute_capacities.empty()) compute_caps_[m] = owned_->compute_capacities[m];
    }
    if (compute_caps_[m] != kInf) compute_constrained_ = true;
  }
}

void PlacementProblem::build_links(const wireless::NetworkTopology& topology) {
  backhaul_bps_ = topology.radio().backhaul_bps;
  snapshot_capacities(&topology);
  payload_bits_.resize(num_models_);
  for (ModelId i = 0; i < num_models_; ++i) {
    payload_bits_[i] = support::bits(library_->model_size(i));
  }

  // Global -> local server translation for the association pass.
  std::vector<std::uint32_t> local_server(topology.num_servers(), kInvalidId);
  for (std::size_t m = 0; m < num_servers_; ++m) local_server[server_ids_[m]] = m;

  // Per-(m, k) inverse effective rates from the topology's flat CSR link
  // views: one pass over each user's covering span fills the direct links
  // and the best-relay fallback for everything else.
  const auto& offsets = topology.covering_offsets();
  const auto& flat = topology.covering_flat();
  const auto& avg_rate = topology.link_avg_rate_bps();
  inv_eff_.assign(num_servers_ * num_users_, kInf);
  assoc_.assign(num_servers_ * num_users_, 0);
  for (std::size_t k = 0; k < num_users_; ++k) {
    const UserId gk = user_ids_[k];
    double relay_inv = kInf;
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      if (avg_rate[l] > 0) relay_inv = std::min(relay_inv, 1.0 / avg_rate[l]);
    }
    for (std::size_t m = 0; m < num_servers_; ++m) {
      inv_eff_[m * num_users_ + k] = relay_inv;
    }
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      const std::uint32_t lm = local_server[flat[l]];
      if (lm == kInvalidId) continue;
      assoc_[lm * num_users_ + k] = 1;
      inv_eff_[lm * num_users_ + k] = avg_rate[l] > 0 ? 1.0 / avg_rate[l] : kInf;
    }
  }
}

namespace {

struct KeyedEntry {
  std::size_t key;
  HitEntry entry;
};

// Groups `keyed` by key into sentinel-terminated runs of one flat array,
// keeping input order within a key: a non-empty key's run starts at
// starts[c] and is followed by a sentinel; empty keys start at the shared
// sentinel in slot 0.
void build_lists(const std::vector<KeyedEntry>& keyed, std::size_t num_keys,
                 std::vector<std::size_t>& starts, std::vector<HitEntry>& entries) {
  std::vector<std::size_t> counts(num_keys, 0);
  for (const KeyedEntry& e : keyed) ++counts[e.key];
  starts.assign(num_keys, 0);
  std::size_t next = 1;
  for (std::size_t c = 0; c < num_keys; ++c) {
    if (counts[c] == 0) continue;
    starts[c] = next;
    next += counts[c] + 1;
  }
  entries.assign(next, HitEntry{kInvalidId, 0.0});
  std::vector<std::size_t> cursor = starts;
  for (const KeyedEntry& e : keyed) entries[cursor[e.key]++] = e.entry;
}

}  // namespace

void PlacementProblem::build_hit_lists() {
  // One user-major pass over the sparse p > 0 request support collects the
  // direct and relay entries in ascending local user order; build_lists then
  // groups them per (m, i) and per model, keeping that order.
  struct Row {
    ModelId model;
    double mass;
    double bits;
    double budget_s;
  };
  std::vector<Row> rows;
  std::vector<char> row_reachable;
  std::vector<KeyedEntry> direct;
  std::vector<KeyedEntry> relay;
  total_mass_ = 0.0;
  reachable_mass_ = 0.0;
  for (std::size_t k = 0; k < num_users_; ++k) {
    const UserId rk = request_user(static_cast<UserId>(k));
    rows.clear();
    for (const workload::RequestCell& cell : requests_->requested(rk)) {
      const ModelId i = cell.model;
      total_mass_ += cell.probability;
      const double budget = requests_->deadline_s(rk, i) - requests_->inference_s(rk, i);
      if (budget <= 0) continue;
      rows.push_back(Row{i, cell.probability, payload_bits_[i], budget});
    }
    row_reachable.assign(rows.size(), 0);
    // User k's relay rate, shared by all its non-associated cells; stays
    // +inf when every view server is associated with k (no relay server).
    double relay_inv = kInf;
    for (std::size_t m = 0; m < num_servers_; ++m) {
      const double inv = inv_eff_[m * num_users_ + k];
      if (!assoc_[m * num_users_ + k]) {
        relay_inv = inv;
        continue;
      }
      if (inv == kInf) continue;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const Row& row = rows[r];
        if (row.bits * inv <= row.budget_s) {
          direct.push_back(KeyedEntry{m * num_models_ + row.model,
                                      HitEntry{static_cast<UserId>(k), row.mass}});
          row_reachable[r] = 1;
        }
      }
    }
    if (relay_inv != kInf) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const Row& row = rows[r];
        if (row.bits / backhaul_bps_ + row.bits * relay_inv <= row.budget_s) {
          relay.push_back(
              KeyedEntry{row.model, HitEntry{static_cast<UserId>(k), row.mass}});
          row_reachable[r] = 1;
        }
      }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (row_reachable[r]) reachable_mass_ += rows[r].mass;
    }
  }
  build_lists(direct, num_servers_ * num_models_, direct_starts_, direct_entries_);
  build_lists(relay, num_models_, relay_starts_, relay_entries_);
}

bool PlacementProblem::eligible(ServerId m, UserId k, ModelId i) const {
  if (m >= num_servers_ || k >= num_users_ || i >= num_models_) {
    throw std::out_of_range("PlacementProblem::eligible");
  }
  const UserId rk = request_user(k);
  const double budget = requests_->deadline_s(rk, i) - requests_->inference_s(rk, i);
  if (budget <= 0) return false;
  const double inv = inv_eff_[static_cast<std::size_t>(m) * num_users_ + k];
  if (inv == kInf) return false;
  const double bits = payload_bits_[i];
  const double latency = assoc_[static_cast<std::size_t>(m) * num_users_ + k] != 0
                             ? bits * inv
                             : bits / backhaul_bps_ + bits * inv;
  return latency <= budget;
}

std::span<const double> PlacementProblem::inverse_effective_rates(ServerId m) const {
  if (m >= num_servers_) {
    throw std::out_of_range("PlacementProblem::inverse_effective_rates");
  }
  return {inv_eff_.data() + static_cast<std::size_t>(m) * num_users_, num_users_};
}

std::span<const char> PlacementProblem::associations(ServerId m) const {
  if (m >= num_servers_) throw std::out_of_range("PlacementProblem::associations");
  return {assoc_.data() + static_cast<std::size_t>(m) * num_users_, num_users_};
}

}  // namespace trimcaching::core
