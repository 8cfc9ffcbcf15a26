// Per-user request probabilities and QoS requirements (§III-A, §VII-A).
//
// Each user k requests model i with probability p_{k,i}; the E2E deadline
// T̄_{k,i} (downloading + on-device inference) is drawn uniformly from
// [0.5, 1] s and the on-device inference latency t_{k,i} from a smaller
// configurable range (the paper folds both into its QoS statement; the split
// is documented in EXPERIMENTS.md). Popularity follows a Zipf law; each user
// may rank models in its own random order (personalized popularity), and may
// restrict its interest to a subset of models (Fig. 6 uses 9 / 27 requested
// models per user).
//
// p_{k,i} is stored once, as one run of RequestCell per user over the p > 0
// support (requested(k)); compute cost is derived, cost_scale() * t_{k,i}.
// Deadlines and inference latencies stay dense K x I: a drifting serving
// workload may draw models outside a user's requested run.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/support/ids.h"
#include "src/support/rng.h"

namespace trimcaching::workload {

struct RequestConfig {
  double zipf_exponent = 0.8;
  /// If true, each user ranks models in an independent random order;
  /// otherwise all users share one global popularity order.
  bool per_user_popularity = true;
  /// Number of models each user requests with non-zero probability
  /// (0 = all models in the library).
  std::size_t models_per_user = 0;
  double deadline_min_s = 0.5;
  double deadline_max_s = 1.0;
  double inference_min_s = 0.05;
  double inference_max_s = 0.15;
  /// Compute cost of one expected inference of (k, i), expressed as a
  /// multiple of the inference latency t_{k,i}: cost = scale * t_{k,i}
  /// (abstract units, matched against NetworkTopology::compute_capacity).
  /// Deterministic in the QoS draws — changing it draws no extra randomness.
  double infer_cost_scale = 1.0;

  void validate() const;
};

/// One p > 0 cell of user k's request row.
struct RequestCell {
  ModelId model = 0;
  double probability = 0.0;
};

/// One sparse request-table cell for RequestModel::from_rows.
struct RequestEntry {
  ModelId model = 0;
  double probability = 0.0;
  double deadline_s = 0.0;
  double inference_s = 0.0;
};

class RequestModel {
 public:
  /// Empty model (0 users / 0 models) — a placeholder slot to assign a
  /// generate()/from_rows() result into (core::OwnedProblemData); not a
  /// usable instance on its own.
  RequestModel() = default;

  /// Generates request probabilities and QoS values for `num_users` users
  /// over `num_models` models.
  static RequestModel generate(std::size_t num_users, std::size_t num_models,
                               const RequestConfig& config, support::Rng& rng);

  /// Rebuilds a model from explicit per-user sparse rows (the deserialized
  /// tile path, io/tile_codec.h). Row k lists user k's requested models in
  /// strictly ascending id order; cells absent from a row have p = 0 and
  /// zero deadlines. The p > 0 support and per-user iteration order match
  /// generate()'s exactly, so a problem built on top reproduces hit lists
  /// and request mass bit for bit. `cost_scale` is infer_cost_scale.
  static RequestModel from_rows(std::size_t num_models,
                                const std::vector<std::vector<RequestEntry>>& rows,
                                double cost_scale);

  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return num_models_; }

  /// Request probability p_{k,i}; each user's probabilities sum to 1. A
  /// search of row k: hot loops walk requested(k) instead.
  [[nodiscard]] double probability(UserId k, ModelId i) const;
  /// E2E deadline T̄_{k,i} in seconds.
  [[nodiscard]] double deadline_s(UserId k, ModelId i) const;
  /// On-device inference latency t_{k,i} in seconds.
  [[nodiscard]] double inference_s(UserId k, ModelId i) const;
  /// Compute cost of one inference of model i for user k (abstract units):
  /// cost_scale() * t_{k,i}.
  [[nodiscard]] double compute_cost(UserId k, ModelId i) const;
  /// Compute units per second of inference latency (infer_cost_scale).
  [[nodiscard]] double cost_scale() const noexcept { return cost_scale_; }

  /// Σ_k Σ_i p_{k,i} (the denominator of Eq. 2).
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }

  /// User k's p > 0 cells, ascending model ids. With `models_per_user`
  /// interest limits the run is much shorter than I.
  [[nodiscard]] std::span<const RequestCell> requested(UserId k) const;

 private:
  std::size_t num_users_ = 0;
  std::size_t num_models_ = 0;
  std::vector<double> deadline_;   // dense K x I
  std::vector<double> inference_;  // dense K x I
  double cost_scale_ = 0.0;
  // CSR of the p > 0 support: user k owns cells_[offsets_[k], offsets_[k+1]).
  std::vector<std::size_t> offsets_;
  std::vector<RequestCell> cells_;
  double total_mass_ = 0.0;

  [[nodiscard]] std::size_t at(UserId k, ModelId i) const;
};

}  // namespace trimcaching::workload
