#include "src/workload/request_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/workload/zipf.h"

namespace trimcaching::workload {

void RequestConfig::validate() const {
  if (!(zipf_exponent >= 0) || std::isinf(zipf_exponent)) {
    throw std::invalid_argument("RequestConfig: zipf_exponent must be finite and >= 0");
  }
  if (!std::isfinite(deadline_max_s) || !(deadline_min_s > 0) ||
      deadline_min_s > deadline_max_s) {
    throw std::invalid_argument(
        "RequestConfig: bad deadline range (need finite 0 < deadline_min_s <= "
        "deadline_max_s)");
  }
  if (!std::isfinite(inference_max_s) || !(inference_min_s >= 0) ||
      inference_min_s > inference_max_s) {
    throw std::invalid_argument(
        "RequestConfig: bad inference range (need finite 0 <= inference_min_s <= "
        "inference_max_s)");
  }
  if (!(infer_cost_scale >= 0) || std::isinf(infer_cost_scale)) {
    throw std::invalid_argument("RequestConfig: infer_cost_scale must be finite and >= 0");
  }
}

std::size_t RequestModel::at(UserId k, ModelId i) const {
  if (k >= num_users_ || i >= num_models_) throw std::out_of_range("RequestModel::at");
  return static_cast<std::size_t>(k) * num_models_ + i;
}

RequestModel RequestModel::generate(std::size_t num_users, std::size_t num_models,
                                    const RequestConfig& config, support::Rng& rng) {
  config.validate();
  if (num_users == 0 || num_models == 0) {
    throw std::invalid_argument("RequestModel: empty user or model set");
  }
  const std::size_t interest =
      config.models_per_user == 0 ? num_models : config.models_per_user;
  if (interest > num_models) {
    throw std::invalid_argument("RequestModel: models_per_user exceeds library size");
  }

  RequestModel rm;
  rm.num_users_ = num_users;
  rm.num_models_ = num_models;
  rm.deadline_.assign(num_users * num_models, 0.0);
  rm.inference_.assign(num_users * num_models, 0.0);
  rm.cost_scale_ = config.infer_cost_scale;
  rm.offsets_.assign(num_users + 1, 0);
  rm.cells_.reserve(num_users * interest);

  const ZipfDistribution zipf(interest, config.zipf_exponent);
  std::vector<std::size_t> global_order = rng.permutation(num_models);
  for (UserId k = 0; k < num_users; ++k) {
    const std::vector<std::size_t> order =
        config.per_user_popularity ? rng.permutation(num_models) : global_order;
    for (std::size_t rank = 0; rank < interest; ++rank) {
      const double p = zipf.pmf(rank);
      if (p > 0.0) rm.cells_.push_back(RequestCell{static_cast<ModelId>(order[rank]), p});
    }
    std::sort(rm.cells_.begin() + rm.offsets_[k], rm.cells_.end(),
              [](const RequestCell& a, const RequestCell& b) { return a.model < b.model; });
    rm.offsets_[k + 1] = rm.cells_.size();
    for (ModelId i = 0; i < num_models; ++i) {
      rm.deadline_[rm.at(k, i)] = rng.uniform(config.deadline_min_s, config.deadline_max_s);
      rm.inference_[rm.at(k, i)] =
          rng.uniform(config.inference_min_s, config.inference_max_s);
    }
  }
  for (const RequestCell& cell : rm.cells_) rm.total_mass_ += cell.probability;
  return rm;
}

RequestModel RequestModel::from_rows(std::size_t num_models,
                                     const std::vector<std::vector<RequestEntry>>& rows,
                                     double cost_scale) {
  if (rows.empty() || num_models == 0) {
    throw std::invalid_argument("RequestModel::from_rows: empty user or model set");
  }
  if (!(cost_scale >= 0.0) || std::isinf(cost_scale)) {
    throw std::invalid_argument(
        "RequestModel::from_rows: cost scale must be finite and >= 0");
  }
  RequestModel rm;
  rm.num_users_ = rows.size();
  rm.num_models_ = num_models;
  rm.deadline_.assign(rm.num_users_ * num_models, 0.0);
  rm.inference_.assign(rm.num_users_ * num_models, 0.0);
  rm.cost_scale_ = cost_scale;
  rm.offsets_.assign(rm.num_users_ + 1, 0);
  for (UserId k = 0; k < rm.num_users_; ++k) {
    ModelId prev = 0;
    bool first = true;
    for (const RequestEntry& cell : rows[k]) {
      if (cell.model >= num_models || (!first && cell.model <= prev)) {
        throw std::invalid_argument(
            "RequestModel::from_rows: row models must be strictly increasing ids in range");
      }
      if (!(cell.probability >= 0.0)) {
        throw std::invalid_argument("RequestModel::from_rows: negative or NaN probability");
      }
      prev = cell.model;
      first = false;
      const std::size_t slot = rm.at(k, cell.model);
      rm.deadline_[slot] = cell.deadline_s;
      rm.inference_[slot] = cell.inference_s;
      if (cell.probability > 0.0) {
        rm.cells_.push_back(RequestCell{cell.model, cell.probability});
        rm.total_mass_ += cell.probability;
      }
    }
    rm.offsets_[k + 1] = rm.cells_.size();
  }
  return rm;
}

std::span<const RequestCell> RequestModel::requested(UserId k) const {
  if (k >= num_users_) throw std::out_of_range("RequestModel::requested");
  return {cells_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
}

double RequestModel::probability(UserId k, ModelId i) const {
  if (i >= num_models_) throw std::out_of_range("RequestModel::probability");
  const auto row = requested(k);
  const auto cell = std::lower_bound(
      row.begin(), row.end(), i,
      [](const RequestCell& c, ModelId model) { return c.model < model; });
  return cell != row.end() && cell->model == i ? cell->probability : 0.0;
}

double RequestModel::deadline_s(UserId k, ModelId i) const { return deadline_[at(k, i)]; }

double RequestModel::inference_s(UserId k, ModelId i) const { return inference_[at(k, i)]; }

double RequestModel::compute_cost(UserId k, ModelId i) const {
  return cost_scale_ * inference_s(k, i);
}

}  // namespace trimcaching::workload
