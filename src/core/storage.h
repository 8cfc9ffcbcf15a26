// Per-server storage accounting under block deduplication (Eq. 7):
//
//   g_m(X_m) = Σ_{j ∈ J} D'_j · [ some cached model contains j ]
//
// A shared block is stored once no matter how many cached models use it,
// which is what makes g_m submodular in the cached-model set.
//
// ServerStorage charges g_m; NaiveStorage charges Σ D_i, the accounting of
// the Independent Caching baseline. core::lazy_greedy runs over either.
#pragma once

#include <stdexcept>

#include "src/model/model_library.h"
#include "src/support/bitset.h"
#include "src/support/ids.h"
#include "src/support/units.h"

namespace trimcaching::core {

class ServerStorage {
 public:
  ServerStorage(const model::ModelLibrary& library, support::Bytes capacity);

  [[nodiscard]] support::Bytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] support::Bytes used() const noexcept { return used_; }
  [[nodiscard]] support::Bytes free() const noexcept { return capacity_ - used_; }

  /// Extra bytes required to add model i given already-cached blocks (the
  /// marginal of g_m; ≤ D_i, with equality iff no block of i is cached).
  [[nodiscard]] support::Bytes incremental_cost(ModelId i) const;

  [[nodiscard]] bool fits(ModelId i) const { return incremental_cost(i) <= free(); }

  /// Caches model i's blocks. Throws std::logic_error if it does not fit.
  void add(ModelId i);

  [[nodiscard]] const support::DynamicBitset& cached_blocks() const noexcept {
    return cached_;
  }

 private:
  const model::ModelLibrary* library_;  // non-owning
  support::Bytes capacity_;
  support::Bytes used_ = 0;
  support::DynamicBitset cached_;
};

/// Sharing-oblivious accounting (Independent Caching, §VII-A): every cached
/// model charges its full size D_i, so a model that does not fit never will.
class NaiveStorage {
 public:
  NaiveStorage(const model::ModelLibrary& library, support::Bytes capacity)
      : library_(&library), capacity_(capacity) {}

  [[nodiscard]] bool fits(ModelId i) const {
    return used_ + library_->model_size(i) <= capacity_;
  }
  void add(ModelId i) {
    if (!fits(i)) throw std::logic_error("NaiveStorage::add: capacity exceeded");
    used_ += library_->model_size(i);
  }

 private:
  const model::ModelLibrary* library_;  // non-owning
  support::Bytes capacity_;
  support::Bytes used_ = 0;
};

/// Evaluates g_m (Eq. 7) for an explicit model set; used by tests and the
/// exact solver.
[[nodiscard]] support::Bytes dedup_storage(const model::ModelLibrary& library,
                                           const std::vector<ModelId>& models);

}  // namespace trimcaching::core
