#include "src/serve/cache_policy.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/support/options.h"

namespace trimcaching::serve {

namespace {
constexpr double kNeverTouched = -std::numeric_limits<double>::infinity();
}  // namespace

void CachePolicy::bind(const model::ModelLibrary& library, support::Bytes capacity) {
  if (library_ != nullptr) throw std::logic_error("CachePolicy: bind called twice");
  if (!library.finalized()) {
    throw std::invalid_argument("CachePolicy: library must be finalized");
  }
  library_ = &library;
  capacity_ = capacity;
  cached_.assign(library.num_blocks(), 0);
  // Never-requested blocks start at the bottom of every score order.
  score_.assign(library.num_blocks(), kNeverTouched);
}

void CachePolicy::warm(const std::vector<ModelId>& models) {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: warm before bind");
  for (const ModelId i : models) {
    for (const BlockId j : library_->model(i).blocks) insert_block(j);
  }
}

support::Bytes CachePolicy::missing_bytes(ModelId i) const {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: use before bind");
  support::Bytes missing = 0;
  for (const BlockId j : library_->model(i).blocks) {
    if (!cached_[j]) missing += library_->block(j).size_bytes;
  }
  return missing;
}

void CachePolicy::on_request(ModelId i, double now) {
  // Score every block of the requested model, cached or not: an uncached
  // block keeps accumulating popularity, so when it is finally admitted it
  // does not start as the coldest entry.
  for (const BlockId j : library_->model(i).blocks) {
    const double updated = next_score(j, now, score_[j]);
    if (cached_[j]) {
      order_.erase({score_[j], j});
      order_.insert({updated, j});
    }
    score_[j] = updated;
  }
}

void CachePolicy::admit(ModelId i, double now) {
  (void)now;
  if (library_->model_size(i) > capacity_) return;  // pass-through download
  std::vector<char> pinned(library_->num_blocks(), 0);
  for (const BlockId j : library_->model(i).blocks) {
    pinned[j] = 1;
    insert_block(j);
  }
  evict_until_fits(pinned);
}

void CachePolicy::restart() {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: restart before bind");
  cached_.assign(library_->num_blocks(), 0);
  score_.assign(library_->num_blocks(), kNeverTouched);
  order_.clear();
  used_ = 0;
}

void CachePolicy::insert_block(BlockId j) {
  if (cached_[j]) return;
  cached_[j] = 1;
  used_ += library_->block(j).size_bytes;
  order_.insert({score_[j], j});
}

void CachePolicy::evict_until_fits(const std::vector<char>& pinned) {
  auto victim = order_.begin();
  while (used_ > capacity_ && victim != order_.end()) {
    if (pinned[victim->second]) {
      ++victim;  // the admitted model's own blocks are never evicted
      continue;
    }
    const BlockId j = victim->second;
    victim = order_.erase(victim);
    cached_[j] = 0;
    used_ -= library_->block(j).size_bytes;
    ++evictions_;
  }
}

namespace {

/// The paper's model: the offline placement is the cache, forever.
class StaticCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "static"; }
  [[nodiscard]] bool reactive() const noexcept override { return false; }
  void on_request(ModelId, double) override {}
  void admit(ModelId, double) override {}

 protected:
  [[nodiscard]] double next_score(BlockId, double, double) override { return 0.0; }
};

/// Block-level least-recently-used. The clock is a touch counter rather than
/// simulated time so simultaneous events still order deterministically.
class LruCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "lru"; }

 protected:
  [[nodiscard]] double next_score(BlockId, double, double) override {
    return static_cast<double>(++clock_);
  }

 private:
  std::uint64_t clock_ = 0;
};

/// Exponentially-weighted request rate per block (neu-spiral EWMACache).
/// Scores live in the log domain normalized to t = 0:
///   L_j = ln( sum over requests r of exp(t_r / tau) )
/// so the *ordering* of decayed rates (L_j - t/tau monotone in L_j) is
/// time-invariant and the eviction set never needs rescoring as the clock
/// advances.
class EwmaCache final : public CachePolicy {
 public:
  explicit EwmaCache(double tau_s) : tau_s_(tau_s) {
    if (!std::isfinite(tau_s) || tau_s <= 0) {
      throw std::invalid_argument("ewma cache: tau_s must be finite and > 0, got " +
                                  std::to_string(tau_s));
    }
  }
  [[nodiscard]] std::string name() const override { return "ewma"; }

 protected:
  [[nodiscard]] double next_score(BlockId, double now, double previous) override {
    const double value = now / tau_s_;
    if (previous == kNeverTouched) return value;
    // log-sum-exp of the previous mass and the new request.
    const double hi = std::max(previous, value);
    const double lo = std::min(previous, value);
    return hi + std::log1p(std::exp(lo - hi));
  }

 private:
  double tau_s_;
};

/// Frequency (LFU) cache: the neu-spiral PriorityCache with cumulative
/// request count as the priority weight.
class PriorityCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "priority"; }

 protected:
  [[nodiscard]] double next_score(BlockId, double, double previous) override {
    return previous == kNeverTouched ? 1.0 : previous + 1.0;
  }
};

}  // namespace

std::unique_ptr<CachePolicy> make_cache_policy(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string base = spec.substr(0, colon);
  const auto options = support::Options::parse_pairs(
      colon == std::string::npos ? "" : spec.substr(colon + 1));
  if (base == "static") {
    options.check_unknown({});
    return std::make_unique<StaticCache>();
  }
  if (base == "lru") {
    options.check_unknown({});
    return std::make_unique<LruCache>();
  }
  if (base == "ewma") {
    options.check_unknown({"tau_s"});
    return std::make_unique<EwmaCache>(options.get_double("tau_s", 60.0));
  }
  if (base == "priority") {
    options.check_unknown({});
    return std::make_unique<PriorityCache>();
  }
  std::string known;
  for (const auto& name : known_cache_policies()) {
    known += (known.empty() ? "" : ", ") + name;
  }
  throw std::invalid_argument("make_cache_policy: unknown policy '" + base +
                              "' (known: " + known + ")");
}

std::vector<std::string> known_cache_policies() {
  return {"ewma", "lru", "priority", "static"};
}

}  // namespace trimcaching::serve
