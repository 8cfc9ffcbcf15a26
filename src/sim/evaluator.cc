#include "src/sim/evaluator.h"

#include <stdexcept>

#include "src/core/objective.h"
#include "src/support/parallel.h"
#include "src/support/timing.h"

namespace trimcaching::sim {

using support::seconds_since;
using Clock = support::WallClock;

Evaluator::Evaluator(const wireless::NetworkTopology& topology,
                     const model::ModelLibrary& library,
                     const workload::RequestModel& requests)
    : topology_(&topology), library_(&library), requests_(&requests) {
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != library.num_models()) {
    throw std::invalid_argument("Evaluator: dimension mismatch");
  }
}

const EvalPlan& Evaluator::plan() const {
  const std::uint64_t revision = topology_->revision();
  // Fresh plan (placement-only changes land here: they never move the
  // topology revision, so the cached plan is reused as-is).
  if (plan_ && plan_->topology_revision() == revision) return *plan_;

  // Incremental path: the topology's last delta chains from our snapshot.
  if (plan_) {
    const wireless::TopologyDelta& delta = topology_->last_delta();
    if (!delta.full && delta.to_revision == revision &&
        delta.from_revision == plan_->topology_revision()) {
      const auto start = Clock::now();
      plan_->apply_delta(*topology_, delta);
      stats_.delta_seconds += seconds_since(start);
      ++stats_.deltas;
      return *plan_;
    }
  }

  // Full rebuild: first use, a full-rebuild delta, or a delta chain we
  // missed (more than one revision behind).
  const auto start = Clock::now();
  plan_ = std::make_unique<EvalPlan>(*topology_, *library_, *requests_,
                                     build_threads_);
  stats_.build_seconds += seconds_since(start);
  ++stats_.builds;
  return *plan_;
}

double Evaluator::expected_hit_ratio(const core::PlacementSolution& placement) const {
  if (topology_->compute_constrained()) {
    // The joint objective has one owner, core coverage. No cached problem:
    // constrained callers evaluate once per topology snapshot or change the
    // topology between calls.
    return core::expected_hit_ratio(
        core::PlacementProblem(*topology_, *library_, *requests_), placement);
  }
  return plan().expected_hit_ratio(placement);
}

support::Summary Evaluator::fading_hit_ratio(const core::PlacementSolution& placement,
                                             std::size_t realizations,
                                             const support::Rng& rng,
                                             std::size_t threads,
                                             FadingKernel kernel) const {
  build_threads_ = support::resolve_threads(threads);
  const EvalPlan& current = plan();
  // The plan's lowering counters restart with each rebuilt plan; fold the
  // per-call increments into the cumulative stats (delta accumulation, the
  // same pattern as the build/delta timers).
  const std::uint64_t builds_before = current.lowering_builds();
  const std::uint64_t hits_before = current.lowering_hits();
  const support::Summary summary =
      current.fading_hit_ratio(placement, realizations, rng, threads, kernel);
  stats_.lowering_builds += current.lowering_builds() - builds_before;
  stats_.lowering_hits += current.lowering_hits() - hits_before;
  return summary;
}

}  // namespace trimcaching::sim
