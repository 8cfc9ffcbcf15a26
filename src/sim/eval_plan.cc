#include "src/sim/eval_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/support/parallel.h"
#include "src/support/units.h"
#include "src/wireless/channel.h"

namespace trimcaching::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// WorkerArena slots of the fading scratch buffers (support/parallel.h).
constexpr std::size_t kArenaGains = 0;
constexpr std::size_t kArenaInvRate = 1;
constexpr std::size_t kArenaStaging = 2;
constexpr std::size_t kArenaBlocked = 3;

// Realizations per lane-blocked hit pass of the SIMD kernel: amortizes the
// per-row metadata walk of phase C (the dominant cost at paper scale, where
// request rows outnumber links ~3:1) and turns each holder probe into one
// contiguous 4-double load instead of a strided gather.
constexpr std::size_t kLaneBlock = 4;

// Two-lane double / mask vectors (GCC/Clang extension): lower to SSE2 on
// x86-64's baseline ISA and to NEON on AArch64, so the blocked hit pass
// vectorizes without target attributes or a runtime-dispatched backend.
// Every lane op is the same IEEE operation the scalar chain performs, so
// lane results stay bit-identical.
typedef double Vec2d __attribute__((vector_size(16), aligned(8)));
typedef long long Mask2 __attribute__((vector_size(16), aligned(8)));

inline Vec2d load2(const double* p) noexcept {
  Vec2d v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
}  // namespace

EvalPlan::EvalPlan(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests,
                   std::size_t build_threads) {
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != library.num_models()) {
    throw std::invalid_argument("EvalPlan: dimension mismatch");
  }
  num_users_ = topology.num_users();
  num_servers_ = topology.num_servers();
  num_models_ = library.num_models();
  revision_ = topology.revision();
  backhaul_bps_ = topology.radio().backhaul_bps;
  total_mass_ = requests.total_mass();
  build_threads_ = support::resolve_threads(build_threads);

  // Link spans come straight from the topology's flat CSR views. The double
  // arrays are filled chunk-parallel over the same static partition the
  // evaluation loops use, so first-touch places each page next to the worker
  // that will stream it.
  link_offsets_ = topology.covering_offsets();
  link_server_ = topology.covering_flat();
  const std::size_t links = link_server_.size();
  link_bandwidth_hz_.reallocate(links);
  link_mean_snr_.reallocate(links);
  avg_inv_rate_.reallocate(links);
  support::first_touch_copy(link_bandwidth_hz_.data(),
                            topology.link_bandwidth_hz().data(), links,
                            build_threads_);
  support::first_touch_copy(link_mean_snr_.data(),
                            topology.link_mean_snr().data(), links,
                            build_threads_);
  const std::vector<double>& avg_rate = topology.link_avg_rate_bps();
  support::parallel_for_chunks(
      links, build_threads_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t l = begin; l < end; ++l) {
          avg_inv_rate_[l] = avg_rate[l] > 0 ? 1.0 / avg_rate[l] : kInf;
        }
      });

  // Request rows, pre-filtered to the pairs that can ever score.
  row_offsets_.assign(num_users_ + 1, 0);
  std::vector<double> payload_bits(num_models_);
  for (ModelId i = 0; i < num_models_; ++i) {
    payload_bits[i] = support::bits(library.model_size(i));
  }
  for (UserId k = 0; k < num_users_; ++k) {
    for (const workload::RequestCell& cell : requests.requested(k)) {
      const ModelId i = cell.model;
      const double budget = requests.deadline_s(k, i) - requests.inference_s(k, i);
      if (budget <= 0.0) continue;
      rows_.push_back(Row{i, cell.probability, payload_bits[i], budget});
    }
    row_offsets_[k + 1] = rows_.size();
  }
}

void EvalPlan::apply_delta(const wireless::NetworkTopology& topology,
                           const wireless::TopologyDelta& delta) {
  if (delta.full || delta.from_revision != revision_ ||
      delta.to_revision != topology.revision()) {
    throw std::invalid_argument("EvalPlan::apply_delta: delta does not chain");
  }
  if (topology.num_users() != num_users_ || topology.num_servers() != num_servers_) {
    throw std::invalid_argument("EvalPlan::apply_delta: dimension mismatch");
  }

  // The topology has already patched its flat views; carry them over (cheap
  // contiguous copies that reuse this plan's capacity) and then patch the
  // derived inverse rates span-by-span: dirty users recompute, clean users
  // copy their old values, which are bit-identical by the delta contract.
  // Request rows do not depend on positions and stay untouched.
  const std::vector<std::size_t>& new_offsets = topology.covering_offsets();
  const std::vector<double>& new_rate = topology.link_avg_rate_bps();
  support::FirstTouchArray& new_inv = inv_scratch_;
  new_inv.reallocate(new_rate.size());
  std::size_t next_dirty = 0;
  for (UserId k = 0; k < num_users_; ++k) {
    const bool dirty = next_dirty < delta.dirty_users.size() &&
                       delta.dirty_users[next_dirty] == k;
    if (dirty) ++next_dirty;
    const std::size_t begin = new_offsets[k];
    const std::size_t end = new_offsets[k + 1];
    if (dirty) {
      for (std::size_t l = begin; l < end; ++l) {
        new_inv[l] = new_rate[l] > 0 ? 1.0 / new_rate[l] : kInf;
      }
    } else {
      const std::size_t old_begin = link_offsets_[k];
      for (std::size_t l = begin; l < end; ++l) {
        new_inv[l] = avg_inv_rate_[old_begin + (l - begin)];
      }
    }
  }
  link_offsets_ = new_offsets;
  link_server_ = topology.covering_flat();
  const std::size_t links = link_server_.size();
  link_bandwidth_hz_.reallocate(links);
  link_mean_snr_.reallocate(links);
  support::first_touch_copy(link_bandwidth_hz_.data(),
                            topology.link_bandwidth_hz().data(), links,
                            build_threads_);
  support::first_touch_copy(link_mean_snr_.data(),
                            topology.link_mean_snr().data(), links,
                            build_threads_);
  avg_inv_rate_.swap(inv_scratch_);  // scratch keeps capacity for the next slot
  revision_ = delta.to_revision;
  // Link indices shifted with the spans: the cached lowering is stale.
  lowering_cache_revision_ = 0;
}

void EvalPlan::check_placement(const core::PlacementSolution& placement) const {
  if (placement.num_servers() != num_servers_ ||
      placement.num_models() != num_models_) {
    throw std::invalid_argument("EvalPlan: placement dimension mismatch");
  }
}

double EvalPlan::hit_ratio(const core::PlacementSolution& placement,
                           const double* inv_rate) const {
  double hit_mass = 0.0;
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t link_end = link_offsets_[k + 1];
    double best_inv = kInf;
    for (std::size_t l = link_begin; l < link_end; ++l) {
      best_inv = std::min(best_inv, inv_rate[l]);
    }
    for (std::size_t r = row_offsets_[k]; r < row_offsets_[k + 1]; ++r) {
      const Row& row = rows_[r];
      const std::size_t num_holders = placement.holders_of(row.model).size();
      if (num_holders == 0) continue;
      // Direct download from a covering holder (Eq. 4).
      bool hit = false;
      std::size_t covering_holders = 0;
      for (std::size_t l = link_begin; l < link_end; ++l) {
        if (!placement.placed(link_server_[l], row.model)) continue;
        ++covering_holders;
        if (row.payload_bits * inv_rate[l] <= row.budget_s) {
          hit = true;
          break;
        }
      }
      // Relay through the fastest covering server (Eq. 5) — only holders
      // outside M_k take the backhaul path.
      if (!hit && num_holders > covering_holders && best_inv < kInf) {
        const double latency =
            row.payload_bits / backhaul_bps_ + row.payload_bits * best_inv;
        hit = latency <= row.budget_s;
      }
      if (hit) hit_mass += row.probability;
    }
  }
  return total_mass_ > 0 ? hit_mass / total_mass_ : 0.0;
}

EvalPlan::PlacementLowering EvalPlan::lower_placement(
    const core::PlacementSolution& placement) const {
  PlacementLowering lowering;
  const std::size_t rows = rows_.size();
  lowering.holder_offsets.assign(rows + 1, 0);
  lowering.relay_eligible.assign(rows, 0);
  lowering.active.assign(rows, 0);
  lowering.user_offsets.assign(num_users_ + 1, 0);
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t link_end = link_offsets_[k + 1];
    for (std::size_t r = row_offsets_[k]; r < row_offsets_[k + 1]; ++r) {
      const ModelId model = rows_[r].model;
      const std::size_t num_holders = placement.holders_of(model).size();
      if (num_holders > 0) {
        lowering.active[r] = 1;
        const std::size_t row_holders = lowering.holder_links.size();
        std::size_t covering_holders = 0;
        for (std::size_t l = link_begin; l < link_end; ++l) {
          if (!placement.placed(link_server_[l], model)) continue;
          ++covering_holders;
          lowering.holder_links.push_back(static_cast<std::uint32_t>(l));
        }
        lowering.relay_eligible[r] = num_holders > covering_holders;
        // Probe order: fastest average link first, so the kernels' Eq. 4
        // early-exit usually succeeds on the first load. Both predicates the
        // kernels compute over this list (exists-within-budget, min) are
        // order-independent, so reordering cannot change any decision or
        // bit of the result; ties break on link index for determinism.
        std::sort(lowering.holder_links.begin() + row_holders,
                  lowering.holder_links.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    const double ra = avg_inv_rate_[a];
                    const double rb = avg_inv_rate_[b];
                    if (ra != rb) return ra < rb;
                    return a < b;
                  });
        // Compact active-row SoA entry (same arena row order, so the mass
        // accumulation order — and hence every bit — matches the row view).
        lowering.payload_bits.push_back(rows_[r].payload_bits);
        lowering.budget_s.push_back(rows_[r].budget_s);
        lowering.probability.push_back(rows_[r].probability);
        lowering.holder_begin.push_back(static_cast<std::uint32_t>(row_holders));
        lowering.holder_count.push_back(
            static_cast<std::uint32_t>(lowering.holder_links.size() - row_holders));
        lowering.relay.push_back(lowering.relay_eligible[r]);
      }
      lowering.holder_offsets[r + 1] =
          static_cast<std::uint32_t>(lowering.holder_links.size());
    }
    lowering.user_offsets[k + 1] =
        static_cast<std::uint32_t>(lowering.payload_bits.size());
  }
  return lowering;
}

const EvalPlan::PlacementLowering& EvalPlan::lowered(
    const core::PlacementSolution& placement) const {
  const std::uint64_t revision = placement.revision();
  if (lowering_cache_revision_ == revision) {
    ++lowering_hits_;
    return lowering_cache_;
  }
  lowering_cache_ = lower_placement(placement);
  lowering_cache_revision_ = revision;
  ++lowering_builds_;
  return lowering_cache_;
}

double EvalPlan::hit_ratio_lowered(const PlacementLowering& lowering,
                                   const double* inv_rate) const {
  // Same reduction as the scalar kernel, term for term: "exists a covering
  // holder link within budget" is equivalent to "payload * min holder
  // inverse-rate <= budget" because multiplication by a positive payload is
  // monotone under IEEE rounding — so the accumulated mass is bit-identical.
  double hit_mass = 0.0;
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t link_end = link_offsets_[k + 1];
    double best_inv = kInf;
    for (std::size_t l = link_begin; l < link_end; ++l) {
      best_inv = std::min(best_inv, inv_rate[l]);
    }
    for (std::size_t r = row_offsets_[k]; r < row_offsets_[k + 1]; ++r) {
      if (!lowering.active[r]) continue;
      const Row& row = rows_[r];
      double holder_inv = kInf;
      for (std::uint32_t h = lowering.holder_offsets[r];
           h < lowering.holder_offsets[r + 1]; ++h) {
        holder_inv = std::min(holder_inv, inv_rate[lowering.holder_links[h]]);
      }
      bool hit = row.payload_bits * holder_inv <= row.budget_s;  // Eq. 4
      if (!hit && lowering.relay_eligible[r] && best_inv < kInf) {
        // Relay through the fastest covering server (Eq. 5).
        const double latency =
            row.payload_bits / backhaul_bps_ + row.payload_bits * best_inv;
        hit = latency <= row.budget_s;
      }
      if (hit) hit_mass += row.probability;
    }
  }
  return total_mass_ > 0 ? hit_mass / total_mass_ : 0.0;
}

double EvalPlan::hit_ratio_lowered_simd(const PlacementLowering& lowering,
                                        const double* inv_rate,
                                        const support::simd::Ops& ops) const {
  // Decision-equivalent to hit_ratio_lowered, tuned for the hot path: the
  // Eq. 4 scan short-circuits on the first in-budget holder link (under
  // paper-scale budgets most rows hit on the first probe), and the per-user
  // relay min — needed only once a row actually misses Eq. 4 — is computed
  // lazily through the backend's span reduction. The equivalence is exact,
  // not approximate: multiplication by a positive payload is monotone under
  // IEEE rounding, so "some holder within budget" and "min holder
  // inverse-rate within budget" are the same predicate, and min_span is
  // bit-exact vs std::min for the NaN-free fading arrays (simd.h contract).
  // The accumulated mass is therefore bit-identical across kernels/backends.
  double hit_mass = 0.0;
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t span_len = link_offsets_[k + 1] - link_begin;
    double best_inv = -1.0;  // lazy; inverse rates are never negative
    for (std::uint32_t a = lowering.user_offsets[k];
         a < lowering.user_offsets[k + 1]; ++a) {
      const double payload = lowering.payload_bits[a];
      const double budget = lowering.budget_s[a];
      const std::uint32_t* holders =
          lowering.holder_links.data() + lowering.holder_begin[a];
      const std::uint32_t count = lowering.holder_count[a];
      bool hit = false;
      for (std::uint32_t h = 0; h < count; ++h) {
        if (payload * inv_rate[holders[h]] <= budget) {  // Eq. 4
          hit = true;
          break;
        }
      }
      if (!hit && lowering.relay[a]) {
        if (best_inv < 0) {
          best_inv = ops.min_span(inv_rate + link_begin, span_len);
        }
        if (best_inv < kInf) {
          // Relay through the fastest covering server (Eq. 5).
          const double latency = payload / backhaul_bps_ + payload * best_inv;
          hit = latency <= budget;
        }
      }
      if (hit) hit_mass += lowering.probability[a];
    }
  }
  return total_mass_ > 0 ? hit_mass / total_mass_ : 0.0;
}

void EvalPlan::hit_ratio_lowered_block4(const PlacementLowering& lowering,
                                        const double* inv_blocked,
                                        double* ratios) const {
  // Lane-blocked phase C: kLaneBlock (= 4) realizations per pass, lane j
  // reading inv_blocked[link * 4 + j]. One walk over the rows serves four
  // realizations, so the row metadata loads (offsets, payload, budget,
  // probability) amortize 4x and every holder probe is one contiguous
  // 4-double load. Per lane this runs the exact comparison chain of
  // hit_ratio_lowered_simd in the same row order — the per-lane mass (and
  // hence every ratio) is bit-identical to a per-realization evaluation.
  double mass[kLaneBlock] = {0.0, 0.0, 0.0, 0.0};
  constexpr unsigned kAllLanes = (1u << kLaneBlock) - 1;
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t span_len = link_offsets_[k + 1] - link_begin;
    double best_inv[kLaneBlock];
    bool have_best = false;
    for (std::uint32_t a = lowering.user_offsets[k];
         a < lowering.user_offsets[k + 1]; ++a) {
      const double payload = lowering.payload_bits[a];
      const double budget = lowering.budget_s[a];
      const std::uint32_t* holders =
          lowering.holder_links.data() + lowering.holder_begin[a];
      const std::uint32_t count = lowering.holder_count[a];
      const Vec2d payload2 = {payload, payload};
      const Vec2d budget2 = {budget, budget};
      Mask2 hit01 = {0, 0};
      Mask2 hit23 = {0, 0};
      for (std::uint32_t h = 0; h < count; ++h) {
        const double* v = inv_blocked + std::size_t{holders[h]} * kLaneBlock;
        hit01 |= (payload2 * load2(v) <= budget2);      // Eq. 4, lanes 0-1
        hit23 |= (payload2 * load2(v + 2) <= budget2);  // Eq. 4, lanes 2-3
        const Mask2 both = hit01 & hit23;
        if ((both[0] & both[1]) != 0) break;  // all four lanes hit
      }
      unsigned hit = static_cast<unsigned>(hit01[0] & 1) |
                     static_cast<unsigned>(hit01[1] & 2) |
                     static_cast<unsigned>(hit23[0] & 4) |
                     static_cast<unsigned>(hit23[1] & 8);
      if (hit != kAllLanes && lowering.relay[a]) {
        if (!have_best) {
          // Per-lane span min, link order — the vertical layout needs no
          // horizontal reduction at all (and matches std::min bit for bit:
          // the vector select is the exact (x < best ? x : best) chain).
          Vec2d best01 = {kInf, kInf};
          Vec2d best23 = {kInf, kInf};
          const double* span = inv_blocked + link_begin * kLaneBlock;
          for (std::size_t l = 0; l < span_len; ++l) {
            const Vec2d lo = load2(span + l * kLaneBlock);
            const Vec2d hi = load2(span + l * kLaneBlock + 2);
            best01 = lo < best01 ? lo : best01;
            best23 = hi < best23 ? hi : best23;
          }
          best_inv[0] = best01[0];
          best_inv[1] = best01[1];
          best_inv[2] = best23[0];
          best_inv[3] = best23[1];
          have_best = true;
        }
        for (std::size_t j = 0; j < kLaneBlock; ++j) {
          if ((hit >> j & 1u) == 0 && best_inv[j] < kInf) {
            // Relay through the fastest covering server (Eq. 5).
            const double latency = payload / backhaul_bps_ + payload * best_inv[j];
            if (latency <= budget) hit |= 1u << j;
          }
        }
      }
      for (std::size_t j = 0; j < kLaneBlock; ++j) {
        if (hit >> j & 1u) mass[j] += lowering.probability[a];
      }
    }
  }
  for (std::size_t j = 0; j < kLaneBlock; ++j) {
    ratios[j] = total_mass_ > 0 ? mass[j] / total_mass_ : 0.0;
  }
}

double EvalPlan::expected_hit_ratio(const core::PlacementSolution& placement) const {
  check_placement(placement);
  return hit_ratio(placement, avg_inv_rate_.data());
}

support::Summary EvalPlan::fading_hit_ratio(const core::PlacementSolution& placement,
                                            std::size_t realizations,
                                            const support::Rng& rng,
                                            std::size_t threads,
                                            FadingKernel kernel) const {
  if (realizations == 0) {
    throw std::invalid_argument("fading_hit_ratio: zero realizations");
  }
  check_placement(placement);

  const std::size_t links = num_links();
  std::vector<double> ratios(realizations);

  if (kernel == FadingKernel::kScalarReference) {
    support::parallel_for(realizations, threads, [&](std::size_t r) {
      // Per-thread reusable arena scratch: no allocation after warmup, and
      // bounded — a huge scenario no longer pins its peak in every worker.
      std::vector<double>& inv_rate =
          support::this_worker_arena().doubles(kArenaInvRate, links);
      support::Rng real_rng = rng.at(kFadingStream, r);
      for (std::size_t l = 0; l < links; ++l) {
        const double gain = wireless::sample_rayleigh_power_gain(real_rng);
        const double bw = link_bandwidth_hz_[l];
        const double rate =
            bw > 0 ? bw * std::log2(1.0 + link_mean_snr_[l] * gain) : 0.0;
        inv_rate[l] = rate > 0 ? 1.0 / rate : kInf;
      }
      ratios[r] = hit_ratio(placement, inv_rate.data());
    });
  } else if (kernel == FadingKernel::kBatched) {
    // Batched kernel: the cached placement lowering (all the per-link bitset
    // chasing happens outside the realization loop), then blocks of
    // realizations over SoA scratch. Phase A fills the gains (the only
    // sequential part — the counter-based stream is drawn in link order);
    // phase B is a branch-free gain -> inverse-rate transform the compiler
    // can pipeline/vectorize (zero-bandwidth links fall out as 1/0 = +inf,
    // matching the scalar kernel's guards bit for bit); phase C reduces the
    // pre-lowered holder lists.
    const PlacementLowering& lowering = lowered(placement);
    constexpr std::size_t kRealizationBlock = 8;
    const std::size_t num_blocks =
        (realizations + kRealizationBlock - 1) / kRealizationBlock;
    support::parallel_for(num_blocks, threads, [&](std::size_t b) {
      support::WorkerArena& arena = support::this_worker_arena();
      std::vector<double>& gains = arena.doubles(kArenaGains, links);
      std::vector<double>& inv_rate = arena.doubles(kArenaInvRate, links);
      const std::size_t block_end =
          std::min(realizations, (b + 1) * kRealizationBlock);
      for (std::size_t r = b * kRealizationBlock; r < block_end; ++r) {
        support::Rng real_rng = rng.at(kFadingStream, r);
        for (std::size_t l = 0; l < links; ++l) {
          gains[l] = wireless::sample_rayleigh_power_gain(real_rng);
        }
        const double* bw = link_bandwidth_hz_.data();
        const double* snr = link_mean_snr_.data();
        for (std::size_t l = 0; l < links; ++l) {
          inv_rate[l] = 1.0 / (bw[l] * std::log2(1.0 + snr[l] * gains[l]));
        }
        ratios[r] = hit_ratio_lowered(lowering, inv_rate.data());
      }
    });
  } else {
    // SIMD kernel: same three phases, all lane-parallel through the active
    // backend. The per-realization gain stream is counter-based on
    // rng.stream_key(kFadingStream, r) — every lane derives its own draw
    // from (key, link), so generation has no sequential engine to unroll.
    // Realizations run in blocks of kLaneBlock: each lane's gains and
    // inverse rates come from the exact per-realization kernels (staged per
    // lane, then interleaved into the vertical layout), so the blocked hit
    // pass sees bit-identical inputs and any block/chunk grouping — hence
    // any thread count — yields identical ratios. Static chunking (not the
    // dynamic counter) so each worker touches a contiguous realization
    // range — the partition first_touch_copy used for the link arrays.
    const PlacementLowering& lowering = lowered(placement);
    const support::simd::Ops& ops = support::simd::ops();
    support::parallel_for_chunks(
        realizations, threads, [&](std::size_t begin, std::size_t end) {
          support::WorkerArena& arena = support::this_worker_arena();
          std::vector<double>& gains = arena.doubles(kArenaGains, links);
          std::vector<double>& inv_rate = arena.doubles(kArenaInvRate, links);
          std::vector<double>& staging =
              arena.doubles(kArenaStaging, kLaneBlock * links);
          std::vector<double>& blocked =
              arena.doubles(kArenaBlocked, kLaneBlock * links);
          const double* bw = link_bandwidth_hz_.data();
          const double* snr = link_mean_snr_.data();
          std::size_t r = begin;
          for (; r + kLaneBlock <= end; r += kLaneBlock) {
            for (std::size_t j = 0; j < kLaneBlock; ++j) {
              wireless::sample_rayleigh_power_gains(
                  rng.stream_key(kFadingStream, r + j), links, gains.data());
              ops.inv_rate_from_gains(bw, snr, gains.data(), links,
                                      staging.data() + j * links);
            }
            for (std::size_t l = 0; l < links; ++l) {
              double* dst = blocked.data() + l * kLaneBlock;
              for (std::size_t j = 0; j < kLaneBlock; ++j) {
                dst[j] = staging[j * links + l];
              }
            }
            hit_ratio_lowered_block4(lowering, blocked.data(), &ratios[r]);
          }
          for (; r < end; ++r) {
            wireless::sample_rayleigh_power_gains(
                rng.stream_key(kFadingStream, r), links, gains.data());
            ops.inv_rate_from_gains(bw, snr, gains.data(), links,
                                    inv_rate.data());
            ratios[r] = hit_ratio_lowered_simd(lowering, inv_rate.data(), ops);
          }
        });
  }

  // Index-order reduction: identical bits for every thread count.
  support::RunningStats stats;
  for (const double ratio : ratios) stats.add(ratio);
  return support::Summary{stats.mean(), stats.stddev(), stats.min(), stats.max(),
                          stats.count()};
}

}  // namespace trimcaching::sim
