// Request-level online serving engine: the discrete-event processor-sharing
// core grown out of the retired sim::event_sim, rebuilt for 10^6-10^7
// request traces, pluggable per-server caches, and deterministic sharding.
//
// A run has two stages:
//
//  1. Trace generation (serial). Each user k owns the counter-derived stream
//     seed.at(kUserStream, k) and emits a Poisson arrival process; per
//     arrival the stream also draws the requested model (stationary
//     RequestModel probabilities, or a workload::DriftingZipf when
//     configured) and, with average_channel = false, one Rayleigh gain. One
//     delivery rule (the paper's Eq. 4/5) then picks the serving edge
//     server against the *warm* (initial) cache state:
//       - the best covering server whose warm cache fully holds the model
//         serves it directly;
//       - otherwise a static cache relays it over the backhaul to the best
//         covering server, provided some warm holder can source it, and a
//         reactive cache sends it to the best covering server outright.
//     "Best" is the highest downlink spectral efficiency. Every request
//     lands in exactly one per-server bucket, so the shards stay
//     independent. Reactive routes are re-resolved against live cache state
//     inside the shard: admitted models hit, evicted ones fetch again, and
//     models a warm holder could relay are pulled over the backhaul and
//     admitted (cache-on-relay); with no warm holder they come from the
//     cloud.
//
//  2. Sharded replay (parallel). Servers are independent queueing systems:
//     bandwidth B is processor-shared among a server's own active flows,
//     relay and cloud delays are per-request constants, and cache state is
//     per-server. parallel_for distributes the M per-server event loops
//     across config.threads workers; each loop fills its own ServeMetrics
//     slot and the slots are folded in ascending server order. Because the
//     shard boundary is the *server* (fixed M) and not the worker, results
//     are bit-identical for any thread count.
//
// Flow completion events carry a version stamp bumped on every rebalance;
// stale finishes are discarded (and counted). Concurrent misses for the same
// model on one server are merged: the first opens the cloud fetch, later
// ones ride it (merged_fetches) and pay no additional cloud bytes.
//
// Fault injection (ServeConfig::faults, sim/fault_model.h). A deterministic
// FaultSchedule threads through both stages without breaking shard
// independence. Generation applies the same delivery rule fault-aware: only
// servers up at the arrival time qualify, a static relay needs a warm holder
// that is up, and each downlink's SNR is scaled by its server's degradation
// factor. The fault-oblivious pick is the arrival's primary; an arrival
// served while its primary is down counts as a failover. Each shard replays
// its own outage intervals as kServerDown/kServerUp events. At kServerDown
// the in-flight flows are killed and classified — failed_over when another
// up warm holder covering the user survives, aborted otherwise — queued
// transfers die with the epoch stamp, and inference slots reset. At
// kServerUp the cache restarts cold: reactive policies re-warm through their
// normal admit-on-miss machinery (the recovery -> re-warm transient is
// measured as rewarm_time_s once used bytes reach rewarm_fraction of the
// warm footprint), static caches are re-pushed from the placement (operator
// restore). Backhaul transfers are scaled by the schedule's brownout factor,
// which never changes a route. A nullptr — or inert — schedule replays the
// fault-free engine byte for byte (tests/fault_model_test.cc locks this).
#pragma once

#include <string>

#include "src/core/placement.h"
#include "src/model/model_library.h"
#include "src/serve/metrics.h"
#include "src/support/rng.h"
#include "src/wireless/topology.h"
#include "src/workload/drifting_zipf.h"
#include "src/workload/request_model.h"

namespace trimcaching::sim {
class FaultSchedule;
}  // namespace trimcaching::sim

namespace trimcaching::serve {

struct ServeConfig {
  /// Mean request rate per user (requests/second); finite and > 0.
  double arrival_rate_per_user = 0.05;
  /// Simulated horizon in seconds; finite and > 0.
  double duration_s = 600.0;
  /// Flow spectral efficiency uses each user's average channel (distance
  /// path loss); set false to re-draw one Rayleigh gain per request.
  bool average_channel = true;
  /// Cache policy spec per make_cache_policy, one instance per server:
  /// static | lru | ewma[:tau_s=60] | priority.
  std::string policy = "static";
  /// Effective cloud-to-edge fetch rate for reactive cache misses (bit/s);
  /// finite and > 0.
  double cloud_rate_bps = 300e6;
  /// Concurrent edge-inference slots per server; 0 = unlimited (compute-
  /// oblivious replay, bit-identical to the pre-compute engine). A request
  /// holds a slot from admission until its inference finishes (download +
  /// inference_s); an arrival finding every slot busy is rejected to the
  /// cloud — counted compute_rejects, terminal state cloud_served.
  std::size_t compute_slots = 0;
  /// Worker threads for the per-server replay (0 = hardware concurrency).
  /// Results are bit-identical for every value.
  std::size_t threads = 1;
  /// Points of the queue-depth time series (0 = do not sample).
  std::size_t queue_depth_samples = 0;
  /// Optional drifting popularity; nullptr samples the stationary
  /// RequestModel. Not owned; must outlive the call.
  const workload::DriftingZipf* drift = nullptr;
  /// Optional deterministic fault schedule (sim/fault_model.h); its server
  /// count must match the topology. nullptr — and an inert schedule with no
  /// faults of any kind — replays the fault-free engine byte for byte. Not
  /// owned; must outlive the call.
  const sim::FaultSchedule* faults = nullptr;
  /// Windows of the time-sliced hit-ratio series over the duration
  /// (ServeMetrics::window_requests / window_hits); 0 = do not record.
  std::size_t hit_series_windows = 0;
  /// A recovered reactive cache counts as re-warmed once its used bytes
  /// climb back to this fraction of its warm-placement footprint.
  double rewarm_fraction = 0.9;

  /// Throws std::invalid_argument naming the offending knob: a rate,
  /// duration or cloud rate that is NaN, infinite or <= 0, a rewarm
  /// fraction outside (0, 1], or a bad policy spec (ewma's tau_s included).
  void validate() const;
};

struct ServeResult {
  ServeMetrics totals;

  // Derived from `totals` (finalized once after the ordered reduction).
  double hit_ratio = 0.0;        ///< deadline hits / requests issued
  double mean_download_s = 0.0;  ///< over completed downloads
  double p50_download_s = 0.0;   ///< histogram quantiles (log-bin midpoints)
  double p95_download_s = 0.0;
  double p99_download_s = 0.0;
  double mean_concurrency = 0.0;  ///< time-averaged flows per busy server
  double served_rps = 0.0;        ///< completed downloads per simulated
                                  ///< second (completed / duration_s)
  double mean_rewarm_s = 0.0;     ///< mean recovery -> re-warm transient
                                  ///< (0 when no re-warm completed)
};

/// Replays `config.duration_s` seconds of Poisson traffic against the
/// placement. Deterministic in (inputs, seed) — `seed` is consumed via
/// counter-based derivation only — and independent of config.threads.
[[nodiscard]] ServeResult simulate_serving(const wireless::NetworkTopology& topology,
                                           const model::ModelLibrary& library,
                                           const workload::RequestModel& requests,
                                           const core::PlacementSolution& placement,
                                           const ServeConfig& config,
                                           const support::Rng& seed);

}  // namespace trimcaching::serve
