#include "src/serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/serve/cache_policy.h"
#include "src/sim/fault_model.h"
#include "src/support/parallel.h"
#include "src/support/units.h"
#include "src/wireless/channel.h"

namespace trimcaching::serve {

void ServeConfig::validate() const {
  const auto require_positive = [](double value, const char* knob) {
    if (!std::isfinite(value) || value <= 0) {
      throw std::invalid_argument(std::string("ServeConfig: ") + knob +
                                  " must be finite and > 0, got " +
                                  std::to_string(value));
    }
  };
  require_positive(arrival_rate_per_user, "arrival_rate_per_user");
  require_positive(duration_s, "duration_s");
  require_positive(cloud_rate_bps, "cloud_rate_bps");
  if (std::isnan(rewarm_fraction) || rewarm_fraction <= 0 || rewarm_fraction > 1) {
    throw std::invalid_argument("ServeConfig: rewarm fraction must be in (0, 1]");
  }
  (void)make_cache_policy(policy);  // throws on unknown spec
}

namespace {

/// Counter-based stream id: user k's whole request trace (arrival gaps,
/// model draws, fading gains) comes from seed.at(kUserStream, k).
constexpr std::uint64_t kUserStream = 0x5e42e7e5;

/// How a routed request reaches its payload. Routing happens at generation
/// time against the *warm* (initial) cache state only, so the per-server
/// replay shards stay independent; reactive routes are then re-resolved
/// against live cache state inside the shard.
enum class Route : std::uint8_t {
  kBestCovering,  ///< reactive: hit/miss re-resolved against live cache state
  kDirect,        ///< static: serving server fully caches the model
  kRelay,         ///< static: payload crosses the backhaul first
};

/// Hit-series window of timestamp t on the W-window grid over the duration
/// (the last window is closed, so t = duration lands in it).
std::size_t hit_window(double t, double duration_s, std::size_t windows) {
  const auto w = static_cast<std::size_t>(t / duration_s * static_cast<double>(windows));
  return std::min(windows - 1, w);
}

/// Some warm holder of a model can source a relay at t: any holder at all
/// without a fault schedule, a holder up at t with one.
bool any_holder_up(const std::vector<ServerId>& holders, const sim::FaultSchedule* faults,
                   double t) {
  if (faults == nullptr) return !holders.empty();
  return std::any_of(holders.begin(), holders.end(),
                     [&](ServerId m) { return faults->is_up(m, t); });
}

/// A delivery decision: the serving server (kInvalidId = unserved), the
/// spectral efficiency of its downlink, and how the payload reaches it.
struct RoutePick {
  ServerId server = kInvalidId;
  double se = 0.0;
  Route route = Route::kBestCovering;
};

struct Request {
  double time = 0.0;
  UserId user = 0;
  ModelId model = 0;
  double spectral_efficiency = 0.0;  ///< bits/s/Hz on the chosen downlink
  Route route = Route::kBestCovering;
  std::uint64_t seq = 0;  ///< global issue order; sort tie-break
};

struct Flow {
  double request_time = 0.0;
  double budget_s = 0.0;      ///< deadline minus inference latency
  double work = 0.0;          ///< download bits / spectral efficiency (Hz·s)
  double inference_s = 0.0;   ///< edge inference service time (slot hold)
  UserId user = 0;            ///< failover classification on an outage
  ModelId model = 0;
};

enum class EventKind : std::uint8_t {
  kFlowStart,
  kFlowFinish,
  kInferFinish,
  kServerDown,  ///< outage begins: kill in-flight work, mark the shard down
  kServerUp,    ///< recovery: the cache restarts cold
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kFlowStart;
  std::size_t flow = 0;
  /// kFlowFinish: schedule version (stale-finish detection). kFlowStart and
  /// kInferFinish: outage epoch — a transfer or inference slot opened before
  /// a kServerDown died with it, so a mismatched pop is discarded (the flow
  /// is classified failed_over/aborted instead of attaching). Both stamps
  /// are 0 forever in a fault-free run, preserving byte identity.
  std::uint64_t version = 0;

  bool operator>(const Event& other) const { return time > other.time; }
};

/// One server's replay: an independent processor-sharing queue fed by its
/// (time-sorted) request bucket, with its own cache policy, pending-fetch
/// merge map and metrics slot.
///
/// Processor sharing is simulated in virtual time: every active flow's rate
/// is (B/n)·SE, so its normalized work (bits/SE) drains at the common rate
/// B/n and the finish *order* is fixed at attach time. The loop keeps the
/// active flows in a set ordered by drain key (virtual time at attach plus
/// normalized work) and schedules a single versioned finish event for the
/// front flow — O(log n) per event instead of rescheduling all n flows on
/// every change, which is what lets one run replay 10^6+ requests.
class ServerLoop {
 public:
  ServerLoop(const wireless::NetworkTopology& topology,
             const model::ModelLibrary& library,
             const workload::RequestModel& requests, const ServeConfig& config,
             CachePolicy& policy, std::vector<Request> bucket, ServerId self,
             const sim::FaultSchedule* faults,
             const std::vector<std::vector<ServerId>>& warm_holders,
             const std::vector<ModelId>& warm_models)
      : topology_(&topology),
        library_(&library),
        requests_(&requests),
        config_(&config),
        policy_(&policy),
        reactive_(policy.reactive()),
        bandwidth_hz_(topology.radio().total_bandwidth_hz),
        compute_slots_(config.compute_slots),
        self_(self),
        faults_(faults),
        warm_holders_(&warm_holders),
        warm_models_(&warm_models),
        warm_bytes_(policy.used_bytes()),
        bucket_(std::move(bucket)) {
    std::sort(bucket_.begin(), bucket_.end(), [](const Request& a, const Request& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
    if (config.queue_depth_samples > 0) {
      metrics_.queue_depth.reserve(config.queue_depth_samples);
    }
    if (config.hit_series_windows > 0) {
      metrics_.window_hits.assign(config.hit_series_windows, 0);
    }
    if (faults_ != nullptr) {
      rewarm_threshold_ = static_cast<support::Bytes>(
          config.rewarm_fraction * static_cast<double>(warm_bytes_));
      // The shard's whole outage trajectory is known up front; replaying it
      // as ordinary queue events keeps one loop and one tie-break rule (a
      // down/up boundary at an arrival's timestamp is processed first, the
      // exact convention generation's is_up() check assumes: down on
      // [begin, end), up again at end).
      for (const sim::FaultInterval& outage : faults_->outages(self_)) {
        queue_.push(Event{outage.begin_s, EventKind::kServerDown, 0, 0});
        queue_.push(Event{outage.end_s, EventKind::kServerUp, 0, 0});
      }
    }
  }

  ServeMetrics run() {
    std::size_t next = 0;
    while (next < bucket_.size() || !queue_.empty()) {
      // Simultaneous queue event vs arrival: the queue event goes first (a
      // fixed rule, so replay order never depends on scheduling).
      if (!queue_.empty() &&
          (next >= bucket_.size() || queue_.top().time <= bucket_[next].time)) {
        const Event event = queue_.top();
        queue_.pop();
        sample_queue_depth(event.time);
        switch (event.kind) {
          case EventKind::kFlowStart:
            if (event.version == epoch_) {
              attach_flow(event.flow, event.time);
            } else {
              // The transfer this start was waiting on died with an outage.
              classify_killed(event.flow, event.time);
            }
            break;
          case EventKind::kFlowFinish:
            if (event.version == schedule_version_) {
              finish_flow(event.time);
            } else {
              ++metrics_.stale_events;
            }
            break;
          case EventKind::kInferFinish:
            if (event.version == epoch_) {
              --inferences_active_;  // slot held since admission
            } else {
              ++metrics_.stale_events;  // slot already reset by the outage
            }
            break;
          case EventKind::kServerDown:
            handle_outage(event.time);
            break;
          case EventKind::kServerUp:
            handle_recovery(event.time);
            break;
        }
      } else {
        const Request& request = bucket_[next++];
        sample_queue_depth(request.time);
        handle_arrival(request);
      }
    }
    // Grid points past the last event see an empty server.
    sample_queue_depth(config_->duration_s * 2.0 + 1.0);
    metrics_.cache_evictions = policy_->evictions();
    return std::move(metrics_);
  }

 private:
  void handle_arrival(const Request& request) {
    const double now = request.time;
    const ModelId i = request.model;
    // Unreachable under the generation contract (arrivals are only routed to
    // servers up at their timestamp, and boundary events at the same time
    // are processed first); kept as a terminal-partition-preserving guard.
    if (down_) {
      ++metrics_.unserved;
      return;
    }
    policy_->on_request(i, now);

    Flow flow;
    flow.request_time = now;
    flow.user = request.user;
    flow.model = i;
    flow.inference_s = requests_->inference_s(request.user, i);
    flow.budget_s = requests_->deadline_s(request.user, i) - flow.inference_s;
    // A non-positive budget can never be met: count it unserved at attach
    // instead of enqueueing a flow that is guaranteed to finish late (and
    // would meanwhile steal bandwidth from flows that could still hit).
    if (flow.budget_s <= 0.0) {
      ++metrics_.unserved;
      return;
    }
    // Compute admission: a request holds one inference slot from admission
    // until its inference completes. A saturated server rejects to the
    // cloud — the warm-hit bytes are useless without compute headroom.
    if (compute_slots_ > 0) {
      if (inferences_active_ >= compute_slots_) {
        ++metrics_.compute_rejects;
        ++metrics_.cloud_served;
        return;
      }
      ++inferences_active_;
    }
    flow.work = support::bits(library_->model_size(i)) / request.spectral_efficiency;
    flows_.push_back(flow);
    const std::size_t idx = flows_.size() - 1;

    if (request.route == Route::kDirect) {
      ++metrics_.edge_hits;
      attach_flow(idx, now);
      return;
    }
    if (!reactive_) {
      // Static relay: the payload crosses the backhaul, the cache is
      // untouched (the placement stays authoritative forever).
      ++metrics_.relays;
      const double backhaul_delay =
          support::bits(library_->model_size(i)) / edge_backhaul_bps(now);
      queue_.push(Event{now + backhaul_delay, EventKind::kFlowStart, idx, epoch_});
      return;
    }

    // Reactive: resolve against live cache state, merging concurrent misses
    // for one model into a single transfer (backhaul or cloud).
    const support::Bytes missing = policy_->missing_bytes(i);
    const auto pending = pending_fetch_.find(i);
    const bool in_flight = pending != pending_fetch_.end() && pending->second > now;
    if (missing == 0) {
      if (in_flight) {
        // Admitted optimistically by an earlier miss whose transfer is still
        // on the wire: ride it instead of pretending the blocks are local.
        ++metrics_.merged_fetches;
        queue_.push(Event{pending->second, EventKind::kFlowStart, idx, epoch_});
      } else {
        ++metrics_.edge_hits;
        attach_flow(idx, now);
      }
      return;
    }
    double ready = 0.0;
    if (any_holder_up((*warm_holders_)[i], faults_, now)) {
      // Cache-on-relay: the warm placement put this model somewhere (still
      // up, under a fault schedule), so the missing blocks are pulled over
      // the backhaul (not the cloud) and admitted — the first relay pays the
      // price a static cache pays on every one, then the model serves
      // locally.
      ++metrics_.relays;
      ready = now + support::bits(missing) / edge_backhaul_bps(now);
    } else {
      ++metrics_.cloud_fetches;
      metrics_.cloud_bytes += missing;
      ready = now + support::bits(missing) / config_->cloud_rate_bps;
    }
    // Blocks evicted while their model's transfer was still in flight: the
    // new transfer completes no earlier than the one it overlaps.
    if (in_flight) ready = std::max(ready, pending->second);
    pending_fetch_[i] = ready;
    policy_->admit(i, now);
    check_rewarmed(now);
    queue_.push(Event{ready, EventKind::kFlowStart, idx, epoch_});
  }

  /// Effective edge backhaul rate at `now`: scaled by the schedule's
  /// brownout factor. The multiply only exists under a fault schedule, so a
  /// fault-free replay keeps the exact original arithmetic.
  [[nodiscard]] double edge_backhaul_bps(double now) const {
    const double base = topology_->radio().backhaul_bps;
    return faults_ == nullptr ? base : base * faults_->backhaul_factor(now);
  }

  /// Terminal classification of a flow killed by this server's outage:
  /// failed_over when another up warm holder covering the user survives (a
  /// real deployment would re-dispatch there), aborted when nothing does.
  void classify_killed(std::size_t idx, double now) {
    const Flow& flow = flows_[idx];
    bool survivable = false;
    const auto& cover = topology_->servers_covering(flow.user);
    for (const ServerId holder : (*warm_holders_)[flow.model]) {
      if (holder == self_ || !faults_->is_up(holder, now)) continue;
      if (std::binary_search(cover.begin(), cover.end(), holder)) {
        survivable = true;
        break;
      }
    }
    if (survivable) {
      ++metrics_.failed_over;
    } else {
      ++metrics_.aborted;
    }
  }

  void handle_outage(double now) {
    ++metrics_.outages;
    advance(now);
    down_ = true;
    ++epoch_;  // queued transfers and inference slots die with the server
    for (const auto& entry : active_) classify_killed(entry.second, now);
    active_.clear();
    pending_fetch_.clear();
    inferences_active_ = 0;
    rewarm_pending_ = false;  // died again before re-warming
    schedule_next(now);       // version bump: outstanding finishes go stale
  }

  void handle_recovery(double now) {
    ++metrics_.recoveries;
    down_ = false;
    policy_->restart();  // cold cache: nothing survives the power cycle
    if (reactive_) {
      // Re-warm through the normal admit-on-miss machinery; measure the
      // transient until the warm footprint is substantially restored.
      rewarm_pending_ = rewarm_threshold_ > 0;
      rewarm_start_ = now;
    } else {
      // A static cache has no refill path (misses relay, never admit): model
      // the operator re-pushing the placement as part of the restart.
      policy_->warm(*warm_models_);
    }
  }

  void check_rewarmed(double now) {
    if (!rewarm_pending_ || policy_->used_bytes() < rewarm_threshold_) return;
    metrics_.rewarm_time_s += now - rewarm_start_;
    ++metrics_.rewarms;
    rewarm_pending_ = false;
  }

  /// Advances the busy/flow-time integrals and the virtual drain clock to
  /// `now` (piecewise linear: the active count is constant between changes).
  void advance(double now) {
    const double elapsed = now - last_change_;
    const auto n = static_cast<double>(active_.size());
    if (elapsed > 0 && !active_.empty()) {
      metrics_.busy_time_s += elapsed;
      metrics_.flow_time_s += elapsed * n;
      virtual_time_ += elapsed * bandwidth_hz_ / n;
    }
    last_change_ = now;
  }

  /// (Re)schedules the single outstanding finish event for the front flow;
  /// any previously scheduled finish goes stale via the version bump.
  void schedule_next(double now) {
    ++schedule_version_;
    if (active_.empty()) return;
    const double gap = std::max(0.0, (active_.begin()->first - virtual_time_) *
                                         static_cast<double>(active_.size()) /
                                         bandwidth_hz_);
    queue_.push(Event{now + gap, EventKind::kFlowFinish, active_.begin()->second,
                      schedule_version_});
  }

  void attach_flow(std::size_t idx, double now) {
    advance(now);
    active_.insert({virtual_time_ + flows_[idx].work, idx});
    schedule_next(now);
  }

  void finish_flow(double now) {
    advance(now);
    const auto front = active_.begin();
    const Flow& flow = flows_[front->second];
    const double download = now - flow.request_time;
    metrics_.download_sum_s += download;
    metrics_.latency.add(download);
    if (download <= flow.budget_s) {
      ++metrics_.deadline_hits;
      if (!metrics_.window_hits.empty()) {
        // Windowed by arrival time, so a recovery transient shows where the
        // demand arrived, not where its download finished.
        ++metrics_.window_hits[hit_window(flow.request_time, config_->duration_s,
                                          metrics_.window_hits.size())];
      }
    } else {
      ++metrics_.late;
    }
    if (compute_slots_ > 0) {
      // Release the admission slot once the edge inference completes.
      queue_.push(Event{now + flow.inference_s, EventKind::kInferFinish,
                        front->second, epoch_});
    }
    active_.erase(front);
    schedule_next(now);
  }

  /// Records the active-flow count for every grid point strictly before
  /// `now` that has not been sampled yet (events are processed in time
  /// order, so the count is exact at each grid time).
  void sample_queue_depth(double now) {
    const std::size_t samples = config_->queue_depth_samples;
    while (metrics_.queue_depth.size() < samples) {
      const double grid_time = static_cast<double>(metrics_.queue_depth.size()) *
                               config_->duration_s / static_cast<double>(samples);
      if (grid_time >= now) break;
      metrics_.queue_depth.push_back(static_cast<std::uint32_t>(active_.size()));
    }
  }

  const wireless::NetworkTopology* topology_;
  const model::ModelLibrary* library_;
  const workload::RequestModel* requests_;
  const ServeConfig* config_;
  CachePolicy* policy_;
  bool reactive_ = false;
  double bandwidth_hz_ = 0.0;
  std::size_t compute_slots_ = 0;   ///< 0 = unlimited (no admission control)
  std::size_t inferences_active_ = 0;
  ServerId self_ = 0;
  const sim::FaultSchedule* faults_ = nullptr;  ///< nullptr = fault-free replay
  const std::vector<std::vector<ServerId>>* warm_holders_;  ///< per model
  const std::vector<ModelId>* warm_models_;  ///< placement re-push
  support::Bytes warm_bytes_ = 0;          ///< warm-placement footprint
  support::Bytes rewarm_threshold_ = 0;    ///< bytes counting as re-warmed
  bool down_ = false;
  bool rewarm_pending_ = false;
  double rewarm_start_ = 0.0;
  std::uint64_t epoch_ = 0;  ///< bumped per outage; stamps starts/slots
  std::vector<Request> bucket_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<Flow> flows_;
  /// Active flows by (drain key, flow); begin() always finishes next.
  std::set<std::pair<double, std::size_t>> active_;
  std::unordered_map<ModelId, double> pending_fetch_;  ///< model -> ready time
  double virtual_time_ = 0.0;  ///< integral of B/n over busy time (Hz·s)
  double last_change_ = 0.0;
  std::uint64_t schedule_version_ = 0;
  ServeMetrics metrics_;
};

/// Stationary per-user sampling CDF over the RequestModel's p > 0 support.
struct UserCdf {
  std::vector<std::pair<double, ModelId>> entries;

  [[nodiscard]] ModelId sample(support::Rng& rng) const {
    const double x = rng.uniform(0.0, entries.back().first);
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), x,
        [](const std::pair<double, ModelId>& e, double v) { return e.first < v; });
    return it == entries.end() ? entries.back().second : it->second;
  }
};

}  // namespace

ServeResult simulate_serving(const wireless::NetworkTopology& topology,
                             const model::ModelLibrary& library,
                             const workload::RequestModel& requests,
                             const core::PlacementSolution& placement,
                             const ServeConfig& config, const support::Rng& seed) {
  config.validate();
  if (placement.num_servers() != topology.num_servers() ||
      placement.num_models() != library.num_models() ||
      requests.num_users() != topology.num_users()) {
    throw std::invalid_argument("simulate_serving: dimension mismatch");
  }
  if (config.drift != nullptr && config.drift->num_models() != library.num_models()) {
    throw std::invalid_argument("simulate_serving: drift/library model count mismatch");
  }
  if (config.faults != nullptr &&
      config.faults->num_servers() != topology.num_servers()) {
    throw std::invalid_argument(
        "simulate_serving: fault schedule/topology server count mismatch");
  }
  // Inert schedules collapse to nullptr up front, so "no faults configured"
  // and "a schedule that happens to contain no faults" run the exact same
  // code path — byte-identical results by construction.
  const sim::FaultSchedule* faults =
      config.faults != nullptr && !config.faults->inert() ? config.faults : nullptr;

  const std::size_t num_servers = topology.num_servers();
  const std::size_t num_users = topology.num_users();

  // One cache per server, seeded from the offline placement.
  std::vector<std::unique_ptr<CachePolicy>> policies;
  policies.reserve(num_servers);
  for (ServerId m = 0; m < num_servers; ++m) {
    policies.push_back(make_cache_policy(config.policy));
    policies.back()->bind(library, topology.capacity(m));
    policies.back()->warm(placement.models_on(m));
  }
  const bool reactive = num_servers > 0 && policies.front()->reactive();

  // Per-link spectral efficiency at mean channel. SNR is share-invariant
  // (power and bandwidth shares scale together), so the CSR mean SNR equals
  // the full-band SNR and the share enters only through the flow rate.
  const auto& offsets = topology.covering_offsets();
  const auto& covering = topology.covering_flat();
  const auto& snr = topology.link_mean_snr();
  std::vector<double> mean_se(snr.size());
  for (std::size_t l = 0; l < snr.size(); ++l) mean_se[l] = std::log2(1.0 + snr[l]);

  std::vector<UserCdf> cdfs;
  if (config.drift == nullptr) {
    cdfs.resize(num_users);
    for (UserId k = 0; k < num_users; ++k) {
      double acc = 0.0;
      for (const workload::RequestCell& cell : requests.requested(k)) {
        acc += cell.probability;
        cdfs[k].entries.emplace_back(acc, cell.model);
      }
    }
  }

  // Routing consults the warm (initial) cache state only, so it can be
  // tabulated once, in one M·I pass: warm_cached[m * I + i] = server m's warm
  // cache fully holds model i, and warm_holders[i] lists those servers in
  // ascending order (the relay sources; for a static cache they never change,
  // for a reactive one the replay re-resolves live state inside the shard).
  const std::size_t num_models = library.num_models();
  std::vector<char> warm_cached(num_servers * num_models);
  std::vector<std::vector<ServerId>> warm_holders(num_models);
  for (ServerId m = 0; m < num_servers; ++m) {
    for (ModelId i = 0; i < num_models; ++i) {
      if (!policies[m]->fully_cached(i)) continue;
      warm_cached[m * num_models + i] = 1;
      warm_holders[i].push_back(m);
    }
  }

  // Stage 1: serial trace generation into per-server buckets.
  ServeMetrics generation;
  const std::size_t windows = config.hit_series_windows;
  if (windows > 0) generation.window_requests.assign(windows, 0);
  std::vector<std::vector<Request>> buckets(num_servers);
  std::uint64_t seq = 0;
  for (UserId k = 0; k < num_users; ++k) {
    support::Rng rng = seed.at(kUserStream, k);
    const std::size_t begin = offsets[k];
    const std::size_t end = offsets[k + 1];
    for (double t = rng.exponential(config.arrival_rate_per_user);
         t <= config.duration_s; t += rng.exponential(config.arrival_rate_per_user)) {
      const ModelId i = config.drift != nullptr ? config.drift->sample(t, rng)
                                                : cdfs[k].sample(rng);
      const double gain = config.average_channel
                              ? 1.0
                              : wireless::sample_rayleigh_power_gain(rng);
      ++generation.requests;
      ++seq;
      if (windows > 0) {
        ++generation.window_requests[hit_window(t, config.duration_s, windows)];
      }

      const auto link_se = [&](std::size_t l) {
        return config.average_channel ? mean_se[l] : std::log2(1.0 + snr[l] * gain);
      };
      // The delivery rule (Eq. 4/5): the best covering server whose warm
      // cache fully holds the model serves it directly. Otherwise a static
      // cache relays from a warm holder over the backhaul (it never falls
      // back to the cloud), and a reactive cache takes the best covering
      // server outright; its replay pulls the miss from a warm holder or the
      // cloud and admits it (cache-on-relay). Warm holders come first even
      // for a reactive cache, so it never routes worse than its placement.
      // A fault-aware pick only considers servers up at t, needs a surviving
      // holder to source a static relay, and scales each link's SNR by its
      // server's degradation factor (exactly 1 keeps the undegraded bits).
      const auto pick = [&](bool fault_aware) {
        RoutePick best;
        const auto scan = [&](bool warm_only) {
          for (std::size_t l = begin; l < end; ++l) {
            const ServerId m = covering[l];
            if (warm_only && warm_cached[m * num_models + i] == 0) continue;
            if (fault_aware && !faults->is_up(m, t)) continue;
            const double factor = fault_aware ? faults->snr_factor(m, t) : 1.0;
            const double se =
                factor == 1.0 ? link_se(l) : std::log2(1.0 + snr[l] * gain * factor);
            if (se > best.se) {
              best.se = se;
              best.server = m;
            }
          }
        };
        scan(true);
        if (best.server != kInvalidId) {
          if (!reactive) best.route = Route::kDirect;
        } else if (reactive) {
          scan(false);
        } else if (any_holder_up(warm_holders[i], fault_aware ? faults : nullptr, t)) {
          scan(false);
          best.route = Route::kRelay;
        }
        return best;
      };
      const RoutePick route = pick(faults != nullptr);
      if (route.server == kInvalidId) {
        ++generation.unserved;
        continue;
      }
      // Failovers count against the fault-oblivious primary: the pick the
      // fault-free engine would have made, consulted only for this count.
      if (faults != nullptr) {
        const ServerId primary = pick(false).server;
        if (primary != kInvalidId && !faults->is_up(primary, t)) ++generation.failovers;
      }
      Request request;
      request.time = t;
      request.user = k;
      request.model = i;
      request.spectral_efficiency = route.se;
      request.route = route.route;
      request.seq = seq;
      buckets[route.server].push_back(request);
    }
  }

  // Stage 2: independent per-server replays, one metrics slot each, folded
  // in server order (bit-identical at any thread count).
  std::vector<ServeMetrics> slots(num_servers);
  support::parallel_for(
      num_servers, support::resolve_threads(config.threads), [&](std::size_t m) {
        const auto server = static_cast<ServerId>(m);
        ServerLoop loop(topology, library, requests, config, *policies[m],
                        std::move(buckets[m]), server, faults, warm_holders,
                        placement.models_on(server));
        slots[m] = loop.run();
      });

  ServeResult result;
  result.totals = std::move(generation);
  for (ServerId m = 0; m < num_servers; ++m) result.totals.merge(slots[m]);

  const ServeMetrics& totals = result.totals;
  if (totals.requests > 0) {
    result.hit_ratio = static_cast<double>(totals.deadline_hits) /
                       static_cast<double>(totals.requests);
  }
  if (totals.completed() > 0) {
    result.mean_download_s =
        totals.download_sum_s / static_cast<double>(totals.completed());
    result.p50_download_s = totals.latency.quantile(0.50);
    result.p95_download_s = totals.latency.quantile(0.95);
    result.p99_download_s = totals.latency.quantile(0.99);
  }
  if (totals.busy_time_s > 0) {
    result.mean_concurrency = totals.flow_time_s / totals.busy_time_s;
  }
  result.served_rps = static_cast<double>(totals.completed()) / config.duration_s;
  if (totals.rewarms > 0) {
    result.mean_rewarm_s = totals.rewarm_time_s / static_cast<double>(totals.rewarms);
  }
  return result;
}

}  // namespace trimcaching::serve
