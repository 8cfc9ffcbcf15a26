// perfbench: the repository benchmark program. One process runs one workload:
//
//   perfbench --workload plan-100x|serve-drift-1m|montecarlo-10x
//             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// A run builds the workload's inputs from the seed (set-up, repeated and
// timed), runs one untimed warm-up iteration whose outputs become the
// reference, then repeats timed iterations for --seconds. Every iteration is
// one operation; it fails when it throws or its outputs differ from the
// reference. After the loop the workload's output checks run once, untimed.
// Each iteration runs two legs, (a) and (b); their medians are the
// end-to-end wall metrics (see perfbench/README.md for what each leg does).
//
// --trace 1 instead reports per-layer metrics: the loop alternates untraced
// and traced iterations (the median ratio is the tracing overhead), then a
// layer pass calls each module's public functions on this workload's inputs
// and times them from here. Every timed call is recorded as a span (name,
// start, end, parent) in memory and written once at exit to --spans as a
// Chrome trace-event file. Nothing inside src/ is instrumented.
//
// The last line of stdout is one JSON object: workload, seed, threads,
// correct, ops, ops_failed, checks and metrics (value, unit, samples).
// perfbench/run.py builds this binary, runs it and checks the metric names
// against BENCHMARK.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/solver_registry.h"
#include "src/serve/cache_policy.h"
#include "src/serve/engine.h"
#include "src/sim/evaluator.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/placement_repair.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"
#include "src/support/parallel.h"
#include "src/support/resource.h"
#include "src/workload/drifting_zipf.h"

namespace {

using namespace trimcaching;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  double start_s = 0.0;  ///< since process start
  double end_s = 0.0;
  long parent = -1;      ///< index of the enclosing span, -1 = root
};

/// In-memory span recorder. Disabled, open() returns -1 and records nothing,
/// so an untraced run pays two branch tests per timed call.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  long open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), 0.0, current_});
    current_ = static_cast<long>(spans_.size()) - 1;
    return current_;
  }
  void close(long index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_s = now();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  /// Chrome trace-event JSON (complete "X" events, microseconds), loadable
  /// in Perfetto or chrome://tracing; each event's args name its parent.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    out << std::setprecision(12) << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
          << ", \"ts\": " << s.start_s * 1e6 << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("failed writing span file " + path);
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  long current_ = -1;
};

Tracer tracer;

/// Runs `fn` once and returns its wall seconds; a span when tracing is on.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  const long span = tracer.open(name);
  const auto start = Clock::now();
  fn();
  const double wall = seconds_between(start, Clock::now());
  tracer.close(span);
  return wall;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Value at quantile q (nearest rank) of a sample.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::optional<double> p90;  ///< only with at least ten samples above it
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::size_t ops = 0;
  std::size_t ops_failed = 0;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics.push_back({name, value, unit, samples, std::nullopt});
  }
  /// A timing: the median of `samples`, with p90 once 100 samples give ten
  /// beyond it.
  void add_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit = "s") {
    Metric metric{name, median(samples), unit, samples.size(), std::nullopt};
    if (samples.size() >= 100) metric.p90 = quantile(samples, 0.9);
    metrics.push_back(std::move(metric));
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.emplace_back(name, ok);
    std::cerr << "check " << name << ": " << (ok ? "ok" : "FAILED");
    if (!detail.empty()) std::cerr << " (" << detail << ")";
    std::cerr << "\n";
  }
  [[nodiscard]] bool correct() const {
    return ops_failed == 0 &&
           std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
  }
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_json(const Report& report, const std::string& workload, std::uint64_t seed,
                std::size_t threads) {
  std::ostringstream out;
  out << std::setprecision(17) << "{\"workload\": " << json_string(workload)
      << ", \"seed\": " << seed << ", \"threads\": " << threads
      << ", \"correct\": " << (report.correct() ? "true" : "false")
      << ", \"ops\": " << report.ops << ", \"ops_failed\": " << report.ops_failed
      << ", \"checks\": {";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.checks[i].first) << ": "
        << (report.checks[i].second ? "true" : "false");
  }
  out << "}, \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << m.value
        << ", \"unit\": " << json_string(m.unit) << ", \"samples\": " << m.samples;
    if (m.p90) out << ", \"p90\": " << *m.p90;
    out << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------- shared pieces

bool same_placements(const core::PlacementSolution& a, const core::PlacementSolution& b) {
  if (a.num_servers() != b.num_servers() || a.total_placements() != b.total_placements()) {
    return false;
  }
  for (ServerId m = 0; m < a.num_servers(); ++m) {
    auto lhs = a.models_on(m);
    auto rhs = b.models_on(m);
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    if (lhs != rhs) return false;
  }
  return true;
}

bool same_summary(const support::Summary& a, const support::Summary& b) {
  return a.mean == b.mean && a.stddev == b.stddev && a.min == b.min && a.max == b.max &&
         a.count == b.count;
}

/// SolverStats equality on everything but wall-clock runtime.
bool same_stats(const std::vector<sim::SolverStats>& a, const std::vector<sim::SolverStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].spec != b[s].spec || !same_summary(a[s].fading_hit_ratio, b[s].fading_hit_ratio) ||
        !same_summary(a[s].expected_hit_ratio, b[s].expected_hit_ratio) ||
        !same_summary(a[s].gain_evaluations, b[s].gain_evaluations) ||
        !same_summary(a[s].iterations, b[s].iterations)) {
      return false;
    }
  }
  return true;
}

bool same_replay(const serve::ServeResult& a, const serve::ServeResult& b) {
  const auto& x = a.totals;
  const auto& y = b.totals;
  return x.requests == y.requests && x.deadline_hits == y.deadline_hits && x.late == y.late &&
         x.unserved == y.unserved && x.compute_rejects == y.compute_rejects &&
         x.cloud_served == y.cloud_served && x.edge_hits == y.edge_hits &&
         x.relays == y.relays && x.cloud_fetches == y.cloud_fetches &&
         x.merged_fetches == y.merged_fetches && x.cloud_bytes == y.cloud_bytes &&
         x.cache_evictions == y.cache_evictions && x.stale_events == y.stale_events &&
         x.failed_over == y.failed_over && x.aborted == y.aborted &&
         x.download_sum_s == y.download_sum_s && x.busy_time_s == y.busy_time_s &&
         x.flow_time_s == y.flow_time_s && a.p50_download_s == b.p50_download_s &&
         a.p95_download_s == b.p95_download_s && a.p99_download_s == b.p99_download_s;
}

/// Reproduces a committed record (printed with six decimals) at the
/// workload's default seed.
void check_record(Report& report, const std::string& name, double value, double record) {
  std::ostringstream detail;
  detail << std::setprecision(9) << value << " vs record " << record;
  report.check(name, std::abs(value - record) <= 5e-7, detail.str());
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;  ///< --seed, or the workload's default
  std::uint64_t default_seed = 0;  ///< the seed the committed records used
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::size_t threads = 1;  ///< T = min(4, hardware threads)
};

/// Builds the workload's inputs into `slot` with `make` (at least 5 times
/// and for at least 1 s, at most 200 times) and reports the median wall as
/// setup_s; the previous build is destroyed outside the timing. The last
/// build is what the workload then uses.
template <class T, class Make>
void measure_setup(Report& report, std::optional<T>& slot, Make&& make) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    slot.reset();
    walls.push_back(timed("setup", [&] { slot.emplace(make()); }));
  } while (walls.size() < 200 &&
           (walls.size() < 5 || seconds_between(start, Clock::now()) < 1.0));
  report.add_timing("setup_s", walls);
}

/// Resets the process's resident-set high-water mark to its current RSS
/// (Linux clear_refs 5). Where that is refused the mark stays monotone and
/// rss_high_water_mb() reads the process peak.
void reset_rss_high_water() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM of /proc/self/status in MB; the process peak when unavailable.
double rss_high_water_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return support::peak_rss_mb();
}

struct LegWalls {
  double a = 0.0;
  double b = 0.0;
};

/// The timed loop: iterations until `seconds` have passed (at least one).
/// `iteration` fills the legs' walls and returns whether its outputs match
/// the reference; a throw also fails the operation. End-to-end runs trace
/// nothing; traced runs trace every other iteration and report the traced /
/// untraced median ratio per leg as the tracing overhead.
void measure_loop(Report& report, const RunOptions& options,
                  const std::function<bool(LegWalls&)>& iteration) {
  std::vector<double> a_plain, b_plain, a_traced, b_traced, rss;
  const auto start = Clock::now();
  do {
    // Hand the previous operation's freed pages back, so an operation's
    // peak is its own, not what the allocator's arenas kept from before.
    support::release_freed_memory();
    reset_rss_high_water();
    const bool traced = options.trace && report.ops % 2 == 1;
    tracer.set_enabled(traced);
    ++report.ops;
    LegWalls walls;
    bool ok = false;
    try {
      ok = iteration(walls);
    } catch (const std::exception& e) {
      std::cerr << "operation " << report.ops << " threw: " << e.what() << "\n";
    }
    tracer.set_enabled(options.trace);
    if (!ok) {
      ++report.ops_failed;
      continue;
    }
    if (!traced) rss.push_back(rss_high_water_mb());
    (traced ? a_traced : a_plain).push_back(walls.a);
    (traced ? b_traced : b_plain).push_back(walls.b);
  } while (seconds_between(start, Clock::now()) < options.seconds ||
           (report.ops_failed == 0 && (a_plain.empty() || (options.trace && a_traced.empty()))));
  support::release_freed_memory();
  if (a_plain.empty() || (options.trace && a_traced.empty())) {
    throw std::runtime_error("no operation succeeded");
  }
  std::cerr << std::setprecision(4) << "leg (a) walls:";
  for (const double wall : a_plain) std::cerr << " " << wall;
  std::cerr << "\nleg (b) walls:";
  for (const double wall : b_plain) std::cerr << " " << wall;
  std::cerr << "\n";
  if (!options.trace) {
    report.add_timing("leg_a_s", a_plain);
    report.add_timing("leg_b_s", b_plain);
    report.add_timing("peak_rss_mb", rss, "MB");
  } else {
    report.add("bench.trace.overhead_a_share", median(a_traced) / median(a_plain) - 1.0,
               "ratio", a_traced.size() + a_plain.size());
    report.add("bench.trace.overhead_b_share", median(b_traced) / median(b_plain) - 1.0,
               "ratio", b_traced.size() + b_plain.size());
  }
}

/// Guarded optional access for values a lambda fills in.
template <class T>
T& got(std::optional<T>& value) {
  if (!value) throw std::logic_error("perfbench: value was not produced");
  return *value;
}
template <class T>
const T& got(const std::optional<T>& value) {
  if (!value) throw std::logic_error("perfbench: value was not produced");
  return *value;
}

// ------------------------------------------------------------------ inputs

/// fig8_scale's scale points: 10x (M=32, K=200, I=300) and 100x (M=100,
/// K=2000, I=1000), with 2-6 s deadlines.
sim::ScenarioConfig fig8_config(std::size_t servers, std::size_t users, std::size_t models,
                                std::size_t per_family, double side_m) {
  sim::ScenarioConfig config;
  config.num_servers = servers;
  config.num_users = users;
  config.area_side_m = side_m;
  config.library_size = models;
  config.special.models_per_family = per_family;
  config.requests.models_per_user = 30;
  config.requests.deadline_min_s = 2.0;
  config.requests.deadline_max_s = 6.0;
  return config;
}

sim::ScenarioConfig plan_config() { return fig8_config(100, 2000, 1000, 334, 3162.0); }
sim::ScenarioConfig montecarlo_config() { return fig8_config(32, 200, 300, 100, 1789.0); }

sim::ScenarioConfig joint(sim::ScenarioConfig config) {
  // Binds at 10x: gen's Eq. 2 drops by a few points against storage-only.
  config.compute_capacity = 0.5;
  return config;
}

sim::Scenario build(const sim::ScenarioConfig& config, std::uint64_t seed) {
  support::Rng rng(seed);
  return sim::build_scenario(config, rng);
}

/// fig9_serving's deployment at its top offered load: 20 servers, 200
/// users, the full 300-model library, one global popularity, 1 Gb/s
/// backhaul, 0.125 req/s per user for 40 000 s (about 10^6 requests) under
/// a drifting Zipf (0.8 -> 1.2, 30 rank swaps per 4000 s epoch), warm-started
/// from gen's placement. The deployment is fig9's own (seed 99); the run's
/// seed draws the traffic, the drift and the arrivals.
struct ServeDeployment {
  static constexpr double kRatePerUser = 0.125;
  static constexpr double kDurationS = 40000.0;

  sim::Scenario scenario;
  core::PlacementSolution placement;
  workload::DriftingZipf drift;
  support::Rng replay_seed;

  [[nodiscard]] serve::ServeConfig config(const std::string& policy, std::size_t threads) const {
    serve::ServeConfig config;
    config.arrival_rate_per_user = kRatePerUser;
    config.duration_s = kDurationS;
    config.policy = policy;
    config.threads = threads;
    config.drift = &drift;
    return config;
  }
  [[nodiscard]] serve::ServeResult replay(const std::string& policy, std::size_t threads) const {
    return serve::simulate_serving(scenario.topology, scenario.library, scenario.requests,
                                   placement, config(policy, threads), replay_seed);
  }
};

const std::vector<std::string> kPolicies = {"static", "lru", "ewma:tau_s=120"};

std::string policy_base(const std::string& spec) { return spec.substr(0, spec.find(':')); }

/// fig9 seeds its scenario and gen with 99, the drift with 4242 and the
/// replay with 7. The drift and replay seeds are the run's seed XOR offsets
/// that map 99 to that pair. The scenario stays fig9's: across seeds, which
/// server a topology overloads would otherwise swing the replay's wall time
/// by more than the regressions the benchmark must resolve.
ServeDeployment build_serve_deployment(std::uint64_t seed) {
  constexpr std::uint64_t kDeploymentSeed = 99;
  sim::ScenarioConfig config;
  config.num_servers = 20;
  config.num_users = 200;
  config.area_side_m = 1400.0;
  config.capacity_bytes = support::gigabytes(1.0);
  config.library_size = 0;
  config.special.models_per_family = 100;
  config.requests.per_user_popularity = false;
  config.requests.models_per_user = 0;
  config.radio.backhaul_bps = 1e9;
  sim::Scenario scenario = build(config, kDeploymentSeed);

  core::SolverContext context(kDeploymentSeed);
  core::PlacementSolution placement =
      core::SolverRegistry::instance().make("gen")->run(scenario.problem(), context).placement;

  workload::DriftingZipfConfig drift_config;
  drift_config.exponent_start = config.requests.zipf_exponent;
  drift_config.exponent_end = 1.2;
  drift_config.epoch_s = 4000.0;
  drift_config.swaps_per_epoch = 30;
  workload::DriftingZipf drift(workload::DriftingZipf::popularity_order(scenario.requests),
                               ServeDeployment::kDurationS, drift_config,
                               support::Rng(seed ^ (kDeploymentSeed ^ 4242)));
  return {std::move(scenario), std::move(placement), std::move(drift),
          support::Rng(seed ^ (kDeploymentSeed ^ 7))};
}

/// The storage-only solve of plan-100x's leg (a) and of the layer pass.
core::SolverOutcome solve(const std::string& spec, const core::PlacementProblem& problem) {
  core::SolverContext context(support::Rng(42).at(0x711E, 0));
  return core::SolverRegistry::instance().make(spec)->run(problem, context);
}

// ------------------------------------------------------------- layer pass

/// Median wall of `reps` calls of `fn` under span `name`.
double median_wall(const char* name, std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> walls;
  for (std::size_t r = 0; r < reps; ++r) walls.push_back(timed(name, fn));
  return median(walls);
}

/// Median wall of `reps` constructions of `slot` by `make` under span
/// `name`; the previous value is destroyed outside the timing.
template <class T, class Make>
double median_build(const char* name, std::size_t reps, std::optional<T>& slot, Make&& make) {
  std::vector<double> walls;
  for (std::size_t r = 0; r < reps; ++r) {
    slot.reset();
    walls.push_back(timed(name, [&] { slot.emplace(make()); }));
  }
  return median(walls);
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Problem construction, gen, the tiler and the repair pass on plan-100x's
/// scenario.
void plan_layers(Report& report, std::uint64_t seed, std::size_t T) {
  const sim::ScenarioConfig config = plan_config();
  std::optional<sim::Scenario> scenario;
  report.add("sim.scenario.build_s",
             median_build("sim.scenario.build", 3, scenario, [&] { return build(config, seed); }),
             "s", 3);

  std::optional<core::PlacementProblem> problem;
  report.add("core.problem.build_s",
             median_build("core.problem.build", 3, problem, [&] { return scenario->problem(); }),
             "s", 3);
  std::size_t entries = 0;
  std::size_t relay_entries = 0;
  for (ServerId m = 0; m < got(problem).num_servers(); ++m) {
    const auto associated = problem->associations(m);
    for (ModelId i = 0; i < problem->num_models(); ++i) {
      for (const core::HitEntry& entry : problem->hit_list(m, i)) {
        ++entries;
        if (!associated[entry.user]) ++relay_entries;
      }
    }
  }
  report.add("core.problem.hit_entries", static_cast<double>(entries), "count");
  report.add("core.problem.relay_entry_share", share(relay_entries, entries), "ratio");
  // Computed, not measured: entries x sizeof(HitEntry).
  report.add("core.problem.hit_list_mb",
             static_cast<double>(entries * sizeof(core::HitEntry)) / (1024.0 * 1024.0), "MB");

  std::optional<core::SolverOutcome> gen;
  report.add("core.gen.solve_s", median_build("core.gen.solve", 3, gen, [&] {
               return solve("gen:threads=1", *problem);
             }),
             "s", 3);
  report.add("core.gen.gain_evaluations", static_cast<double>(got(gen).gain_evaluations),
             "count");
  report.add("core.gen.gain_evals_per_placement",
             share(gen->gain_evaluations, gen->placement.total_placements()), "ratio");
  problem.reset();

  sim::TilerConfig tiler_config;
  tiler_config.tiles_x = 2;
  tiler_config.tiles_y = 2;
  const sim::ScenarioTiler tiler(*scenario, tiler_config);
  report.add("sim.tiler.view_build_s", timed("sim.tiler.view_build", [&] {
               for (std::size_t t = 0; t < tiler.tiles().size(); ++t) {
                 if (!tiler.tiles()[t].servers.empty()) (void)tiler.tile_problem(t);
               }
             }),
             "s");
  std::optional<sim::TiledSolveResult> tiled;
  const double t1 = timed("sim.tiler.solve", [&] { (void)tiler.solve("gen", 42, 1); });
  const double tn = timed("sim.tiler.solve", [&] { tiled.emplace(tiler.solve("gen", 42, T)); });
  report.add("sim.tiler.solve_t1_s", t1, "s");
  report.add("sim.tiler.solve_tn_s", tn, "s");
  report.add("sim.tiler.thread_speedup", t1 / tn, "ratio");
  report.add("sim.tiler.tiles_solved", static_cast<double>(got(tiled).tiles_solved), "count");
  report.add("sim.tiler.gain_evaluations", static_cast<double>(tiled->gain_evaluations), "count");
  report.add("sim.tiler.duplication_factor", tiled->duplication_factor, "ratio");

  std::optional<sim::PlacementRepair> repairer;
  report.add("sim.placement_repair.engine_build_s",
             timed("sim.placement_repair.engine_build",
                   [&] { repairer.emplace(*scenario, tiler.server_tiles()); }),
             "s");
  std::optional<sim::RepairResult> repaired;
  report.add("sim.placement_repair.pass_s", timed("sim.placement_repair.pass", [&] {
               repaired.emplace(got(repairer).repair(tiled->placement, T));
             }),
             "s");
  report.add("sim.placement_repair.duplicates_evicted",
             static_cast<double>(got(repaired).duplicates_evicted), "count");
  report.add("sim.placement_repair.models_added", static_cast<double>(repaired->models_added),
             "count");
  report.add("sim.placement_repair.gain_evaluations",
             static_cast<double>(repaired->gain_evaluations), "count");
  report.add("sim.placement_repair.models_added_per_gain_eval",
             share(repaired->models_added, repaired->gain_evaluations), "ratio");
}

/// Spec, independent, the evaluator and run_comparison on montecarlo-10x's
/// scenario.
void montecarlo_layers(Report& report, std::uint64_t seed, std::size_t T) {
  const sim::ScenarioConfig config = montecarlo_config();
  const sim::Scenario scenario = build(config, seed);
  const core::PlacementProblem problem = scenario.problem();

  std::optional<core::SolverOutcome> spec;
  report.add("core.spec.solve_s",
             timed("core.spec.solve", [&] { spec.emplace(solve("spec", problem)); }), "s");
  report.add("core.spec.dp_combinations", static_cast<double>(got(spec).iterations), "count");
  report.add("core.independent.solve_s", median_wall("core.independent.solve", 3, [&] {
               (void)solve("independent", problem);
             }),
             "s", 3);

  const core::PlacementSolution placement = solve("gen", problem).placement;
  const sim::Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
  report.add("sim.evaluator.plan_build_s",
             timed("sim.evaluator.plan_build", [&] { (void)evaluator.plan(); }), "s");
  report.add("sim.evaluator.expected_s", median_wall("sim.evaluator.expected", 3, [&] {
               (void)evaluator.expected_hit_ratio(placement);
             }),
             "s", 3);
  const support::Rng fading_seed(seed);
  report.add("sim.evaluator.fading_1000_t1_s", timed("sim.evaluator.fading", [&] {
               (void)evaluator.fading_hit_ratio(placement, 1000, fading_seed, 1);
             }),
             "s");
  report.add("sim.evaluator.fading_1000_tn_s", timed("sim.evaluator.fading", [&] {
               (void)evaluator.fading_hit_ratio(placement, 1000, fading_seed, T);
             }),
             "s");
  report.add("sim.evaluator.lowering_builds",
             static_cast<double>(evaluator.plan_stats().lowering_builds), "count");
  report.add("sim.evaluator.lowering_hits",
             static_cast<double>(evaluator.plan_stats().lowering_hits), "count");
  // The joint objective on the same draws (a compute capacity consumes no
  // randomness, so the topology and the placement's dimensions match).
  const sim::Scenario constrained = build(joint(config), seed);
  const sim::Evaluator joint_evaluator(constrained.topology, constrained.library,
                                       constrained.requests);
  (void)joint_evaluator.plan();
  report.add("sim.evaluator.expected_joint_s", median_wall("sim.evaluator.expected_joint", 3, [&] {
               (void)joint_evaluator.expected_hit_ratio(placement);
             }),
             "s", 3);

  // run_comparison with leg (a)'s sizes but without spec, whose serial DP
  // would dominate.
  sim::MonteCarloConfig mc;
  mc.topologies = 16;
  mc.fading_realizations = 1000;
  mc.seed = seed;
  mc.threads = 1;
  const std::vector<std::string> specs = {"gen", "independent"};
  const double serial = timed("sim.monte_carlo.run_comparison",
                              [&] { (void)sim::run_comparison(config, specs, mc); });
  mc.threads = T;
  const double threaded = timed("sim.monte_carlo.run_comparison",
                                [&] { (void)sim::run_comparison(config, specs, mc); });
  report.add("sim.monte_carlo.run_serial_s", serial, "s");
  report.add("sim.monte_carlo.thread_speedup", serial / threaded, "ratio");
}

/// Drift sampling, the cache policies and the serving engine on
/// serve-drift-1m's deployment.
void serve_layers(Report& report, std::uint64_t seed, std::size_t T) {
  const ServeDeployment deployment = build_serve_deployment(seed);

  constexpr std::size_t kDraws = 1000000;
  std::vector<std::pair<double, ModelId>> stream(kDraws);
  support::Rng rng(seed);
  const double sample = timed("workload.drifting_zipf.sample", [&] {
    for (std::size_t d = 0; d < kDraws; ++d) {
      const double t = ServeDeployment::kDurationS * static_cast<double>(d) / kDraws;
      stream[d] = {t, deployment.drift.sample(t, rng)};
    }
  });
  report.add("workload.drifting_zipf.sample_ns", sample * 1e9 / kDraws, "ns");

  // Each policy driven directly over the draws on one 1 GB server warmed
  // with server 0's placement; a reactive miss admits the model.
  for (const std::string& spec : kPolicies) {
    auto policy = serve::make_cache_policy(spec);
    policy->bind(deployment.scenario.library, support::gigabytes(1.0));
    policy->warm(deployment.placement.models_on(0));
    std::size_t admits = 0;
    const double wall = timed("serve.cache_policy", [&] {
      for (const auto& [t, model] : stream) {
        policy->on_request(model, t);
        if (policy->reactive() && !policy->fully_cached(model)) {
          policy->admit(model, t);
          ++admits;
        }
      }
    });
    const std::string prefix = "serve.cache_policy." + policy_base(spec) + ".";
    report.add(prefix + "request_ns", wall * 1e9 / kDraws, "ns");
    if (policy->reactive()) {
      report.add(prefix + "admits", static_cast<double>(admits), "count");
      report.add(prefix + "evictions_per_admit", share(policy->evictions(), admits), "ratio");
    }
  }
  stream = {};

  for (const std::string& spec : kPolicies) {
    const std::string base = policy_base(spec);
    std::optional<serve::ServeResult> result;
    const double t1 =
        timed("serve.engine.simulate_serving", [&] { (void)deployment.replay(spec, 1); });
    const double tn = timed("serve.engine.simulate_serving",
                            [&] { result.emplace(deployment.replay(spec, T)); });
    const serve::ServeMetrics& totals = got(result).totals;
    const std::string prefix = "serve.engine." + base + ".";
    report.add(prefix + "replay_t1_s", t1, "s");
    report.add(prefix + "replay_tn_s", tn, "s");
    report.add(prefix + "thread_speedup", t1 / tn, "ratio");
    report.add(prefix + "edge_hit_share", share(totals.edge_hits, totals.requests), "ratio");
    report.add(prefix + "stale_event_share", share(totals.stale_events, totals.requests),
               "ratio");
    report.add(prefix + "mean_concurrency", result->mean_concurrency, "flows");
    if (base != "static") {  // a static cache never fetches nor evicts
      report.add(prefix + "cloud_fetches", static_cast<double>(totals.cloud_fetches), "count");
      report.add(prefix + "merged_fetch_share",
                 share(totals.merged_fetches, totals.cloud_fetches + totals.merged_fetches),
                 "ratio");
      report.add(prefix + "cache_evictions", static_cast<double>(totals.cache_evictions),
                 "count");
    }
  }
}

/// Per-layer metrics of a traced run. Each layer is measured on its home
/// inputs — those of the workload whose end-to-end metrics it should move
/// (perfbench/README.md) — built from this run's seed, so every traced run
/// reports every layer whatever its workload.
void layer_pass(Report& report, std::uint64_t seed, std::size_t T) {
  plan_layers(report, seed, T);
  montecarlo_layers(report, seed, T);
  serve_layers(report, seed, T);
}

// -------------------------------------------------------------- workloads

/// plan-100x: (a) problem + serial gen + a fresh Evaluator's Eq. 2 score;
/// (b) a fresh 2x2 repairing ScenarioTiler solving gen at T threads.
void run_plan(Report& report, const RunOptions& options) {
  const std::uint64_t seed = options.seed;
  const std::size_t T = options.threads;
  std::optional<sim::Scenario> scenario;
  measure_setup(report, scenario, [&] { return build(plan_config(), seed); });

  sim::TilerConfig tiler_config;
  tiler_config.tiles_x = 2;
  tiler_config.tiles_y = 2;
  tiler_config.repair = true;
  struct Outputs {
    double hit = 0.0;
    double solver_hit = 0.0;
    std::optional<core::PlacementSolution> placement;
    std::optional<sim::TiledSolveResult> tiled;
  };
  const auto iterate = [&](LegWalls& walls) {
    Outputs out;
    walls.a = timed("leg_a", [&] {
      std::optional<core::PlacementProblem> problem;
      timed("core.problem.build", [&] { problem.emplace(scenario->problem()); });
      std::optional<core::SolverOutcome> outcome;
      timed("core.gen.solve", [&] { outcome.emplace(solve("gen:threads=1", got(problem))); });
      timed("sim.evaluator.expected", [&] {
        const sim::Evaluator evaluator(scenario->topology, scenario->library,
                                       scenario->requests);
        out.hit = evaluator.expected_hit_ratio(got(outcome).placement);
      });
      out.solver_hit = outcome->hit_ratio;
      out.placement.emplace(std::move(outcome->placement));
    });
    walls.b = timed("leg_b", [&] {
      std::optional<sim::ScenarioTiler> tiler;
      timed("sim.tiler.build", [&] { tiler.emplace(*scenario, tiler_config); });
      timed("sim.tiler.solve", [&] { out.tiled.emplace(tiler->solve("gen", 42, T)); });
    });
    return out;
  };

  LegWalls warm;
  const Outputs ref = iterate(warm);
  measure_loop(report, options, [&](LegWalls& walls) {
    const Outputs out = iterate(walls);
    return out.hit == ref.hit && same_placements(got(out.placement), got(ref.placement)) &&
           got(out.tiled).hit_ratio == got(ref.tiled).hit_ratio &&
           same_placements(out.tiled->placement, ref.tiled->placement);
  });

  const sim::TiledSolveResult serial = sim::ScenarioTiler(*scenario, tiler_config).solve("gen", 42, 1);
  report.check("tiled_threads_identical",
               serial.hit_ratio == ref.tiled->hit_ratio &&
                   same_placements(serial.placement, ref.tiled->placement));
  sim::TilerConfig raw_config = tiler_config;
  raw_config.repair = false;
  const double raw_hit = sim::ScenarioTiler(*scenario, raw_config).solve("gen", 42, T).hit_ratio;
  std::ostringstream detail;
  detail << std::setprecision(9) << ref.tiled->hit_ratio << " >= " << raw_hit;
  report.check("repair_not_worse", ref.tiled->hit_ratio >= raw_hit, detail.str());
  report.check("eq2_matches_solver", std::abs(ref.hit - ref.solver_hit) <= 1e-9);
  if (seed == options.default_seed) {
    check_record(report, "record_hit_ratio", ref.hit, 0.738460);
    check_record(report, "record_hit_ratio_tiled", ref.tiled->hit_ratio, 0.739562);
  }
  report.add("bench.outputs.hit_ratio_a", ref.hit, "ratio");
  report.add("bench.outputs.hit_ratio_b", ref.tiled->hit_ratio, "ratio");
}

/// serve-drift-1m: (a) the static replay, (b) the lru and ewma replays, all
/// at T threads.
void run_serve(Report& report, const RunOptions& options) {
  const std::size_t T = options.threads;
  std::optional<ServeDeployment> deployment;
  measure_setup(report, deployment, [&] { return build_serve_deployment(options.seed); });

  const auto replay = [&](const std::string& spec, std::size_t threads) {
    std::optional<serve::ServeResult> result;
    timed("serve.engine.simulate_serving",
          [&] { result.emplace(deployment->replay(spec, threads)); });
    return std::move(got(result));
  };
  struct Outputs {
    serve::ServeResult fixed, lru, ewma;
  };
  const auto iterate = [&](LegWalls& walls) {
    Outputs out;
    walls.a = timed("leg_a", [&] { out.fixed = replay(kPolicies[0], T); });
    walls.b = timed("leg_b", [&] {
      out.lru = replay(kPolicies[1], T);
      out.ewma = replay(kPolicies[2], T);
    });
    return out;
  };

  LegWalls warm;
  const Outputs ref = iterate(warm);
  measure_loop(report, options, [&](LegWalls& walls) {
    const Outputs out = iterate(walls);
    return same_replay(out.fixed, ref.fixed) && same_replay(out.lru, ref.lru) &&
           same_replay(out.ewma, ref.ewma);
  });

  for (const auto& [name, result] : {std::pair{"static", &ref.fixed}, std::pair{"lru", &ref.lru},
                                      std::pair{"ewma", &ref.ewma}}) {
    const auto& totals = result->totals;
    std::ostringstream detail;
    detail << totals.terminal() << " terminal of " << totals.requests << " requests";
    report.check(std::string("terminal_partition_") + name, totals.terminal() == totals.requests,
                 detail.str());
  }
  report.check("lru_beats_static", ref.lru.hit_ratio > ref.fixed.hit_ratio);
  report.check("ewma_beats_static", ref.ewma.hit_ratio > ref.fixed.hit_ratio);
  report.check("replay_threads_identical", same_replay(replay(kPolicies[0], 1), ref.fixed) &&
                                               same_replay(replay(kPolicies[1], 1), ref.lru) &&
                                               same_replay(replay(kPolicies[2], 1), ref.ewma));
  if (options.seed == options.default_seed) {
    check_record(report, "record_static", ref.fixed.hit_ratio, 0.435889);
    check_record(report, "record_lru", ref.lru.hit_ratio, 0.664776);
    check_record(report, "record_ewma", ref.ewma.hit_ratio, 0.683401);
  }
  report.add("bench.outputs.hit_ratio_a", ref.fixed.hit_ratio, "ratio");
  report.add("bench.outputs.hit_ratio_b", ref.lru.hit_ratio, "ratio");
}

/// montecarlo-10x: run_comparison at fig8's 10x point, 16 topologies x 1000
/// fading realizations at T threads. (a) storage-only spec;gen;independent,
/// (b) the joint objective (compute capacity 0.5) with gen;independent.
void run_montecarlo(Report& report, const RunOptions& options) {
  const std::size_t T = options.threads;
  const sim::ScenarioConfig config = montecarlo_config();
  const sim::ScenarioConfig joint_config = joint(config);
  const std::vector<std::string> specs_a = {"spec", "gen", "independent"};
  // Spec stays out of (b): its joint DP takes minutes at this size and lands
  // below gen (perfbench/README.md).
  const std::vector<std::string> specs_b = {"gen", "independent"};
  // run_comparison samples its own scenarios; set-up is one scenario build
  // at the same config, validating it.
  std::optional<sim::Scenario> scenario;
  measure_setup(report, scenario, [&] { return build(config, options.seed); });

  const auto compare = [&](const sim::ScenarioConfig& scenario_config,
                           const std::vector<std::string>& specs, std::size_t threads) {
    sim::MonteCarloConfig mc;
    mc.topologies = 16;
    mc.fading_realizations = 1000;
    mc.seed = options.seed;
    mc.threads = threads;
    std::vector<sim::SolverStats> stats;
    timed("sim.monte_carlo.run_comparison",
          [&] { stats = sim::run_comparison(scenario_config, specs, mc); });
    return stats;
  };
  struct Outputs {
    std::vector<sim::SolverStats> a, b;
  };
  const auto iterate = [&](LegWalls& walls) {
    Outputs out;
    walls.a = timed("leg_a", [&] { out.a = compare(config, specs_a, T); });
    walls.b = timed("leg_b", [&] { out.b = compare(joint_config, specs_b, T); });
    return out;
  };

  LegWalls warm;
  const Outputs ref = iterate(warm);
  measure_loop(report, options, [&](LegWalls& walls) {
    const Outputs out = iterate(walls);
    return same_stats(out.a, ref.a) && same_stats(out.b, ref.b);
  });

  report.check("stats_threads_identical", same_stats(compare(config, specs_a, 1), ref.a) &&
                                              same_stats(compare(joint_config, specs_b, 1), ref.b));
  const sim::SolverStats& gen_a = ref.a[1];
  const sim::SolverStats& gen_b = ref.b[0];
  std::ostringstream detail;
  detail << std::setprecision(9) << "gen Eq. 2 " << gen_a.expected_hit_ratio.mean << " -> "
         << gen_b.expected_hit_ratio.mean;
  report.check("joint_constraint_binds",
               gen_b.expected_hit_ratio.mean < gen_a.expected_hit_ratio.mean, detail.str());
  if (options.seed == options.default_seed) {
    check_record(report, "record_gen_fading", gen_a.fading_hit_ratio.mean, 0.883767);
  }
  report.add("bench.outputs.hit_ratio_a", gen_a.fading_hit_ratio.mean, "ratio");
  report.add("bench.outputs.hit_ratio_b", gen_b.fading_hit_ratio.mean, "ratio");
}

constexpr std::uint64_t kNoSeed = UINT64_MAX;

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  options.seed = kNoSeed;
  for (int a = 1; a < argc; ++a) {
    const std::string key = argv[a];
    if (a + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++a];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (key == "--spans") {
      options.spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + key +
                                  " (expected --workload, --seed, --seconds, --trace, --spans)");
    }
  }
  options.threads = std::min<std::size_t>(4, support::hardware_threads());
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    RunOptions options = parse(argc, argv);
    struct Workload {
      std::string name;
      std::uint64_t default_seed;
      void (*run)(Report&, const RunOptions&);
    };
    // Default seeds: fig8_scale's scenario seed, fig9_serving's scenario
    // seed, and MonteCarloConfig's default seed of the run_comparison benches.
    const std::vector<Workload> workloads = {
        {"plan-100x", 7, run_plan},
        {"serve-drift-1m", 99, run_serve},
        {"montecarlo-10x", 1, run_montecarlo},
    };
    const auto it = std::find_if(workloads.begin(), workloads.end(),
                                 [&](const Workload& w) { return w.name == options.workload; });
    if (it == workloads.end()) {
      throw std::invalid_argument("unknown --workload '" + options.workload +
                                  "' (plan-100x, serve-drift-1m, montecarlo-10x)");
    }
    options.default_seed = it->default_seed;
    if (options.seed == kNoSeed) options.seed = it->default_seed;

    Report report;
    tracer.set_enabled(options.trace);
    it->run(report, options);
    // Per-layer names are dotted (<module>.<file>.<metric>), end-to-end
    // names are not; a run reports one kind.
    std::erase_if(report.metrics, [&](const Metric& m) {
      return (m.name.find('.') != std::string::npos) != options.trace;
    });
    if (options.trace) {
      layer_pass(report, options.seed, options.threads);
      if (!options.spans_path.empty()) tracer.write(options.spans_path);
    }
    print_json(report, options.workload, options.seed, options.threads);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
