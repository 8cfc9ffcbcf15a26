// Machine-readable perf output shared by the bench binaries.
//
// Emits a single JSON document per run — BENCH_micro.json from
// micro_kernels, BENCH_runtime.json from the fig6b runtime sweep — so the
// perf trajectory across commits can be tracked by tooling instead of by
// grepping console tables:
//
//   {
//     "schema": 1,
//     "git_rev": "c1c30dc",
//     "hardware_threads": 8,
//     "benchmarks": [
//       {"name": "...", "wall_seconds": 0.012, "throughput": 83.3,
//        "threads": 8, "speedup_vs_serial": 3.9, "hit_ratio": 0.62,
//        "duplication_factor": 1.1},
//       ...
//     ]
//   }
//
// `throughput` is items/second (benchmark-defined; 0 when not meaningful);
// `speedup_vs_serial` is emitted only when positive; `hit_ratio` (global
// Eq. 2 value) and `duplication_factor` (placements per distinct cached
// model, fig8_scale's cross-tile duplication metric) only when recorded
// (>= 0). The mobility studies additionally record the plan-maintenance
// columns: `plan_rebuilds` / `plan_deltas` (full EvalPlan builds vs
// in-place delta patches behind the record's wall time; emitted when >= 0)
// and `plan_update_speedup` (the within-run full-rebuild over delta-path
// per-slot maintenance ratio — hardware-independent, gated by
// bench_diff metric=plan_update; emitted when > 0). The serving bench
// (fig9_serving) records the tail-latency columns `p50_ms` / `p95_ms` /
// `p99_ms` (download-latency quantiles in milliseconds) and `served_rps`
// (completed downloads per second), all emitted when >= 0; its hit_ratio
// column carries the *empirical* deadline-hit ratio of the replay and is
// drop-gated by bench_diff metric=hit_ratio. Its fault-injection legs
// additionally record the failure columns `failovers` (arrival reroutes plus
// in-flight rescues, see the field) / `aborted` (a terminal count) and
// `rewarm_s` (mean recovery -> cache re-warm transient in seconds), all
// emitted when >= 0 so fault-free records stay byte-identical to the
// pre-fault schema. Memory-sensitive variants
// (fig8_scale's distributed-tiles comparison) record `peak_rss_mb` — the
// variant's peak resident set in MB, sampled by support/resource.h —
// emitted when >= 0 and rise-gated by bench_diff metric=rss.
//
// The key set is LOCKED: read_bench_json() below is the one parser every
// consumer (tools/bench_diff, tests/bench_schema_test) goes through, and it
// throws on records missing the required keys — baseline diffs fail loudly
// on schema drift instead of silently comparing absent fields.
#pragma once

#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/parallel.h"

namespace trimcaching::bench {

struct JsonRecord {
  std::string name;
  double wall_seconds = 0.0;
  double throughput = 0.0;       ///< items per second; 0 = not meaningful
  std::size_t threads = 1;       ///< thread count the measurement used
  double speedup_vs_serial = 0;  ///< > 0 only when a serial baseline was timed
  double hit_ratio = -1.0;       ///< global Eq. 2 value; < 0 = not recorded
  double duplication_factor = -1.0;  ///< placements per distinct model; < 0 = n/a
  double plan_rebuilds = -1.0;       ///< full EvalPlan builds; < 0 = n/a
  double plan_deltas = -1.0;         ///< in-place delta patches; < 0 = n/a
  double plan_update_speedup = 0;    ///< full/delta maintenance ratio; > 0 = recorded
  double p50_ms = -1.0;              ///< median download latency; < 0 = n/a
  double p95_ms = -1.0;              ///< p95 download latency; < 0 = n/a
  double p99_ms = -1.0;              ///< p99 download latency; < 0 = n/a
  double served_rps = -1.0;          ///< completed downloads per second; < 0 = n/a
  double peak_rss_mb = -1.0;         ///< peak resident set during the variant,
                                     ///< MB (support/resource.h); < 0 = n/a.
                                     ///< Gated rising by bench_diff metric=rss.
  double failovers = -1.0;           ///< failover events in the outage
                                     ///< replay: ServeMetrics::failovers
                                     ///< (arrivals rerouted off a down
                                     ///< primary, a bookkeeping counter) +
                                     ///< ServeMetrics::failed_over (in-flight
                                     ///< flows rescued by a surviving warm
                                     ///< holder, a terminal state); fig9
                                     ///< logs both parts; < 0 = n/a
  double aborted = -1.0;             ///< in-flight flows killed with no
                                     ///< surviving holder; < 0 = n/a
  double rewarm_s = -1.0;            ///< mean recovery -> re-warm transient,
                                     ///< seconds; < 0 = n/a
};

/// Git revision baked in at configure time (CMake), "unknown" otherwise.
inline const char* git_revision() {
#ifdef TRIMCACHING_GIT_REV
  return TRIMCACHING_GIT_REV;
#else
  return "unknown";
#endif
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Writes the records to `path`; failures only warn (perf output must never
/// fail a bench run).
inline void write_bench_json(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::ostringstream out;
  out.precision(9);
  out << "{\n  \"schema\": 1,\n  \"git_rev\": \"" << json_escape(git_revision())
      << "\",\n  \"hardware_threads\": " << trimcaching::support::hardware_threads()
      << ",\n  \"benchmarks\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(r.name)
        << "\", \"wall_seconds\": " << r.wall_seconds
        << ", \"throughput\": " << r.throughput << ", \"threads\": " << r.threads;
    if (r.speedup_vs_serial > 0) {
      out << ", \"speedup_vs_serial\": " << r.speedup_vs_serial;
    }
    if (r.hit_ratio >= 0) out << ", \"hit_ratio\": " << r.hit_ratio;
    if (r.duplication_factor >= 0) {
      out << ", \"duplication_factor\": " << r.duplication_factor;
    }
    if (r.plan_rebuilds >= 0) out << ", \"plan_rebuilds\": " << r.plan_rebuilds;
    if (r.plan_deltas >= 0) out << ", \"plan_deltas\": " << r.plan_deltas;
    if (r.plan_update_speedup > 0) {
      out << ", \"plan_update_speedup\": " << r.plan_update_speedup;
    }
    if (r.p50_ms >= 0) out << ", \"p50_ms\": " << r.p50_ms;
    if (r.p95_ms >= 0) out << ", \"p95_ms\": " << r.p95_ms;
    if (r.p99_ms >= 0) out << ", \"p99_ms\": " << r.p99_ms;
    if (r.served_rps >= 0) out << ", \"served_rps\": " << r.served_rps;
    if (r.peak_rss_mb >= 0) out << ", \"peak_rss_mb\": " << r.peak_rss_mb;
    if (r.failovers >= 0) out << ", \"failovers\": " << r.failovers;
    if (r.aborted >= 0) out << ", \"aborted\": " << r.aborted;
    if (r.rewarm_s >= 0) out << ", \"rewarm_s\": " << r.rewarm_s;
    out << "}";
  }
  out << "\n  ]\n}\n";
  std::ofstream file(path);
  if (!file || !(file << out.str())) {
    std::cerr << "warning: could not write " << path << "\n";
    return;
  }
  std::cout << "[written " << path << "]\n";
}

/// Parses a write_bench_json() document back into records keyed by name.
/// Minimal scanner for the fixed layout above, not a general JSON parser.
/// Strict about the locked schema: the document must declare "schema": 1 and
/// every record must carry the required keys (name, wall_seconds,
/// throughput, threads) — anything missing throws std::runtime_error, so
/// baseline diffs fail loudly on schema drift. Optional keys
/// (speedup_vs_serial, hit_ratio, duplication_factor) keep their
/// "not recorded" defaults when absent.
inline std::map<std::string, JsonRecord> read_bench_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("read_bench_json: cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  const auto find_number = [&text](std::size_t from, const std::string& key,
                                   std::size_t limit) -> std::optional<double> {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle, from);
    if (at == std::string::npos || at >= limit) return std::nullopt;
    try {
      // Trailing ","/"}" is expected here; stod stops at the first
      // non-numeric character. Malformed or out-of-range values fail with
      // the key name instead of a bare stod exception.
      return std::stod(text.substr(at + needle.size()));
    } catch (const std::exception&) {
      throw std::runtime_error("read_bench_json: malformed number for \"" + key +
                               "\"");
    }
  };

  const auto schema = find_number(0, "schema", text.size());
  if (!schema || *schema != 1) {
    throw std::runtime_error("read_bench_json: " + path +
                             " does not declare \"schema\": 1 (schema drift?)");
  }

  std::map<std::string, JsonRecord> out;
  std::size_t pos = 0;
  while ((pos = text.find("{\"name\": \"", pos)) != std::string::npos) {
    const std::size_t name_begin = pos + 10;
    const std::size_t name_end = text.find('"', name_begin);
    if (name_end == std::string::npos) break;
    const std::size_t record_end = text.find('}', name_end);
    const std::size_t limit =
        record_end == std::string::npos ? text.size() : record_end;
    JsonRecord record;
    record.name = text.substr(name_begin, name_end - name_begin);
    const auto required = [&](const std::string& key) -> double {
      const auto value = find_number(name_end, key, limit);
      if (!value) {
        throw std::runtime_error("read_bench_json: record '" + record.name +
                                 "' in " + path + " is missing required key '" +
                                 key + "' (schema drift?)");
      }
      return *value;
    };
    record.wall_seconds = required("wall_seconds");
    record.throughput = required("throughput");
    record.threads = static_cast<std::size_t>(required("threads"));
    if (const auto speedup = find_number(name_end, "speedup_vs_serial", limit)) {
      record.speedup_vs_serial = *speedup;
    }
    if (const auto hit = find_number(name_end, "hit_ratio", limit)) {
      record.hit_ratio = *hit;
    }
    if (const auto dup = find_number(name_end, "duplication_factor", limit)) {
      record.duplication_factor = *dup;
    }
    if (const auto rebuilds = find_number(name_end, "plan_rebuilds", limit)) {
      record.plan_rebuilds = *rebuilds;
    }
    if (const auto deltas = find_number(name_end, "plan_deltas", limit)) {
      record.plan_deltas = *deltas;
    }
    if (const auto plan = find_number(name_end, "plan_update_speedup", limit)) {
      record.plan_update_speedup = *plan;
    }
    if (const auto p50 = find_number(name_end, "p50_ms", limit)) record.p50_ms = *p50;
    if (const auto p95 = find_number(name_end, "p95_ms", limit)) record.p95_ms = *p95;
    if (const auto p99 = find_number(name_end, "p99_ms", limit)) record.p99_ms = *p99;
    if (const auto rps = find_number(name_end, "served_rps", limit)) {
      record.served_rps = *rps;
    }
    if (const auto rss = find_number(name_end, "peak_rss_mb", limit)) {
      record.peak_rss_mb = *rss;
    }
    if (const auto fo = find_number(name_end, "failovers", limit)) {
      record.failovers = *fo;
    }
    if (const auto ab = find_number(name_end, "aborted", limit)) {
      record.aborted = *ab;
    }
    if (const auto rw = find_number(name_end, "rewarm_s", limit)) {
      record.rewarm_s = *rw;
    }
    out[record.name] = record;
    pos = record_end == std::string::npos ? name_end : record_end;
  }
  if (out.empty()) {
    throw std::runtime_error("read_bench_json: no benchmark records in " + path);
  }
  return out;
}

/// Like write_bench_json, but records already present in `path` (from other
/// bench binaries sharing the document, e.g. fig6b and fig7 both feeding
/// BENCH_runtime.json) are kept unless this run re-records them by name.
/// A missing or unreadable document is simply (re)written.
inline void merge_bench_json(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::vector<JsonRecord> merged;
  try {
    std::map<std::string, JsonRecord> existing = read_bench_json(path);
    for (const JsonRecord& record : records) existing.erase(record.name);
    merged.reserve(existing.size() + records.size());
    for (auto& [name, record] : existing) merged.push_back(std::move(record));
  } catch (const std::exception&) {
    // No mergeable document: start fresh.
  }
  merged.insert(merged.end(), records.begin(), records.end());
  write_bench_json(path, merged);
}

}  // namespace trimcaching::bench
