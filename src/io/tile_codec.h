// Compact binary round-trip for the distributed tile path (sim/tiler.h
// workers=N): one self-contained per-tile problem view shipped coordinator ->
// worker, and one per-tile solver result shipped back.
//
// A tile view file ("TCTV" magic) carries everything a worker needs to
// reproduce the coordinator's in-process tile solve bit for bit, with no
// topology behind it:
//   * a header naming the registry solver (`algo`), its thread count, the
//     tile index, and the counter-based tile seed (the u64 construction seed
//     of `master.at(kTileStream, t)` — shipping the seed instead of re-deriving
//     it is what keeps cross-process runs on the exact per-tile RNG stream);
//   * the tile-local model library (full model axis — views never restrict
//     it), sparse per-user request rows over the p > 0 support (budget-
//     expired cells included, so the tile's request mass matches the borrowed
//     sub-view's bitwise), server capacities, and the global-id maps;
//   * the precomputed per-(m, k) link arrays (inverse effective rates as raw
//     IEEE-754 bits, association flags) — the exact values the coordinator's
//     borrowed sub-view derived from the global topology, so relays through
//     out-of-tile servers stay priced in;
//   * for a compute-constrained problem only (format v2), per-server compute
//     capacities and the one inference cost scale.
//
// A tile result file ("TCTR" magic) carries the tile-local PlacementSolution
// (per-server model lists in placement order — stitch order matters) plus the
// SolverOutcome scalars (hit ratio, wall seconds, work counters, optional
// optimality bound, all doubles as raw bits).
//
// Integrity: both formats end in an FNV-1a-64 checksum over every preceding
// byte. Parsers validate length before every read and fail with
// std::invalid_argument naming the byte offset — a truncated or corrupted
// file must never crash the coordinator (tests/tile_codec_test.cc locks
// this for every prefix length).
#pragma once

#include <cstdint>
#include <string>

#include "src/core/problem.h"
#include "src/core/solver.h"

namespace trimcaching::io {

/// Everything the worker needs beyond the problem data itself.
struct TileViewHeader {
  std::string algo;            ///< registry spec, e.g. "gen:threads=2"
  std::uint32_t threads = 1;   ///< solver-internal thread count
  std::uint32_t tile_index = 0;
  std::uint64_t solver_seed = 0;  ///< Rng construction seed for SolverContext
  double time_budget_s = -1.0;    ///< <= 0: no deadline
};

struct TileView {
  TileViewHeader header;
  core::OwnedProblemData data;
};

/// One tile's solver outcome, tagged with its tile index.
struct TileResult {
  TileResult(std::uint32_t index, core::SolverOutcome outcome_in)
      : tile_index(index), outcome(std::move(outcome_in)) {}

  std::uint32_t tile_index;
  core::SolverOutcome outcome;
};

/// Serializes `problem` (a borrowed tile sub-view or an owning instance —
/// only the public accessor surface is consumed) plus the header into the
/// binary tile view format.
[[nodiscard]] std::string serialize_tile_view(const TileViewHeader& header,
                                              const core::PlacementProblem& problem);

/// Parses a binary tile view; throws std::invalid_argument with a byte-offset
/// diagnostic on any truncation, bad magic/version, or checksum mismatch.
[[nodiscard]] TileView parse_tile_view(const std::string& bytes);

[[nodiscard]] std::string serialize_tile_result(const TileResult& result);
[[nodiscard]] TileResult parse_tile_result(const std::string& bytes);

/// Binary file helpers (std::ios::binary; read_* throws std::runtime_error
/// when the file cannot be opened, parse errors propagate unchanged).
void write_tile_view(const std::string& path, const TileViewHeader& header,
                     const core::PlacementProblem& problem);
[[nodiscard]] TileView read_tile_view(const std::string& path);

void write_tile_result(const std::string& path, const TileResult& result);
[[nodiscard]] TileResult read_tile_result(const std::string& path);

}  // namespace trimcaching::io
