#include "src/io/tile_codec.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace trimcaching::io {

namespace {

constexpr std::uint32_t kViewMagic = 0x56544354;    // "TCTV" little-endian
constexpr std::uint32_t kResultMagic = 0x52544354;  // "TCTR" little-endian
// Tile views: v1 is the storage-only format; v2 appends one optional
// compute section (flag + per-server compute capacities + the one inference
// cost scale every cell's cost derives from). The writer emits v1 bytes —
// bit-identical to the pre-compute codec — whenever the problem is
// compute-unconstrained, and readers accept {1, 2}. Tile results are still
// v1.
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kViewVersionJoint = 2;

// --- little-endian writer -------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

/// Doubles travel as their raw IEEE-754 bit pattern: the round trip is exact
/// for every value including +inf (the codec's no-path marker) and the
/// subnormal tail of Zipf request masses — the bit-identity contract depends
/// on this, never on decimal formatting.
void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t b = 0; b < n; ++b) {
    h ^= static_cast<unsigned char>(data[b]);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- bounds-checked reader ------------------------------------------------

class BinaryReader {
 public:
  BinaryReader(const std::string& bytes, const char* what)
      : data_(bytes.data()), size_(bytes.size()), what_(what) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - offset_; }

  std::uint8_t u8(const char* field) {
    need(1, field);
    const auto v = static_cast<std::uint8_t>(data_[offset_]);
    ++offset_;
    return v;
  }

  std::uint32_t u32(const char* field) {
    need(4, field);
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[offset_ + b]))
           << (8 * b);
    }
    offset_ += 4;
    return v;
  }

  std::uint64_t u64(const char* field) {
    need(8, field);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[offset_ + b]))
           << (8 * b);
    }
    offset_ += 8;
    return v;
  }

  double f64(const char* field) {
    const std::uint64_t bits = u64(field);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str(const char* field) {
    const std::uint32_t n = u32(field);
    need(n, field);
    std::string s(data_ + offset_, n);
    offset_ += n;
    return s;
  }

  /// Guards a count field before the per-element loop allocates: `count`
  /// elements of at least `min_bytes_each` must still fit in the buffer.
  void check_count(std::uint64_t count, std::size_t min_bytes_each, const char* field) {
    if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
      fail(std::string(field) + " count " + std::to_string(count) +
           " exceeds remaining input");
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument(std::string(what_) + ": parse error at byte " +
                                std::to_string(offset_) + " of " +
                                std::to_string(size_) + ": " + message);
  }

 private:
  void need(std::size_t n, const char* field) {
    if (remaining() < n) {
      fail(std::string("truncated input reading ") + field);
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  const char* what_;
};

/// Checks the trailing FNV-1a checksum before any structural parsing: a
/// corrupted body then fails here with one clear diagnostic instead of a
/// downstream validation error, and the structural parser may trust counts.
void verify_envelope(const std::string& bytes, std::uint32_t magic, const char* what,
                     std::uint32_t max_version) {
  BinaryReader reader(bytes, what);
  if (bytes.size() < 16) {  // magic + version + checksum
    reader.fail("input shorter than the fixed envelope");
  }
  const std::uint32_t got_magic = reader.u32("magic");
  if (got_magic != magic) {
    reader.fail("bad magic 0x" + std::to_string(got_magic) + " (not a " +
                std::string(what) + " file)");
  }
  const std::uint32_t version = reader.u32("version");
  if (version < kVersion || version > max_version) {
    reader.fail("unsupported version " + std::to_string(version));
  }
  const std::size_t body = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int b = 0; b < 8; ++b) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[body + b]))
              << (8 * b);
  }
  if (stored != fnv1a(bytes.data(), body)) {
    throw std::invalid_argument(std::string(what) +
                                ": checksum mismatch — corrupted or truncated input");
  }
}

void seal(std::string& out) { put_u64(out, fnv1a(out.data(), out.size())); }

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes, const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path +
                             " for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error(std::string(what) + ": short write to " + path);
  }
}

}  // namespace

std::string serialize_tile_view(const TileViewHeader& header,
                                const core::PlacementProblem& problem) {
  const std::size_t M = problem.num_servers();
  const std::size_t K = problem.num_users();
  const std::size_t I = problem.num_models();
  const model::ModelLibrary& library = problem.library();

  // v1 for the unconstrained problem — bit-identical to the pre-compute
  // codec — and v2 with the compute section when any capacity is finite.
  const bool joint = problem.compute_constrained();

  std::string out;
  out.reserve(64 + M * 16 + K * 8 + M * K * 9 + I * 32);
  put_u32(out, kViewMagic);
  put_u32(out, joint ? kViewVersionJoint : kVersion);
  put_string(out, header.algo);
  put_u32(out, header.threads);
  put_u32(out, header.tile_index);
  put_u64(out, header.solver_seed);
  put_f64(out, header.time_budget_s);

  put_u32(out, static_cast<std::uint32_t>(M));
  put_u32(out, static_cast<std::uint32_t>(K));
  put_u32(out, static_cast<std::uint32_t>(I));
  put_u32(out, static_cast<std::uint32_t>(library.num_blocks()));

  for (ServerId m = 0; m < M; ++m) put_u32(out, problem.global_server(m));
  for (UserId k = 0; k < K; ++k) put_u32(out, problem.global_user(k));
  for (ServerId m = 0; m < M; ++m) put_u64(out, problem.capacity(m));
  put_f64(out, problem.backhaul_bps());

  for (BlockId j = 0; j < library.num_blocks(); ++j) {
    put_u64(out, library.block(j).size_bytes);
    put_string(out, library.block(j).name);
  }
  for (ModelId i = 0; i < I; ++i) {
    const model::ModelSpec& spec = library.model(i);
    put_string(out, spec.name);
    put_string(out, spec.family);
    put_u32(out, static_cast<std::uint32_t>(spec.blocks.size()));
    for (const BlockId j : spec.blocks) put_u32(out, j);
  }

  // Sparse request rows over the p > 0 support, budget-expired cells
  // included: the owning problem re-sums request mass over exactly these
  // cells in exactly this order, matching the borrowed sub-view bit for bit.
  const workload::RequestModel& requests = problem.requests();
  for (UserId k = 0; k < K; ++k) {
    const UserId rk = problem.request_user(k);
    const auto cells = requests.requested(rk);
    put_u32(out, static_cast<std::uint32_t>(cells.size()));
    for (const workload::RequestCell& cell : cells) {
      put_u32(out, cell.model);
      put_f64(out, cell.probability);
      put_f64(out, requests.deadline_s(rk, cell.model));
      put_f64(out, requests.inference_s(rk, cell.model));
    }
  }

  for (ServerId m = 0; m < M; ++m) {
    for (const double inv : problem.inverse_effective_rates(m)) put_f64(out, inv);
  }
  for (ServerId m = 0; m < M; ++m) {
    for (const char a : problem.associations(m)) out.push_back(a ? '\1' : '\0');
  }

  if (joint) {
    // Optional compute section (v2): presence flag, per-server compute
    // capacities, then the cost scale (compute units per second of
    // inference latency) every request cell's cost derives from.
    put_u32(out, 1);
    for (ServerId m = 0; m < M; ++m) put_f64(out, problem.compute_capacity(m));
    put_f64(out, requests.cost_scale());
  }

  seal(out);
  return out;
}

TileView parse_tile_view(const std::string& bytes) {
  verify_envelope(bytes, kViewMagic, "tile view", kViewVersionJoint);
  BinaryReader reader(bytes, "tile view");
  reader.u32("magic");
  const std::uint32_t version = reader.u32("version");

  TileView view;
  view.header.algo = reader.str("algo");
  view.header.threads = reader.u32("threads");
  view.header.tile_index = reader.u32("tile_index");
  view.header.solver_seed = reader.u64("solver_seed");
  view.header.time_budget_s = reader.f64("time_budget_s");

  const std::uint32_t M = reader.u32("num_servers");
  const std::uint32_t K = reader.u32("num_users");
  const std::uint32_t I = reader.u32("num_models");
  const std::uint32_t J = reader.u32("num_blocks");
  if (M == 0 || K == 0 || I == 0 || J == 0) {
    reader.fail("empty dimension (servers/users/models/blocks must all be > 0)");
  }
  reader.check_count(M, 12, "server");
  reader.check_count(K, 4, "user");
  reader.check_count(static_cast<std::uint64_t>(M) * K, 9, "link cell");

  core::OwnedProblemData& data = view.data;
  data.server_ids.resize(M);
  for (std::uint32_t m = 0; m < M; ++m) data.server_ids[m] = reader.u32("server id");
  data.user_ids.resize(K);
  for (std::uint32_t k = 0; k < K; ++k) data.user_ids[k] = reader.u32("user id");
  data.capacities.resize(M);
  for (std::uint32_t m = 0; m < M; ++m) data.capacities[m] = reader.u64("capacity");
  data.backhaul_bps = reader.f64("backhaul_bps");

  reader.check_count(J, 12, "block");
  for (std::uint32_t j = 0; j < J; ++j) {
    const support::Bytes size = reader.u64("block size");
    data.library.add_block(size, reader.str("block name"));
  }
  reader.check_count(I, 12, "model");
  for (std::uint32_t i = 0; i < I; ++i) {
    std::string name = reader.str("model name");
    std::string family = reader.str("model family");
    const std::uint32_t n = reader.u32("model block count");
    reader.check_count(n, 4, "model block");
    std::vector<BlockId> blocks(n);
    for (std::uint32_t b = 0; b < n; ++b) blocks[b] = reader.u32("model block id");
    try {
      data.library.add_model(std::move(name), std::move(family), std::move(blocks));
    } catch (const std::exception& e) {
      reader.fail(std::string("invalid model record: ") + e.what());
    }
  }
  data.library.finalize();

  std::vector<std::vector<workload::RequestEntry>> rows(K);
  for (std::uint32_t k = 0; k < K; ++k) {
    const std::uint32_t n = reader.u32("request row length");
    reader.check_count(n, 28, "request cell");
    rows[k].resize(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      workload::RequestEntry& cell = rows[k][r];
      cell.model = reader.u32("request model id");
      cell.probability = reader.f64("request probability");
      cell.deadline_s = reader.f64("request deadline");
      cell.inference_s = reader.f64("request inference time");
    }
  }

  const std::size_t cells = static_cast<std::size_t>(M) * K;
  data.inv_eff.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) data.inv_eff[c] = reader.f64("inv_eff cell");
  data.assoc.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    data.assoc[c] = static_cast<char>(reader.u8("assoc cell") != 0);
  }

  double cost_scale = 0.0;
  if (version >= kViewVersionJoint) {
    // Optional compute section: flag-gated, so an unconstrained v2 file
    // carries no capacities/costs and parses identically to v1.
    const std::uint32_t has_compute = reader.u32("compute section flag");
    if (has_compute > 1) {
      reader.fail("bad compute section flag " + std::to_string(has_compute));
    }
    if (has_compute == 1) {
      reader.check_count(M, 8, "compute capacity");
      data.compute_capacities.resize(M);
      for (std::uint32_t m = 0; m < M; ++m) {
        const double cap = data.compute_capacities[m] = reader.f64("compute capacity");
        if (std::isnan(cap) || cap < 0) {
          reader.fail("compute capacity must be >= 0");
        }
      }
      cost_scale = reader.f64("compute cost scale");  // from_rows validates it
    }
  }
  try {
    data.requests = workload::RequestModel::from_rows(I, rows, cost_scale);
  } catch (const std::exception& e) {
    reader.fail(std::string("invalid request rows: ") + e.what());
  }

  // Strict tail: everything before the 8-byte checksum must have been
  // consumed. A v1-shaped parse of a file carrying trailing sections (e.g. a
  // forged version field) fails loudly here instead of silently dropping
  // data.
  if (reader.remaining() != 8) {
    reader.fail(std::to_string(reader.remaining() - 8) +
                " unconsumed byte(s) before the checksum");
  }
  return view;
}

std::string serialize_tile_result(const TileResult& result) {
  const core::PlacementSolution& placement = result.outcome.placement;
  std::string out;
  out.reserve(64 + placement.total_placements() * 4 + placement.num_servers() * 4);
  put_u32(out, kResultMagic);
  put_u32(out, kVersion);
  put_u32(out, result.tile_index);
  put_u32(out, static_cast<std::uint32_t>(placement.num_servers()));
  put_u32(out, static_cast<std::uint32_t>(placement.num_models()));
  for (ServerId m = 0; m < placement.num_servers(); ++m) {
    const auto& models = placement.models_on(m);  // placement order: stitch
    put_u32(out, static_cast<std::uint32_t>(models.size()));  // order depends on it
    for (const ModelId i : models) put_u32(out, i);
  }
  put_f64(out, result.outcome.hit_ratio);
  put_f64(out, result.outcome.wall_seconds);
  put_u64(out, result.outcome.gain_evaluations);
  put_u64(out, result.outcome.iterations);
  put_u32(out, result.outcome.optimality_bound.has_value() ? 1 : 0);
  put_f64(out, result.outcome.optimality_bound.value_or(0.0));
  seal(out);
  return out;
}

TileResult parse_tile_result(const std::string& bytes) {
  verify_envelope(bytes, kResultMagic, "tile result", kVersion);
  BinaryReader reader(bytes, "tile result");
  reader.u32("magic");
  reader.u32("version");
  const std::uint32_t tile_index = reader.u32("tile_index");
  const std::uint32_t M = reader.u32("num_servers");
  const std::uint32_t I = reader.u32("num_models");
  reader.check_count(M, 4, "server row");
  core::PlacementSolution placement(M, I);
  for (std::uint32_t m = 0; m < M; ++m) {
    const std::uint32_t n = reader.u32("placement row length");
    reader.check_count(n, 4, "placement cell");
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t i = reader.u32("placed model id");
      if (i >= I) reader.fail("placed model id " + std::to_string(i) + " out of range");
      placement.place(m, i);
    }
  }
  TileResult result(tile_index, core::SolverOutcome(std::move(placement)));
  result.outcome.hit_ratio = reader.f64("hit_ratio");
  result.outcome.wall_seconds = reader.f64("wall_seconds");
  result.outcome.gain_evaluations = reader.u64("gain_evaluations");
  result.outcome.iterations = reader.u64("iterations");
  const bool has_bound = reader.u32("has optimality bound") != 0;
  const double bound = reader.f64("optimality bound");
  if (has_bound) result.outcome.optimality_bound = bound;
  if (reader.remaining() != 8) {
    reader.fail(std::to_string(reader.remaining() - 8) +
                " unconsumed byte(s) before the checksum");
  }
  return result;
}

void write_tile_view(const std::string& path, const TileViewHeader& header,
                     const core::PlacementProblem& problem) {
  write_file(path, serialize_tile_view(header, problem), "write_tile_view");
}

TileView read_tile_view(const std::string& path) {
  return parse_tile_view(read_file(path, "read_tile_view"));
}

void write_tile_result(const std::string& path, const TileResult& result) {
  write_file(path, serialize_tile_result(result), "write_tile_result");
}

TileResult read_tile_result(const std::string& path) {
  return parse_tile_result(read_file(path, "read_tile_result"));
}

}  // namespace trimcaching::io
