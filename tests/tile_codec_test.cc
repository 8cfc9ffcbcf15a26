// Contracts of the binary tile format (io/tile_codec.h):
//
//   * round-trip fidelity: a borrowed tile sub-view serialized and parsed
//     back as an owning problem reproduces every solver-visible quantity
//     *bitwise* — link arrays, hit lists, request/reachable mass, payload
//     bits — and registry solvers produce bit-identical outcomes on both;
//   * tile results round-trip placement rows in placement order plus all
//     outcome scalars;
//   * hardening: every truncated prefix and every single-byte corruption of
//     a valid file fails with std::invalid_argument (a diagnostic, never a
//     crash) — the coordinator survives any bad worker output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/solver_registry.h"
#include "src/io/tile_codec.h"
#include "src/sim/scenario.h"

namespace trimcaching::io {
namespace {

using support::Rng;

sim::Scenario tiny_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.num_servers = 4;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 5;
  config.requests.models_per_user = 4;
  Rng rng(seed);
  return sim::build_scenario(config, rng);
}

/// Same shape with a binding per-server compute capacity: the writer must
/// switch to the v2 format and ship the compute section.
sim::Scenario tiny_joint_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.num_servers = 4;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 5;
  config.requests.models_per_user = 4;
  config.compute_capacity = 0.1;
  Rng rng(seed);
  return sim::build_scenario(config, rng);
}

// Byte-surgery helpers for the forward-compat legs: the codec's envelope is
// magic(4) + version(4) + body + FNV-1a-64 checksum(8), all little-endian.

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t b = 0; b < n; ++b) {
    h ^= static_cast<unsigned char>(data[b]);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Recomputes and replaces the trailing checksum so a deliberately forged
/// body passes the envelope check and reaches the structural parser.
std::string reseal(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  const std::uint64_t h = fnv1a(bytes.data(), bytes.size());
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<char>((h >> (8 * b)) & 0xff));
  }
  return bytes;
}

std::uint32_t version_of(const std::string& bytes) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[4 + b]))
         << (8 * b);
  }
  return v;
}

void set_version(std::string& bytes, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) bytes[4 + b] = static_cast<char>((v >> (8 * b)) & 0xff);
}

void set_u32_at(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
}

void set_f64_at(std::string& bytes, std::size_t at, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    bytes[at + b] = static_cast<char>((bits >> (8 * b)) & 0xff);
  }
}

/// Total request cells the view serializes (one inference cost per cell in
/// the v2 compute section) — used to locate section offsets from the tail.
std::size_t request_cells(const core::PlacementProblem& problem) {
  std::size_t cells = 0;
  for (UserId k = 0; k < problem.num_users(); ++k) {
    cells += problem.requests().requested_models(problem.request_user(k)).size();
  }
  return cells;
}

TileViewHeader sample_header() {
  TileViewHeader header;
  header.algo = "gen:lazy=1";
  header.threads = 3;
  header.tile_index = 7;
  header.solver_seed = 0x1234'5678'9abc'def0ull;
  header.time_budget_s = 2.5;
  return header;
}

TEST(TileCodec, ViewRoundTripReproducesTheSubViewBitwise) {
  const sim::Scenario scenario = tiny_scenario(41);
  const std::vector<ServerId> servers = {0, 2, 3};
  const std::vector<UserId> users = {1, 3, 4, 7, 8, 11};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);

  const std::string bytes = serialize_tile_view(sample_header(), view);
  TileView parsed = parse_tile_view(bytes);
  EXPECT_EQ(parsed.header.algo, "gen:lazy=1");
  EXPECT_EQ(parsed.header.threads, 3u);
  EXPECT_EQ(parsed.header.tile_index, 7u);
  EXPECT_EQ(parsed.header.solver_seed, 0x1234'5678'9abc'def0ull);
  EXPECT_DOUBLE_EQ(parsed.header.time_budget_s, 2.5);

  const core::PlacementProblem owned(std::move(parsed.data));
  EXPECT_TRUE(owned.owns_data());
  EXPECT_TRUE(owned.is_view());
  EXPECT_THROW((void)owned.topology(), std::logic_error);

  ASSERT_EQ(owned.num_servers(), view.num_servers());
  ASSERT_EQ(owned.num_users(), view.num_users());
  ASSERT_EQ(owned.num_models(), view.num_models());
  // Bitwise agreement of every quantity a solver consumes: EXPECT_EQ on
  // doubles here is deliberate — the contract is exactness, not closeness.
  EXPECT_EQ(owned.total_mass(), view.total_mass());
  EXPECT_EQ(owned.reachable_mass(), view.reachable_mass());
  EXPECT_EQ(owned.backhaul_bps(), view.backhaul_bps());
  for (ModelId i = 0; i < view.num_models(); ++i) {
    EXPECT_EQ(owned.payload_bits(i), view.payload_bits(i));
  }
  for (ServerId m = 0; m < view.num_servers(); ++m) {
    EXPECT_EQ(owned.global_server(m), view.global_server(m));
    EXPECT_EQ(owned.capacity(m), view.capacity(m));
    const auto owned_inv = owned.inverse_effective_rates(m);
    const auto view_inv = view.inverse_effective_rates(m);
    const auto owned_assoc = owned.associations(m);
    const auto view_assoc = view.associations(m);
    for (UserId k = 0; k < view.num_users(); ++k) {
      EXPECT_EQ(owned.global_user(k), view.global_user(k));
      EXPECT_EQ(owned_inv[k], view_inv[k]) << "m=" << m << " k=" << k;
      EXPECT_EQ(owned_assoc[k], view_assoc[k]) << "m=" << m << " k=" << k;
      EXPECT_EQ(owned.request_probability(k, 0), view.request_probability(k, 0));
    }
    for (ModelId i = 0; i < view.num_models(); ++i) {
      std::vector<core::HitEntry> owned_hits;
      for (const core::HitEntry& entry : owned.hit_list(m, i)) owned_hits.push_back(entry);
      std::vector<core::HitEntry> view_hits;
      for (const core::HitEntry& entry : view.hit_list(m, i)) view_hits.push_back(entry);
      ASSERT_EQ(owned_hits.size(), view_hits.size()) << "m=" << m << " i=" << i;
      for (std::size_t e = 0; e < view_hits.size(); ++e) {
        EXPECT_EQ(owned_hits[e].user, view_hits[e].user);
        EXPECT_EQ(owned_hits[e].mass, view_hits[e].mass);
      }
    }
  }
}

TEST(TileCodec, SolversAreBitIdenticalOnTheDeserializedProblem) {
  const sim::Scenario scenario = tiny_scenario(42);
  const std::vector<ServerId> servers = {0, 1, 3};
  const std::vector<UserId> users = {0, 2, 3, 5, 6, 9, 10};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  TileView parsed = parse_tile_view(serialize_tile_view(sample_header(), view));
  const core::PlacementProblem owned(std::move(parsed.data));

  for (const std::string spec : {"gen", "spec", "gen_naive", "independent"}) {
    core::SolverContext borrowed_context{Rng(9)};
    core::SolverContext owned_context{Rng(9)};
    const auto& registry = core::SolverRegistry::instance();
    const auto borrowed = registry.make(spec)->run(view, borrowed_context);
    const auto deserialized = registry.make(spec)->run(owned, owned_context);
    EXPECT_EQ(borrowed.hit_ratio, deserialized.hit_ratio) << spec;
    EXPECT_EQ(borrowed.gain_evaluations, deserialized.gain_evaluations) << spec;
    EXPECT_EQ(borrowed.iterations, deserialized.iterations) << spec;
    ASSERT_EQ(borrowed.placement.num_servers(), deserialized.placement.num_servers());
    for (ServerId m = 0; m < borrowed.placement.num_servers(); ++m) {
      // Exact placement-order equality, not just set equality.
      EXPECT_EQ(borrowed.placement.models_on(m), deserialized.placement.models_on(m))
          << spec << " server " << m;
    }
  }
}

TEST(TileCodec, OwnedBundleWithInconsistentRelayRatesIsRejected) {
  // The owned problem prices each user's relay once, from its
  // non-associated inv_eff cells; a bundle where those cells disagree cannot
  // come from a borrowed view and must fail loudly, naming the array.
  const sim::Scenario scenario = tiny_scenario(47);
  const std::vector<ServerId> servers = {0, 1, 2, 3};
  const std::vector<UserId> users = {1, 4, 5, 9, 10};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string bytes = serialize_tile_view(sample_header(), view);
  const std::size_t M = view.num_servers();
  const std::size_t K = view.num_users();

  // Pick a user with two non-associated view servers and skew one cell.
  std::size_t target = K * M;
  for (std::size_t k = 0; k < K && target == K * M; ++k) {
    std::size_t first = M;
    for (std::size_t m = 0; m < M; ++m) {
      if (view.associations(static_cast<ServerId>(m))[k]) continue;
      if (first == M) {
        first = m;
      } else {
        target = m * K + k;
        break;
      }
    }
  }
  ASSERT_LT(target, K * M) << "no user with two non-associated servers";

  TileView consistent = parse_tile_view(bytes);
  EXPECT_NO_THROW((void)core::PlacementProblem(std::move(consistent.data)));

  // One ulp is enough: the cells must agree bit for bit.
  TileView skewed = parse_tile_view(bytes);
  skewed.data.inv_eff[target] = std::nextafter(skewed.data.inv_eff[target], 0.0);
  try {
    (void)core::PlacementProblem(std::move(skewed.data));
    FAIL() << "differing non-associated inv_eff entries must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("inv_eff"), std::string::npos) << e.what();
  }

  // Associated cells are per-link rates and may differ freely.
  TileView direct_skew = parse_tile_view(bytes);
  for (std::size_t c = 0; c < M * K; ++c) {
    if (direct_skew.data.assoc[c]) {
      direct_skew.data.inv_eff[c] *= 2.0;
      break;
    }
  }
  EXPECT_NO_THROW((void)core::PlacementProblem(std::move(direct_skew.data)));
}

// --------------------------------------------- joint compute forward compat

TEST(TileCodec, UnconstrainedProblemStillSerializesVersion1) {
  // The compatibility half of the v2 format: a compute-unconstrained problem
  // must keep producing version-1 bytes — bit-identical to the pre-compute
  // codec — so existing tile files and mixed-version worker fleets keep
  // working unchanged.
  const sim::Scenario scenario = tiny_scenario(48);
  const std::vector<ServerId> servers = {0, 2};
  const std::vector<UserId> users = {1, 3, 5, 8};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string bytes = serialize_tile_view(sample_header(), view);
  EXPECT_EQ(version_of(bytes), 1u);
  TileView parsed = parse_tile_view(bytes);
  const core::PlacementProblem owned(std::move(parsed.data));
  EXPECT_FALSE(owned.compute_constrained());
}

TEST(TileCodec, ConstrainedViewRoundTripsTheComputeSectionBitwise) {
  const sim::Scenario scenario = tiny_joint_scenario(49);
  const std::vector<ServerId> servers = {0, 1, 3};
  const std::vector<UserId> users = {0, 2, 4, 6, 9, 11};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  ASSERT_TRUE(view.compute_constrained());
  const std::string bytes = serialize_tile_view(sample_header(), view);
  EXPECT_EQ(version_of(bytes), 2u);

  TileView parsed = parse_tile_view(bytes);
  const core::PlacementProblem owned(std::move(parsed.data));
  ASSERT_TRUE(owned.compute_constrained());
  for (ServerId m = 0; m < view.num_servers(); ++m) {
    EXPECT_EQ(owned.compute_capacity(m), view.compute_capacity(m)) << "m=" << m;
  }
  for (UserId k = 0; k < view.num_users(); ++k) {
    // The codec ships one cost per serialized request cell (the p > 0
    // support) — compare exactly those.
    const auto models = view.requests().requested_models(view.request_user(k));
    for (const ModelId i : models) {
      EXPECT_EQ(owned.compute_cost(k, i), view.compute_cost(k, i))
          << "k=" << k << " i=" << i;
    }
  }
  // Solvers take the joint path on both sides and must agree bit for bit.
  for (const std::string spec : {"gen", "spec"}) {
    core::SolverContext borrowed_context{Rng(9)};
    core::SolverContext owned_context{Rng(9)};
    const auto& registry = core::SolverRegistry::instance();
    const auto borrowed = registry.make(spec)->run(view, borrowed_context);
    const auto deserialized = registry.make(spec)->run(owned, owned_context);
    EXPECT_EQ(borrowed.hit_ratio, deserialized.hit_ratio) << spec;
    for (ServerId m = 0; m < borrowed.placement.num_servers(); ++m) {
      EXPECT_EQ(borrowed.placement.models_on(m), deserialized.placement.models_on(m))
          << spec << " server " << m;
    }
  }
}

TEST(TileCodec, ForgedVersion1OnAComputeFileFailsLoudly) {
  // A v1-shaped parse must never silently drop a trailing compute section:
  // forging the version field down to 1 (checksum re-sealed so the envelope
  // passes) has to die on the strict unconsumed-bytes check, not succeed
  // with the capacities quietly discarded.
  const sim::Scenario scenario = tiny_joint_scenario(50);
  const std::vector<ServerId> servers = {0, 2};
  const std::vector<UserId> users = {1, 4, 7, 10};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  std::string bytes = serialize_tile_view(sample_header(), view);
  ASSERT_EQ(version_of(bytes), 2u);
  set_version(bytes, 1);
  bytes = reseal(std::move(bytes));
  try {
    (void)parse_tile_view(bytes);
    FAIL() << "v1 parse of a file carrying a compute section must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unconsumed"), std::string::npos)
        << e.what();
  }
}

TEST(TileCodec, Version2WithoutComputeSectionMatchesVersion1Bitwise) {
  // Forward compat in the other direction: a v2 file whose compute flag is 0
  // must parse to the same problem as the v1 bytes — and because the writer
  // canonicalizes (unconstrained data re-serializes as v1), both parses
  // re-serialize to the identical v1 byte string.
  const sim::Scenario scenario = tiny_scenario(51);
  const std::vector<ServerId> servers = {1, 3};
  const std::vector<UserId> users = {0, 2, 5, 9};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string v1 = serialize_tile_view(sample_header(), view);
  ASSERT_EQ(version_of(v1), 1u);

  std::string v2 = v1;
  set_version(v2, 2);
  v2.insert(v2.size() - 8, std::string(4, '\0'));  // compute flag = 0
  v2 = reseal(std::move(v2));
  TileView from_v1 = parse_tile_view(v1);
  TileView from_v2 = parse_tile_view(v2);
  const core::PlacementProblem owned_v1(std::move(from_v1.data));
  const core::PlacementProblem owned_v2(std::move(from_v2.data));
  EXPECT_FALSE(owned_v2.compute_constrained());
  EXPECT_EQ(owned_v2.total_mass(), owned_v1.total_mass());
  EXPECT_EQ(serialize_tile_view(sample_header(), owned_v1), v1);
  EXPECT_EQ(serialize_tile_view(sample_header(), owned_v2), v1);
}

TEST(TileCodec, ComputeSectionValidationRejectsBadValues) {
  const sim::Scenario scenario = tiny_joint_scenario(52);
  const std::vector<ServerId> servers = {0, 1};
  const std::vector<UserId> users = {2, 3, 6, 8};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string bytes = serialize_tile_view(sample_header(), view);
  ASSERT_EQ(version_of(bytes), 2u);
  // Section layout from the tail: checksum(8) <- costs(cells*8) <- caps(M*8)
  // <- flag(4).
  const std::size_t cells = request_cells(view);
  const std::size_t caps_at = bytes.size() - 8 - cells * 8 - view.num_servers() * 8;
  const std::size_t flag_at = caps_at - 4;

  std::string bad_flag = bytes;
  set_u32_at(bad_flag, flag_at, 2);
  EXPECT_THROW((void)parse_tile_view(reseal(std::move(bad_flag))),
               std::invalid_argument);

  std::string bad_cap = bytes;
  set_f64_at(bad_cap, caps_at, -1.0);
  try {
    (void)parse_tile_view(reseal(std::move(bad_cap)));
    FAIL() << "negative compute capacity must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("compute capacity"), std::string::npos)
        << e.what();
  }

  // The hardening fuzz extends over the compute section: every truncated
  // prefix and every single-byte corruption of the v2 file fails loudly.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)parse_tile_view(bytes.substr(0, n)), std::invalid_argument)
        << "prefix length " << n;
  }
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    std::string corrupt = bytes;
    corrupt[b] = static_cast<char>(corrupt[b] ^ 0x40);
    EXPECT_THROW((void)parse_tile_view(corrupt), std::invalid_argument)
        << "flipped byte " << b;
  }
}

TEST(TileCodec, TrailingGarbageOnAResultFailsLoudly) {
  // Tile results stay v1; a result file with extra bytes smuggled in front
  // of the checksum (re-sealed, so only the strict tail can catch it) must
  // be rejected — a worker writing a malformed record never feeds the
  // stitch.
  core::SolverOutcome outcome{core::PlacementSolution(2, 3)};
  std::string bytes = serialize_tile_result(TileResult(1, std::move(outcome)));
  bytes.insert(bytes.size() - 8, std::string(4, '\0'));
  EXPECT_THROW((void)parse_tile_result(reseal(std::move(bytes))),
               std::invalid_argument);
}

TEST(TileCodec, ResultRoundTripKeepsPlacementOrderAndScalars) {
  core::PlacementSolution placement(3, 8);
  placement.place(0, 5);
  placement.place(0, 2);  // order matters: 5 before 2
  placement.place(2, 7);
  core::SolverOutcome outcome(std::move(placement));
  outcome.hit_ratio = 0.725;
  outcome.wall_seconds = 1.5e-3;
  outcome.gain_evaluations = 1234;
  outcome.iterations = 99;
  outcome.optimality_bound = 0.81;

  const TileResult original(4, std::move(outcome));
  const TileResult parsed = parse_tile_result(serialize_tile_result(original));
  EXPECT_EQ(parsed.tile_index, 4u);
  EXPECT_EQ(parsed.outcome.placement.num_servers(), 3u);
  EXPECT_EQ(parsed.outcome.placement.num_models(), 8u);
  EXPECT_EQ(parsed.outcome.placement.models_on(0), (std::vector<ModelId>{5, 2}));
  EXPECT_TRUE(parsed.outcome.placement.models_on(1).empty());
  EXPECT_EQ(parsed.outcome.placement.models_on(2), (std::vector<ModelId>{7}));
  EXPECT_EQ(parsed.outcome.hit_ratio, 0.725);
  EXPECT_EQ(parsed.outcome.wall_seconds, 1.5e-3);
  EXPECT_EQ(parsed.outcome.gain_evaluations, 1234u);
  EXPECT_EQ(parsed.outcome.iterations, 99u);
  ASSERT_TRUE(parsed.outcome.optimality_bound.has_value());
  EXPECT_EQ(*parsed.outcome.optimality_bound, 0.81);

  core::SolverOutcome no_bound{core::PlacementSolution(1, 2)};
  const TileResult unbounded =
      parse_tile_result(serialize_tile_result(TileResult(0, std::move(no_bound))));
  EXPECT_FALSE(unbounded.outcome.optimality_bound.has_value());
}

TEST(TileCodec, EveryTruncatedPrefixFailsLoudly) {
  const sim::Scenario scenario = tiny_scenario(43);
  const std::vector<ServerId> servers = {1, 2};
  const std::vector<UserId> users = {0, 4, 6, 8};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string bytes = serialize_tile_view(sample_header(), view);
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)parse_tile_view(bytes.substr(0, n)), std::invalid_argument)
        << "prefix length " << n;
  }

  core::SolverOutcome outcome{core::PlacementSolution(2, 3)};
  const std::string result_bytes =
      serialize_tile_result(TileResult(1, std::move(outcome)));
  for (std::size_t n = 0; n < result_bytes.size(); ++n) {
    EXPECT_THROW((void)parse_tile_result(result_bytes.substr(0, n)),
                 std::invalid_argument)
        << "prefix length " << n;
  }
}

TEST(TileCodec, EverySingleByteCorruptionFailsLoudly) {
  const sim::Scenario scenario = tiny_scenario(44);
  const std::vector<ServerId> servers = {0, 3};
  const std::vector<UserId> users = {2, 5, 7};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string bytes = serialize_tile_view(sample_header(), view);
  // An FNV-1a step is bijective in the running state, so one flipped byte
  // always changes the final checksum — every flip must be rejected (flips
  // inside the stored checksum itself included).
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    std::string corrupt = bytes;
    corrupt[b] = static_cast<char>(corrupt[b] ^ 0x40);
    EXPECT_THROW((void)parse_tile_view(corrupt), std::invalid_argument)
        << "flipped byte " << b;
  }
}

TEST(TileCodec, RejectsForeignMagicAndReportsDiagnostics) {
  EXPECT_THROW((void)parse_tile_view(""), std::invalid_argument);
  EXPECT_THROW((void)parse_tile_view("not a tile view at all"), std::invalid_argument);
  try {
    (void)parse_tile_view(std::string(64, '\0'));
    FAIL() << "zeroed input must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tile view"), std::string::npos);
  }
  // A valid view is not a valid result and vice versa (magic mismatch).
  const sim::Scenario scenario = tiny_scenario(45);
  const core::PlacementProblem full = scenario.problem();
  const std::string view_bytes = serialize_tile_view(sample_header(), full);
  EXPECT_THROW((void)parse_tile_result(view_bytes), std::invalid_argument);

  EXPECT_THROW((void)read_tile_view("/nonexistent/trimcaching.tile"),
               std::runtime_error);
}

TEST(TileCodec, FileRoundTrip) {
  const sim::Scenario scenario = tiny_scenario(46);
  const std::vector<ServerId> servers = {0, 1};
  const std::vector<UserId> users = {1, 2, 3};
  const core::PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
  const std::string path = testing::TempDir() + "/trimcaching_codec_test.view";
  write_tile_view(path, sample_header(), view);
  TileView parsed = read_tile_view(path);
  EXPECT_EQ(parsed.header.algo, "gen:lazy=1");
  const core::PlacementProblem owned(std::move(parsed.data));
  EXPECT_EQ(owned.total_mass(), view.total_mass());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trimcaching::io
