// String-keyed registry of placement solvers.
//
// Every algorithm registers once under a short name; consumers create
// solvers from *spec strings*:
//
//   "gen"                          — registered defaults
//   "gen:rule=per_byte,threads=2"  — per-solver options after ':'
//   "spec+ls"                      — '+' composes refiners onto a base
//   "spec:eps=0.05+ls:rounds=4"    — options apply per segment
//
// Unknown names and unknown option keys throw std::invalid_argument; the
// unknown-name message lists every registered solver so CLI typos are
// self-diagnosing. Built-in solvers (spec, gen, gen_naive, independent,
// exact, top_pop, random, ls, repair) are registered on first use of
// instance(); extensions call instance().add(...) at startup.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/solver.h"
#include "src/support/options.h"

namespace trimcaching::core {

class SolverRegistry {
 public:
  struct Info {
    std::string name;     ///< registry key
    std::string summary;  ///< one line: what it is + accepted options
  };

  using Factory = std::function<std::unique_ptr<Solver>(const support::Options&)>;

  /// The process-wide registry, with the built-in solvers pre-registered.
  static SolverRegistry& instance();

  /// Registers a solver. Throws std::invalid_argument on duplicate names or
  /// names containing the reserved characters ':' and '+'.
  void add(std::string name, std::string summary, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered solvers, sorted by name.
  [[nodiscard]] std::vector<Info> list() const;

  /// Creates a solver from a spec string (see file comment for the syntax).
  [[nodiscard]] std::unique_ptr<Solver> make(std::string_view spec) const;

  /// Human-readable title of the solver a spec would create (convenience for
  /// table headers: instance().make(spec)->title()).
  [[nodiscard]] static std::string title_of(std::string_view spec);

 private:
  struct Entry {
    std::string summary;
    Factory factory;
  };

  [[nodiscard]] std::unique_ptr<Solver> make_single(std::string_view segment) const;

  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace trimcaching::core
