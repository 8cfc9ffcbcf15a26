// Minimal key=value command-line option parser for the CLI tools.
//
//   trimcaching_cli servers=10 users=20 capacity_gb=1.0 algo=gen
//
// Keys are free-form; consumers declare the keys they understand and call
// check_unknown() so typos fail loudly instead of silently using defaults.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace trimcaching::support {

class Options {
 public:
  /// Parses argv[1..argc): each argument must look like key=value.
  /// Throws std::invalid_argument on malformed tokens or duplicate keys.
  static Options parse(int argc, const char* const* argv);

  /// Parses a separator-joined key=value list, e.g. "rule=per_byte,threads=2".
  /// An empty string yields an empty option set. Used by the solver registry
  /// for the option tail of "name:k=v,k=v" specs.
  static Options parse_pairs(const std::string& text, char separator = ',');

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters; fall back to `fallback` when the key is absent and throw
  /// std::invalid_argument when the value does not parse.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Throws std::invalid_argument if any parsed key is not in `known`.
  void check_unknown(const std::set<std::string>& known) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

 private:
  /// Validates and inserts one "key=value" token; shared by both parsers.
  void insert_token(const std::string& token);

  std::map<std::string, std::string> values_;
};

}  // namespace trimcaching::support
