// Minimal command-line flag parsing for the CLI tools: --name=value or
// --name value; typed getters with defaults; collects unknown-flag errors.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace aeq::tools {

class Flags {
 public:
  // Parses argv; returns false (and fills error()) on malformed input.
  bool parse(int argc, char** argv);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  // Typed getters also return `fallback` for a value that does not parse in
  // full ("12x", "1e3" as an int), which problem() then reports.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  // A flag that needs a value, such as a path: a bare --name reads as ""
  // and problem() reports the missing value.
  std::string get_path(const std::string& name) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  // 1/true/yes/on or 0/false/no/off (a bare --name is "true").
  bool get_bool(const std::string& name, bool fallback) const;
  // Comma-separated list of doubles, e.g. --mix=0.5,0.3,0.2.
  std::vector<double> get_list(const std::string& name,
                               std::vector<double> fallback) const;

  // Names seen on the command line but never queried — typo detection.
  std::vector<std::string> unused() const;

  // Once every flag is read: the first malformed or missing value, else the
  // first unused flag, as a message naming it; empty when neither.
  std::string problem() const;

  const std::string& error() const { return error_; }

 private:
  // Whether flag `name` is present and `ok`; records it if not `ok`.
  bool valid(const std::string& name, bool ok) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  // given without a value, so read "true"
  mutable std::map<std::string, bool> queried_;
  mutable std::map<std::string, std::string> malformed_;  // name -> value
  std::string error_;
};

}  // namespace aeq::tools
