#include "tools/flags.h"

#include <charconv>
#include <sstream>

namespace aeq::tools {

namespace {

// True when std::from_chars reads all of `text`: "12x", or "1e3" read as an
// int, does not parse.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc() && stop == end;
}

}  // namespace

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "expected --flag, got '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    bare_.erase(name);
    if (eq != std::string::npos) {
      values_[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";  // bare boolean flag
      bare_.insert(name);
    }
  }
  return true;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::get_path(const std::string& name) const {
  const std::string value = get(name);
  return valid(name, bare_.count(name) == 0) ? value : "";
}

bool Flags::valid(const std::string& name, bool ok) const {
  if (!has(name)) return false;
  if (!ok) malformed_[name] = values_.at(name);
  return ok;
}

double Flags::get_double(const std::string& name, double fallback) const {
  double out = 0.0;
  return valid(name, parse_whole(get(name), out)) ? out : fallback;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  std::int64_t out = 0;
  return valid(name, parse_whole(get(name), out)) ? out : fallback;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string v = get(name);
  const bool yes = v == "1" || v == "true" || v == "yes" || v == "on";
  const bool no = v == "0" || v == "false" || v == "no" || v == "off";
  return valid(name, yes || no) ? yes : fallback;
}

std::vector<double> Flags::get_list(const std::string& name,
                                    std::vector<double> fallback) const {
  std::stringstream stream(get(name));
  std::vector<double> out;
  std::string token;
  bool ok = true;
  while (ok && std::getline(stream, token, ',')) {
    double item = 0.0;
    ok = parse_whole(token, item);
    out.push_back(item);
  }
  return valid(name, ok && !out.empty()) ? out : fallback;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

std::string Flags::problem() const {
  if (!malformed_.empty()) {
    const auto& [name, value] = *malformed_.begin();
    if (bare_.count(name) != 0) return "missing value for --" + name;
    return "malformed value for --" + name + ": \"" + value + "\"";
  }
  const std::vector<std::string> unknown = unused();
  return unknown.empty() ? "" : "unknown flag --" + unknown.front();
}

}  // namespace aeq::tools
