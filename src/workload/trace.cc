#include "workload/trace.h"

#include <algorithm>
#include <cctype>
#include <istream>
#include <sstream>

#include "sim/assert.h"

namespace aeq::workload {

namespace {

std::string to_upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

bool parse_priority(const std::string& token, rpc::Priority* out) {
  const std::string upper = to_upper(token);
  if (upper == "PC" || upper == "0") {
    *out = rpc::Priority::kPC;
  } else if (upper == "NC" || upper == "1") {
    *out = rpc::Priority::kNC;
  } else if (upper == "BE" || upper == "2") {
    *out = rpc::Priority::kBE;
  } else {
    return false;
  }
  return true;
}

}  // namespace

TraceParseResult parse_trace_csv(std::istream& in) {
  TraceParseResult result;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("time", 0) == 0) continue;  // header

    std::stringstream fields(line);
    std::string token;
    std::vector<std::string> tokens;
    while (std::getline(fields, token, ',')) tokens.push_back(token);
    if (tokens.size() < 5 || tokens.size() > 6) {
      result.errors.push_back("line " + std::to_string(line_number) +
                              ": expected 5-6 fields");
      continue;
    }
    try {
      TraceRecord record;
      record.issue_time = std::stod(tokens[0]);
      record.src = static_cast<net::HostId>(std::stol(tokens[1]));
      record.dst = static_cast<net::HostId>(std::stol(tokens[2]));
      if (!parse_priority(tokens[3], &record.priority)) {
        result.errors.push_back("line " + std::to_string(line_number) +
                                ": bad priority '" + tokens[3] + "'");
        continue;
      }
      record.bytes = std::stoull(tokens[4]);
      if (tokens.size() == 6) record.deadline_budget = std::stod(tokens[5]);
      if (record.issue_time < 0 || record.src < 0 || record.dst < 0 ||
          record.bytes == 0 || record.src == record.dst) {
        result.errors.push_back("line " + std::to_string(line_number) +
                                ": invalid field value");
        continue;
      }
      result.records.push_back(record);
    } catch (const std::exception&) {
      result.errors.push_back("line " + std::to_string(line_number) +
                              ": parse failure");
    }
  }
  return result;
}

ReplayStats replay_trace(sim::Simulator& simulator,
                         const std::vector<TraceRecord>& records,
                         const std::vector<rpc::RpcStack*>& stacks,
                         sim::Time offset) {
  ReplayStats stats;
  for (const TraceRecord& record : records) {
    const auto src = static_cast<std::size_t>(record.src);
    if (src >= stacks.size() ||
        static_cast<std::size_t>(record.dst) >= stacks.size() ||
        stacks[src] == nullptr) {
      ++stats.skipped;
      continue;
    }
    rpc::RpcStack* stack = stacks[src];
    const TraceRecord r = record;
    simulator.schedule_at(record.issue_time + offset, [stack, r] {
      stack->issue(r.dst, r.priority, r.bytes, r.deadline_budget);
    });
    ++stats.scheduled;
  }
  return stats;
}

}  // namespace aeq::workload
