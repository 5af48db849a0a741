// RPC trace loading and replay.
//
// The paper's artifact lets users "try out the simulator with their own RPC
// size distribution"; traces go one step further and replay a recorded RPC
// log (time, src, dst, priority, bytes[, deadline]) through any experiment.
// CSV is used so traces round-trip through standard tooling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/packet.h"
#include "rpc/priority.h"
#include "rpc/rpc_stack.h"
#include "sim/simulator.h"

namespace aeq::workload {

struct TraceRecord {
  sim::Time issue_time = 0.0;
  net::HostId src = net::kNoHost;
  net::HostId dst = net::kNoHost;
  rpc::Priority priority = rpc::Priority::kPC;
  std::uint64_t bytes = 0;
  sim::Time deadline_budget = 0.0;  // optional column

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// Parses "time,src,dst,priority,bytes[,deadline]" rows; `priority` is PC,
// NC or BE (case-insensitive). Lines starting with '#' and a header line
// beginning with "time" are skipped. Throws nothing: malformed lines are
// reported via the returned struct.
struct TraceParseResult {
  std::vector<TraceRecord> records;
  std::vector<std::string> errors;  // one message per rejected line
};
TraceParseResult parse_trace_csv(std::istream& in);

// Schedules every record of the trace against per-host RPC stacks.
// `stacks[src]` must outlive the simulation. Records are issued at
// `record.issue_time + offset`; out-of-range hosts are skipped and counted.
struct ReplayStats {
  std::size_t scheduled = 0;
  std::size_t skipped = 0;
};
ReplayStats replay_trace(sim::Simulator& simulator,
                         const std::vector<TraceRecord>& records,
                         const std::vector<rpc::RpcStack*>& stacks,
                         sim::Time offset = 0.0);

}  // namespace aeq::workload
