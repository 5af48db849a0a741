// Tests for the two-sided RPC service layer (Appendix A): READ/WRITE
// operations, request/response correlation via app tags, receiver-side RPC
// delivery detection, and operation latency composition.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rpc/service.h"
#include "runner/experiment.h"

namespace aeq::rpc {
namespace {

struct ServiceHarness {
  runner::Experiment experiment;
  std::vector<std::unique_ptr<RpcServiceNode>> nodes;

  static runner::ExperimentConfig config(bool aequitas = false) {
    runner::ExperimentConfig c;
    c.num_hosts = 3;
    c.num_qos = 3;
    c.admission.kind = aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
    c.slo = SloConfig::make({15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
    return c;
  }

  explicit ServiceHarness(bool aequitas = false)
      : experiment(config(aequitas)) {
    for (net::HostId h = 0; h < 3; ++h) {
      nodes.push_back(std::make_unique<RpcServiceNode>(
          experiment.simulator(), experiment.stack(h),
          experiment.host_stack(h)));
    }
  }
};

TEST(RpcDeliveryTest, ReceiverSeesEachMessageOnce) {
  ServiceHarness h;
  std::vector<transport::DeliveredRpc> seen;
  h.experiment.host_stack(1).set_rpc_delivery_handler(
      [&](const transport::DeliveredRpc& d) { seen.push_back(d); });
  for (int i = 0; i < 5; ++i) {
    h.experiment.stack(0).issue(1, Priority::kPC, 32 * sim::kKiB, 0.0,
                                /*app_tag=*/100 + i);
  }
  h.experiment.simulator().run();
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i].app_tag, 100u + i);  // FIFO stream order
    EXPECT_EQ(seen[i].bytes, 32 * sim::kKiB);
    EXPECT_EQ(seen[i].src, 0);
  }
}

TEST(ServiceTest, TagRoundTrip) {
  const std::uint64_t tag = RpcServiceNode::encode_tag(
      2, Priority::kNC, (1ull << 36) - 1, 0xABCDEF);
  EXPECT_EQ(tag >> 62, 2u);
  EXPECT_EQ((tag >> 60) & 0x3, 1u);  // kNC
  EXPECT_EQ((tag >> 24) & ((1ull << 36) - 1), (1ull << 36) - 1);
  EXPECT_EQ(tag & 0xFFFFFF, 0xABCDEFu);
}

TEST(ServiceTest, WriteOpCompletesWithResponse) {
  ServiceHarness h;
  RpcServiceNode::OpCompletion done{};
  h.nodes[0]->set_op_listener(
      [&](const RpcServiceNode::OpCompletion& c) { done = c; });
  h.nodes[0]->write(2, 64 * sim::kKiB, Priority::kPC);
  h.experiment.simulator().run();
  EXPECT_EQ(h.nodes[0]->completed_ops(), 1u);
  EXPECT_EQ(h.nodes[2]->served_requests(), 1u);
  EXPECT_EQ(done.op, RpcOp::kWrite);
  EXPECT_EQ(done.peer, 2);
  EXPECT_EQ(done.payload_bytes, 64 * sim::kKiB);
  // Operation latency covers request (payload) + response (control).
  EXPECT_GT(done.latency(), 5 * sim::kUsec);
  EXPECT_LT(done.latency(), 60 * sim::kUsec);
}

TEST(ServiceTest, ReadOpPayloadRidesTheResponse) {
  ServiceHarness h;
  RpcServiceNode::OpCompletion done{};
  h.nodes[1]->set_op_listener(
      [&](const RpcServiceNode::OpCompletion& c) { done = c; });
  h.nodes[1]->read(0, 256 * sim::kKiB, Priority::kNC);
  h.experiment.simulator().run();
  EXPECT_EQ(h.nodes[1]->completed_ops(), 1u);
  EXPECT_EQ(h.nodes[0]->served_requests(), 1u);
  EXPECT_EQ(done.op, RpcOp::kRead);
  // 256KB at 100G ~ 21us serialization; the op must take at least that.
  EXPECT_GT(done.latency(), 21 * sim::kUsec);
}

TEST(ServiceTest, ManyConcurrentOpsAllComplete) {
  ServiceHarness h;
  int completed = 0;
  for (net::HostId client : {0, 1}) {
    h.nodes[client]->set_op_listener(
        [&](const RpcServiceNode::OpCompletion&) { ++completed; });
    for (int i = 0; i < 50; ++i) {
      if (i % 2 == 0) {
        h.nodes[client]->read(2, 32 * sim::kKiB, Priority::kPC);
      } else {
        h.nodes[client]->write(2, 32 * sim::kKiB, Priority::kBE);
      }
    }
  }
  h.experiment.simulator().run_until(0.5);
  EXPECT_EQ(completed, 100);
  EXPECT_EQ(h.nodes[2]->served_requests(), 100u);
}

TEST(ServiceTest, WorksUnderAequitasDowngrades) {
  ServiceHarness h(/*aequitas=*/true);
  // Crush the admit probability so requests get downgraded; operations must
  // still complete (downgrade is not drop).
  for (int i = 0; i < 300; ++i) {
    h.experiment.admission(0).on_completion(0.0, 0, 2, net::kQoSHigh,
                                            net::kQoSHigh, 1.0, 8);
  }
  int completed = 0;
  h.nodes[0]->set_op_listener(
      [&](const RpcServiceNode::OpCompletion&) { ++completed; });
  for (int i = 0; i < 20; ++i) {
    h.nodes[0]->write(2, 32 * sim::kKiB, Priority::kPC);
  }
  h.experiment.simulator().run_until(0.5);
  EXPECT_EQ(completed, 20);
}

TEST(ServiceTest, OperationsInterleaveAcrossPriorities) {
  ServiceHarness h;
  std::vector<RpcServiceNode::OpCompletion> done;
  h.nodes[0]->set_op_listener(
      [&](const RpcServiceNode::OpCompletion& c) { done.push_back(c); });
  h.nodes[0]->read(1, 8 * sim::kKiB, Priority::kPC);
  h.nodes[0]->write(1, 1 * sim::kMiB, Priority::kBE);
  h.nodes[0]->read(2, 8 * sim::kKiB, Priority::kNC);
  h.experiment.simulator().run_until(0.5);
  ASSERT_EQ(done.size(), 3u);
  // Every op returns its own metadata (correlation held up).
  int reads = 0, writes = 0;
  for (const auto& c : done) {
    (c.op == RpcOp::kRead ? reads : writes) += 1;
  }
  EXPECT_EQ(reads, 2);
  EXPECT_EQ(writes, 1);
}

}  // namespace
}  // namespace aeq::rpc
