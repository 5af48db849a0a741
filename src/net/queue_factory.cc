#include "net/queue_factory.h"

#include "net/dwrr.h"
#include "net/fifo_queue.h"
#include "net/pfabric_queue.h"
#include "net/spq.h"
#include "net/wfq.h"
#include "sim/assert.h"

namespace aeq::net {

namespace {

std::unique_ptr<QueueDiscipline> make_queue_impl(const QueueConfig& config,
                                                 util::BlockPool& buffer) {
  switch (config.type) {
    case SchedulerType::kFifo:
      return std::make_unique<FifoQueue>(buffer, config.capacity_bytes);
    case SchedulerType::kWfq:
      return std::make_unique<WfqQueue>(buffer, config.weights,
                                        config.capacity_bytes);
    case SchedulerType::kDwrr:
      return std::make_unique<DwrrQueue>(buffer, config.weights,
                                         config.capacity_bytes);
    case SchedulerType::kSpq:
      return std::make_unique<SpqQueue>(buffer, config.weights.size(),
                                        config.capacity_bytes);
    case SchedulerType::kPfabric:
      AEQ_CHECK_GT_MSG(config.capacity_bytes, 0u,
                       "pFabric requires a finite buffer");
      return std::make_unique<PfabricQueue>(config.capacity_bytes);
  }
  AEQ_ASSERT_MSG(false, "unknown scheduler type");
  return nullptr;
}

}  // namespace

std::unique_ptr<QueueDiscipline> make_queue(const QueueConfig& config,
                                            util::BlockPool& buffer) {
  auto queue = make_queue_impl(config, buffer);
  if (queue && config.ecn_threshold_bytes != 0) {
    queue->set_ecn_threshold(config.ecn_threshold_bytes);
  }
  return queue;
}

}  // namespace aeq::net
