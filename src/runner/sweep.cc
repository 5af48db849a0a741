#include "runner/sweep.h"

#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "sim/assert.h"
#include "sim/rng.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aeq::runner {

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t resolve_jobs(std::int64_t flag_value) {
  return flag_value > 0 ? static_cast<std::size_t>(flag_value)
                        : default_jobs();
}

namespace detail {

void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& body) {
  AEQ_CHECK_GT(jobs, 0u);
  if (count == 0) return;

  std::atomic<std::size_t> next{0};
  // Lowest-index failure wins, so the surfaced error does not depend on
  // worker scheduling. The slot's lock protocol is annotated so clang
  // -Wthread-safety proves every access happens under the mutex.
  struct ErrorSlot {
    util::Mutex mutex;
    std::size_t index AEQ_GUARDED_BY(mutex) =
        std::numeric_limits<std::size_t>::max();
    std::exception_ptr error AEQ_GUARDED_BY(mutex);
  } slot;

  auto worker = [&] {
    while (true) {
      const std::size_t index = next.fetch_add(1);
      if (index >= count) return;
      try {
        body(index);
      } catch (...) {
        const util::MutexLock lock(slot.mutex);
        if (index < slot.index) {
          slot.index = index;
          slot.error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  const std::size_t extra = std::min(jobs, count) - 1;
  threads.reserve(extra);
  for (std::size_t t = 0; t < extra; ++t) threads.emplace_back(worker);
  worker();  // the caller thread is worker 0
  for (std::thread& thread : threads) thread.join();

  std::exception_ptr error;
  {
    // Workers are joined; the lock is only needed to satisfy the analysis
    // (and costs nothing uncontended).
    const util::MutexLock lock(slot.mutex);
    error = slot.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), jobs_(resolve_jobs(
          options.jobs > 0 ? static_cast<std::int64_t>(options.jobs) : 0)) {}

std::size_t SweepRunner::submit(PointFn fn) {
  AEQ_ASSERT(fn != nullptr);
  points_.push_back(std::move(fn));
  return points_.size() - 1;
}

std::uint64_t SweepRunner::point_seed(std::size_t index) const {
  return sim::derive_seed(options_.base_seed, index);
}

std::vector<PointResult> SweepRunner::run() {
  results_.resize(points_.size());
  const std::size_t first = completed_;
  const std::size_t fresh = points_.size() - first;
  detail::run_indexed(fresh, jobs_, [&](std::size_t offset) {
    const std::size_t index = first + offset;
    const PointContext context{index, point_seed(index)};
    results_[index] = points_[index](context);
  });
  completed_ = points_.size();
  return results_;
}

}  // namespace aeq::runner
