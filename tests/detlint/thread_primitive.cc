// detlint fixture: the thread-primitive rule must flag std:: concurrency
// types, util:: lock/condvar wrappers, thread_local, and pthread_* calls in
// simulation code, and be silenced by a detlint:allow on the site. Never
// compiled; consumed by `tools/detlint.py --self-test`.
#include <atomic>
#include <mutex>
#include <thread>

namespace aeq::sim {

struct BadWorker {
  std::mutex mu;                // detlint:expect(thread-primitive)
  std::atomic<int> pending{0};  // detlint:expect(thread-primitive)
};

void bad_spawn() {
  std::thread worker([] {});  // detlint:expect(thread-primitive)
  worker.join();
}

void bad_wait(util::CondVar& cv) {  // detlint:expect(thread-primitive)
  (void)cv;
}

// Failure hook mirror: write-once before abort, never read by the schedule.
// detlint:allow(thread-primitive)
thread_local int t_failure_depth = 0;

}  // namespace aeq::sim
