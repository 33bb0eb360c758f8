//===- WarpPool.cpp - Host threads for a launch's warp ranges ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "gpusim/WarpPool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace fut::gpusim;

namespace {

/// The most threads, the caller included, that run one launch's ranges.
constexpr unsigned kMaxPoolThreads = 8;

unsigned affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
}

/// One runOnPool call: its tasks are claimed by index.  A task that
/// throws does not stop the others; the first exception is rethrown to
/// the caller once all have finished.
struct Job {
  const std::function<void(size_t)> &Task;
  size_t N;
  std::atomic<size_t> Next{0};
  std::mutex M; ///< Guards Failure.
  std::exception_ptr Failure;

  Job(const std::function<void(size_t)> &Task, size_t N) : Task(Task), N(N) {}

  void drain() {
    for (size_t I = Next++; I < N; I = Next++) {
      try {
        Task(I);
      } catch (...) {
        std::lock_guard<std::mutex> L(M);
        if (!Failure)
          Failure = std::current_exception();
      }
    }
  }
};

class Pool {
  std::mutex M;
  std::condition_variable Wake, Idle;
  /// The posted job, and how many pool threads are working on it.
  Job *Current = nullptr;
  uint64_t Posted = 0;
  int Busy = 0;
  bool Stop = false;
  /// Held by the one call whose job is posted.
  std::mutex Running;
  std::vector<std::thread> Threads;

public:
  Pool() {
    unsigned N = std::min(affinityCpus(), kMaxPoolThreads);
    for (unsigned I = 1; I < N; ++I)
      Threads.emplace_back([this] { work(); });
  }

  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  void run(size_t N, const std::function<void(size_t)> &Task) {
    Job J(Task, N);
    std::unique_lock<std::mutex> Own(Running, std::try_to_lock);
    if (Own && !Threads.empty() && N > 1) {
      {
        std::lock_guard<std::mutex> L(M);
        Current = &J;
        ++Posted;
      }
      Wake.notify_all();
      J.drain();
      // Every task is claimed; wait for the pool threads still running one.
      std::unique_lock<std::mutex> L(M);
      Current = nullptr;
      Idle.wait(L, [&] { return Busy == 0; });
    } else {
      J.drain();
    }
    if (J.Failure)
      std::rethrow_exception(J.Failure);
  }

private:
  void work() {
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      Wake.wait(L, [&] { return Stop || (Current && Posted != Seen); });
      if (Stop)
        return;
      Seen = Posted;
      Job *J = Current;
      ++Busy;
      L.unlock();
      J->drain();
      L.lock();
      if (--Busy == 0)
        Idle.notify_all();
    }
  }
};

} // namespace

void fut::gpusim::runOnPool(size_t N,
                            const std::function<void(size_t)> &Task) {
  static Pool ThePool;
  ThePool.run(N, Task);
}
