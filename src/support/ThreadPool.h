//===- support/ThreadPool.h - Minimal fixed-size thread pool ----*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool: tasks are submitted as callables and
/// their results retrieved through std::future. It hosts the bounded-check
/// scheduler's helper threads (analysis/Scheduler.h) and the serving
/// tier's request workers. Tasks run FIFO; the destructor drains the queue
/// and joins all workers.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SUPPORT_THREADPOOL_H
#define C4_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace c4 {

class ThreadPool {
public:
  explicit ThreadPool(unsigned NumThreads) {
    if (NumThreads == 0)
      NumThreads = 1;
    for (unsigned I = 0; I != NumThreads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    Cv.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Fn and returns a future for its result. Safe to call from
  /// multiple threads. Tasks must not block on futures of tasks submitted
  /// later (FIFO execution with a bounded worker count would deadlock).
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<Fn>> {
    using Ret = std::invoke_result_t<Fn>;
    // std::function requires copyable targets; wrap the move-only
    // packaged_task in a shared_ptr.
    auto Task =
        std::make_shared<std::packaged_task<Ret()>>(std::forward<Fn>(F));
    std::future<Ret> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.emplace_back([Task] { (*Task)(); });
    }
    Cv.notify_one();
    return Result;
  }

private:
  void workerLoop() {
    while (true) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // Stopping and drained
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      Task();
    }
  }

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
};

} // namespace c4

#endif // C4_SUPPORT_THREADPOOL_H
