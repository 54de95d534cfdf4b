// A fixed-size, futures-based worker pool.
//
// The execution substrate of the batched ranging runtime: a small set of
// long-lived threads drain a FIFO of type-erased jobs, and every submission
// returns a std::future so callers can collect results (or rethrown
// exceptions) in a deterministic order of their own choosing. The pool
// itself imposes no ordering on *execution* — determinism is the job
// author's responsibility (see core/session.hpp, which derives one
// mathx::Rng::split stream per request so results are independent of
// scheduling).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mathx/annotations.hpp"

namespace chronos::core {

class WorkerPool {
 public:
  /// Spawns exactly `threads` workers (>= 1 enforced). The pool never grows
  /// or shrinks; sizing happens once, at construction.
  explicit WorkerPool(std::size_t threads);

  /// Drains the queue (pending jobs still run) and joins all workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown
  /// by the job are captured and rethrown from future::get(). Safe to call
  /// from any thread, including from inside a running job (jobs must not
  /// block on futures of jobs queued behind them, though — classic
  /// fixed-pool deadlock).
  template <typename F, typename R = std::invoke_result_t<F&>>
  std::future<R> submit(F fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Pool size that saturates this machine: hardware_concurrency, with a
  /// floor of 1 for environments where it reports 0.
  static std::size_t default_thread_count();

 private:
  void enqueue(std::function<void()> job) CHRONOS_EXCLUDES(mutex_);
  void worker_loop() CHRONOS_EXCLUDES(mutex_);

  /// Touched only by the constructor (spawn) and destructor (join);
  /// workers never inspect the thread table, so it needs no lock.
  std::vector<std::thread> workers_;
  chronos::Mutex mutex_;
  chronos::CondVar wakeup_;
  std::queue<std::function<void()>> queue_ CHRONOS_GUARDED_BY(mutex_);
  bool stopping_ CHRONOS_GUARDED_BY(mutex_) = false;
};

/// Maps `fn(i)` over i in [0, n) on an existing (persistent) pool,
/// returning results in index order. Every call blocks until its own jobs
/// finish; the first exception (by index) is rethrown after they drain, so
/// no job outlives fn's captures. Reusing one long-lived pool across calls
/// keeps the workers' warmed thread-local state (e.g. NdftWorkspace) —
/// Engine::locate_batch fans out this way on the engine's session pool.
template <typename Fn>
auto parallel_map_on(WorkerPool& pool, std::size_t n, Fn fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out(n);
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i]() { return fn(i); }));
  }
  // Drain EVERY future before rethrowing: on a persistent pool there is no
  // scope-exit join, so leaving jobs queued past this frame would let them
  // touch fn's captures after the caller unwound.
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = futures[i].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

}  // namespace chronos::core
