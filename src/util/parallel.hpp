// Host-side worker pool and parallel-for.
//
// The paper's host (a single-core Alpha 21264) did tree construction and
// traversal serially; on a multi-core host the group walks — the dominant
// host cost (Section 4.2) — are independent and can spread across cores.
// This pool is the small fork-join primitive the tree engines use for
// that: dynamically scheduled contiguous chunks over an index range, the
// calling thread participating as lane 0.
//
// Determinism: parallel_for only promises that every index is processed
// exactly once, by some lane. Callers obtain bitwise-reproducible results
// when each index writes its own outputs — exactly the per-group /
// per-particle structure of the tree walks. Per-lane accumulators (stats,
// timers) must be reduced by the caller in lane order after the call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace g5::util {

/// Effective worker count: `requested` if > 0, else the G5_THREADS
/// environment variable if it holds a positive integer, else
/// std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] unsigned resolve_thread_count(unsigned requested = 0);

class ThreadPool {
 public:
  /// threads == 0 resolves via resolve_thread_count(). The pool spawns
  /// size() - 1 workers; the calling thread works too, as lane 0.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the caller).
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Chunk body: fn(begin, end, lane) with 0 <= lane < size().
  using Body = std::function<void(std::size_t, std::size_t, unsigned)>;

  /// Run body over [0, n) in dynamically scheduled contiguous chunks of
  /// `grain` indices (grain == 0 behaves as 1). A one-lane pool runs the
  /// same chunks in order on the calling thread. Blocks until every index
  /// is processed, then rethrows the first exception a chunk threw. Not
  /// reentrant: the body must not call back into the same pool.
  void parallel_for(std::size_t n, std::size_t grain, const Body& body);

 private:
  void worker_loop(unsigned lane);
  // Reads the job fields lock-free under the epoch-publication protocol
  // (see the comment on body_ below), which the static analysis cannot
  // express — hence the per-function opt-out.
  void run_chunks(unsigned lane) G5_NO_THREAD_SAFETY_ANALYSIS;

  const unsigned lanes_;
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  bool stop_ G5_GUARDED_BY(mutex_) = false;
  /// Bumped per parallel_for, wakes workers.
  std::uint64_t epoch_ G5_GUARDED_BY(mutex_) = 0;
  /// Workers still draining the current job.
  unsigned active_ G5_GUARDED_BY(mutex_) = 0;

  // Current job. Written under mutex_ before the epoch bump publishes
  // it; workers read it without the lock only after observing the new
  // epoch under mutex_ (so the writes happened-before), and the fields
  // stay frozen until every worker has re-checked in under the lock.
  const Body* body_ G5_GUARDED_BY(mutex_) = nullptr;
  std::size_t n_ G5_GUARDED_BY(mutex_) = 0;
  std::size_t grain_ G5_GUARDED_BY(mutex_) = 1;
  /// Observability: the caller's span path at submit time, so worker
  /// lanes' spans nest under the phase that forked them (obs/span.hpp).
  /// Empty whenever instrumentation is off.
  std::string obs_parent_ G5_GUARDED_BY(mutex_);
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_ G5_GUARDED_BY(mutex_);
};

}  // namespace g5::util
