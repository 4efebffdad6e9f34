#include "util/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/span.hpp"
#include "util/thread.hpp"

namespace g5::util {

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("G5_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(std::min(v, 1024L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
    : lanes_(resolve_thread_count(threads)) {
  workers_.reserve(lanes_ - 1);
  for (unsigned lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(unsigned lane) {
  // Worker lanes inherit the submitting thread's span path (published
  // with the job fields under the epoch protocol); lane 0 already runs
  // on the submitting thread, where ScopedParentPath is a no-op. Both
  // guards reduce to one relaxed load when instrumentation is off.
  const obs::ScopedParentPath obs_parent(obs_parent_);
  G5_OBS_SPAN("worker", "pool");
  for (;;) {
    const std::size_t begin =
        next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= n_) return;
    const std::size_t end = std::min(begin + grain_, n_);
    try {
      (*body_)(begin, end, lane);
    } catch (...) {
      const MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
      return;  // stop claiming; other lanes drain the rest
    }
  }
}

void ThreadPool::worker_loop(unsigned lane) {
  char name[kThreadNameCap];
  std::snprintf(name, sizeof(name), "g5-pool-%u", lane);
  set_current_thread_name(name);
  std::uint64_t seen = 0;
  for (;;) {
    {
      const MutexLock lock(mutex_);
      while (!stop_ && epoch_ == seen) start_cv_.wait(mutex_);
      if (stop_) return;
      seen = epoch_;
    }
    run_chunks(lane);
    {
      const MutexLock lock(mutex_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const Body& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (lanes_ == 1 || n <= grain) {
    for (std::size_t b = 0; b < n; b += grain) {
      body(b, std::min(n, b + grain), 0);
    }
    return;
  }
  std::string obs_parent;
  if (obs::enabled()) obs_parent = obs::Span::current_path();
  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    body_ = &body;
    n_ = n;
    grain_ = grain;
    obs_parent_ = std::move(obs_parent);
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = lanes_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();
  run_chunks(0);
  {
    const MutexLock lock(mutex_);
    while (active_ != 0) done_cv_.wait(mutex_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace g5::util
