#include "par/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace zeiot::par {

namespace {

/// True while the current thread is executing a pool task (any pool).
/// Guards against nested parallel regions blocking on their own pool.
thread_local bool t_in_pool_task = false;

/// One `run` call.  It lives on the caller's stack, so each job has its
/// own index counter and error slot, and nothing carries over to the next.
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t n)
      : fn(f), total(n) {}
  const std::function<void(std::size_t)>& fn;
  const std::size_t total;
  std::atomic<std::size_t> next{0};
  // Guarded by the pool mutex; lowest failing index and its exception.
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

}  // namespace

std::size_t default_threads() {
  if (const char* env = std::getenv("ZEIOT_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return v > 512 ? 512 : static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl {
  std::mutex m;
  std::condition_variable cv_work;   // workers wait for a new generation
  std::condition_variable cv_idle;   // caller waits for active == 0
  Job* job = nullptr;                // guarded by m; null between jobs
  std::size_t active = 0;            // guarded by m; workers inside *job
  std::uint64_t generation = 0;      // guarded by m
  bool shutdown = false;             // guarded by m
  std::vector<std::thread> workers;

  /// Consumes task indices until the job is drained.  Runs on workers and
  /// on the calling thread alike.
  void drain(Job& j) {
    t_in_pool_task = true;
    for (;;) {
      const std::size_t i = j.next.fetch_add(1);
      if (i >= j.total) break;
      try {
        j.fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (i < j.error_index) {
          j.error_index = i;
          j.error = std::current_exception();
        }
      }
    }
    t_in_pool_task = false;
  }

  // A worker joins a job only under the mutex: it reads `job` and counts
  // itself into `active` in one critical section.  The caller clears `job`
  // and then waits for `active == 0` under the same mutex, so a worker
  // either joined before the clear (and the caller waits for it) or sees
  // null and never touches the record.  No claim on a job's counter can
  // therefore outlive its `run` call or land in the next job.
  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv_work.wait(lk, [&] { return shutdown || generation != seen; });
      if (shutdown) return;
      seen = generation;
      Job* j = job;
      if (j == nullptr) continue;  // that job already finished
      ++active;
      lk.unlock();
      drain(*j);
      lk.lock();
      if (--active == 0) cv_idle.notify_one();
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(std::make_unique<Impl>()),
      num_threads_(num_threads == 0 ? default_threads() : num_threads) {
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    impl_->workers.emplace_back([s = impl_.get()] { s->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->shutdown = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_->workers.empty() || count == 1 || t_in_pool_task) {
    // Serial / nested execution: same index order a one-thread pool uses,
    // and the first throwing index propagates naturally.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Impl* s = impl_.get();
  Job job(fn, count);
  {
    std::lock_guard<std::mutex> lk(s->m);
    s->job = &job;
    ++s->generation;
  }
  s->cv_work.notify_all();
  s->drain(job);  // the caller participates
  {
    std::unique_lock<std::mutex> lk(s->m);
    s->job = nullptr;
    s->cv_idle.wait(lk, [&] { return s->active == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_threads());
  return pool;
}

}  // namespace zeiot::par
