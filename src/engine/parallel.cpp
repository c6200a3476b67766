#include "engine/parallel.h"

#include "obs/prof.h"
#include "obs/registry.h"

namespace pfair::engine {

ThreadPool::ThreadPool(int workers) {
  const int n = workers > 0 ? workers : default_workers();
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::default_workers() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  cv_job_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    const std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(int index) {
  obs::prof::set_worker_index(index);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty() && !stop_ && obs::prof::enabled()) {
      static obs::Counter& idle = obs::MetricsRegistry::global().counter("pool.idle_waits");
      idle.add();
    }
    cv_job_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to drain
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr err;
    try {
      const obs::prof::ProfScope scope(obs::prof::Phase::kPoolJob);
      job();
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err != nullptr && first_error_ == nullptr) first_error_ = err;
    if (--in_flight_ == 0) cv_done_.notify_all();
  }
}

ParallelSweep::ParallelSweep(int jobs, std::uint64_t seed)
    : jobs_(jobs > 0 ? jobs : ThreadPool::default_workers()), seed_(seed) {
  if (jobs_ > 1) pool_.emplace(jobs_);
}

}  // namespace pfair::engine
