#include "common/pool.hpp"

#include <algorithm>
#include <cassert>

namespace echelon {

namespace {
// Set while the thread is inside a run() task (worker or participating
// caller). Nested run() calls observe it and execute inline-serially.
thread_local bool tl_in_pool_task = false;
}  // namespace

bool ThreadPool::in_parallel_region() noexcept { return tl_in_pool_task; }

std::uint64_t ThreadPool::dispatches() const {
  std::lock_guard<std::mutex> lk(m_);
  return job_gen_;
}

ThreadPool::ThreadPool(unsigned participants) {
  if (participants == 0) {
    participants = std::max(1u, std::thread::hardware_concurrency());
  }
  ranges_ = std::make_unique<Range[]>(participants);
  errors_.resize(participants);
  threads_.reserve(participants - 1);
  for (unsigned w = 1; w < participants; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max(8u, std::max(1u, std::thread::hardware_concurrency())));
  return pool;
}

void ThreadPool::work(unsigned self) noexcept {
  // Own range first (sequential order), then steal round-robin starting at
  // the right-hand neighbour. Every claim is a fetch_add on the owning
  // range's cursor, so each index is executed exactly once; the bounded
  // overshoot past `end` (at most one per visiting thief) is harmless.
  for (unsigned off = 0; off < width_; ++off) {
    Range& r = ranges_[(self + off) % width_];
    while (true) {
      const std::size_t i = r.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= r.end) break;
      try {
        fn_(ctx_, self, i);
      } catch (...) {
        WorkerError& e = errors_[self];
        if (i < e.index) {
          e.index = i;
          e.ep = std::current_exception();
        }
      }
    }
  }
}

void ThreadPool::worker_main(unsigned self) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || job_gen_ != seen; });
      if (stop_) return;
      seen = job_gen_;
      if (self >= width_) continue;  // narrow job: not a participant
    }
    tl_in_pool_task = true;
    work(self);
    tl_in_pool_task = false;
    {
      std::lock_guard<std::mutex> lk(m_);
      --unfinished_;
    }
    cv_done_.notify_one();  // only the dispatching caller waits
  }
}

void ThreadPool::run_impl(std::size_t n, unsigned max_workers, TaskFn fn,
                          void* ctx) {
  if (n == 0) return;
  unsigned width = max_workers == 0 ? concurrency()
                                    : std::min(max_workers, concurrency());
  width = static_cast<unsigned>(std::min<std::size_t>(width, n));

  if (width <= 1 || tl_in_pool_task) {
    // Serial fast path and the nested case (a run() from inside a pool
    // task runs inline so workers never wait on workers -- deadlock-free by
    // construction). Same contract as the parallel path: every index is
    // attempted, lowest-index exception wins. Local error state, so a
    // nested inline loop cannot clobber the enclosing job's slots.
    std::exception_ptr ep;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(ctx, 0, i);
      } catch (...) {
        if (ep == nullptr) ep = std::current_exception();
      }
    }
    if (ep != nullptr) std::rethrow_exception(ep);
    return;
  }

  // Contiguous per-participant ranges; cursors published before the lock so
  // the mutex release/acquire pair orders them for every worker.
  for (unsigned w = 0; w < width; ++w) {
    ranges_[w].next.store(w * n / width, std::memory_order_relaxed);
    ranges_[w].end = (w + 1) * n / width;
    errors_[w] = WorkerError{};
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    assert(unfinished_ == 0 &&
           "ThreadPool::run: concurrent top-level dispatch (one "
           "orchestrating caller at a time; nested calls run inline)");
    fn_ = fn;
    ctx_ = ctx;
    width_ = width;
    unfinished_ = width - 1;
    ++job_gen_;
  }
  cv_work_.notify_all();

  // The caller participates as worker 0 (flag set so run() calls made from
  // inside fn on this thread also take the nested inline path).
  tl_in_pool_task = true;
  work(0);
  tl_in_pool_task = false;

  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return unfinished_ == 0; });
    fn_ = nullptr;
    ctx_ = nullptr;
  }

  // Lowest failing index across all participants, matching what a serial
  // loop would have thrown first.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::exception_ptr ep;
  for (unsigned w = 0; w < width; ++w) {
    if (errors_[w].ep != nullptr && errors_[w].index < best) {
      best = errors_[w].index;
      ep = errors_[w].ep;
    }
  }
  if (ep != nullptr) std::rethrow_exception(ep);
}

}  // namespace echelon
