// Shared work-stealing thread pool for intra-run parallelism
// (DESIGN.md §10).
//
// One pool per process (ThreadPool::shared()), persistent workers parked on
// a condition variable between jobs. run(n, max_workers, fn) invokes
// fn(worker, i) for every i in [0, n) exactly once:
//
//   * [0, n) is split into per-participant contiguous ranges, each guarded
//     by its own cache-line-padded atomic cursor. A participant exhausts its
//     own range first (sequential index order, warm caches), then *steals*
//     from the other ranges by advancing their cursors -- every index is
//     claimed through exactly one fetch_add, so no index runs twice and no
//     index is skipped, regardless of how threads race.
//   * The calling thread participates as worker 0, so a pool of P
//     participants dispatches onto P-1 spawned threads plus the caller --
//     run() never blocks the caller on an idle pool.
//   * Steady-state dispatch allocates nothing: the job is a function
//     pointer + context pointer, cursors and error slots are pre-sized to
//     the pool width at construction.
//
// Determinism: the pool provides *scheduling*, never *ordering*. Callers
// that need a deterministic result must make their per-index work writes
// disjoint (or thread-confined via WorkerScratch) and perform any
// order-sensitive merge after run() returns -- the pattern every user in
// this codebase follows (RateAllocator's ascending-component merge,
// run_sweep's pre-sized result slots).
//
// Nested parallelism (deadlock-free by construction): a run() issued from
// inside a pool task -- e.g. a Simulator parallel fill inside a run_sweep
// point -- is detected through a thread-local flag and executed inline on
// the calling thread, serially. Workers therefore never *wait* on other
// workers, so no cycle of waits can form. The non-nested entry additionally
// asserts that no job is already in flight (one orchestrating caller at a
// time; concurrent top-level run() calls from unrelated threads are a
// caller bug, not a supported mode).
//
// Exceptions: fn may throw. Every index is still attempted; after the join
// the exception thrown by the *lowest* failing index is rethrown on the
// caller -- the error a serial loop would have surfaced first (the
// semantics cluster::parallel_for_indexed has always promised). The inline
// serial and nested paths implement the identical contract.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace echelon {

class ThreadPool {
 public:
  // `participants` counts the caller: P participants = P-1 spawned worker
  // threads. 0 = one per hardware thread (at least 1).
  explicit ThreadPool(unsigned participants = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Maximum participants in one run() (spawned workers + the caller).
  [[nodiscard]] unsigned concurrency() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  // The process-wide pool. Sized to max(hardware_concurrency, 8) so thread
  // counts above the core count (the equivalence suite's 8-thread axis on
  // small CI boxes) still exercise real cross-thread execution -- results
  // are bit-identical at any width, small machines merely timeshare. Parked
  // workers cost nothing while unused.
  [[nodiscard]] static ThreadPool& shared();

  // True while the current thread is executing inside a run() task (either
  // a pool worker or the participating caller). run() from such a context
  // executes inline-serially -- see the nested-parallelism note above.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  // Jobs handed to the spawned workers since construction. The inline
  // serial and nested paths do not count, so tests use it to tell a run
  // that really went wide from one that stayed on the calling thread.
  [[nodiscard]] std::uint64_t dispatches() const;

  // Invokes fn(worker, i) for every i in [0, n) exactly once across up to
  // min(max_workers, concurrency(), n) participants (max_workers == 0 means
  // "all"). `worker` is a dense participant index in [0, participants);
  // callers use it to select thread-confined scratch (WorkerScratch).
  // Blocks until every index has run; rethrows the lowest-index exception.
  template <typename F>
  void run(std::size_t n, unsigned max_workers, F&& fn) {
    run_impl(
        n, max_workers,
        [](void* ctx, unsigned worker, std::size_t index) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(worker, index);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  using TaskFn = void (*)(void* ctx, unsigned worker, std::size_t index);

  // Per-participant claim range. Padded to a cache line: cursors are the
  // only cross-thread-contended words in a job, and false sharing between
  // neighbours would serialize the claim loop.
  struct alignas(64) Range {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  struct WorkerError {
    std::exception_ptr ep;
    std::size_t index = std::numeric_limits<std::size_t>::max();
  };

  void run_impl(std::size_t n, unsigned max_workers, TaskFn fn, void* ctx);
  // The claim loop: own range first, then steal round-robin from self+1.
  void work(unsigned self) noexcept;
  void worker_main(unsigned self);

  std::vector<std::thread> threads_;
  // One per participant, sized once at construction (atomics are neither
  // movable nor copyable, so a plain array, not a vector).
  std::unique_ptr<Range[]> ranges_;
  std::vector<WorkerError> errors_;  // one per participant, pre-sized

  mutable std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t job_gen_ = 0;  // bumped per dispatched job (dispatches())
  unsigned unfinished_ = 0;    // spawned participants still in the job
  bool stop_ = false;
  // Current job; stable while any participant is inside work().
  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  unsigned width_ = 0;  // participants in the current job
};

}  // namespace echelon
