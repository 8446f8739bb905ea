// Fork/join worker pool for the data-plane kernels — parallelism strictly
// BELOW the deterministic discrete-event simulation.
//
// The DES itself is single-threaded and must stay that way: event order is
// the reproducibility contract. What CAN fan out is the byte crunching done
// synchronously inside one event — chunked checkpoint digests, RAID-5
// parity folds, buddy-image copies. Those are pure functions of the bytes:
// the pool partitions the work by a rule that depends only on the input
// size (never on thread count or timing) and the caller merges the partial
// results in a fixed order via the digest combine operators (kernels.h),
// so the simulation output is bitwise identical with 0 workers or 16.
//
// for_each_index() is a blocking parallel-for: the calling (DES) thread
// participates in the work and does not return until every index ran. No
// work escapes the current event.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acr::parallel {

class Pool {
 public:
  /// `threads` is the number of EXTRA workers; 0 means every for_each runs
  /// inline on the caller (no threads are spawned at all).
  explicit Pool(int threads);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Invoke fn(i) for every i in [0, n), fanned across the workers plus the
  /// calling thread; returns when all n calls have completed. fn must not
  /// throw and must not call back into the same Pool (not reentrant).
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_slice();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t next_ = 0;     // next unclaimed index
  std::size_t pending_ = 0;  // claimed-or-unclaimed indices not yet finished
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide kernel pool. Defaults to serial (0 workers) unless the
/// ACR_KERNEL_THREADS environment variable says otherwise; the driver's
/// --kernel-threads flag overrides both via set_global_threads().
Pool& global();

/// Replace the global pool with one of `n` workers (n <= 0 → serial).
void set_global_threads(int n);

/// Worker count of the global pool without forcing its construction.
int global_threads();

/// memcpy with the range fanned across the global pool. Exact same bytes
/// land in dst as a plain memcpy — the split is positional — so this is
/// safe anywhere a copy is needed. dst/src must not overlap.
void copy_bytes(std::byte* dst, const std::byte* src, std::size_t n);

}  // namespace acr::parallel
