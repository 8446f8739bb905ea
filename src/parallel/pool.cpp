#include "parallel/pool.h"

#include <cstdlib>
#include <cstring>
#include <memory>

namespace acr::parallel {

Pool::Pool(int threads) {
  if (threads < 0) threads = 0;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Pool::~Pool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Pool::for_each_index(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard lk(mu_);
    job_ = &fn;
    job_n_ = n;
    next_ = 0;
    pending_ = n;
    ++generation_;
  }
  work_cv_.notify_all();
  run_slice();  // the caller is a worker too
  std::unique_lock lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  job_ = nullptr;
}

void Pool::run_slice() {
  for (;;) {
    std::size_t i;
    {
      std::lock_guard lk(mu_);
      if (job_ == nullptr || next_ >= job_n_) return;
      i = next_++;
    }
    (*job_)(i);
    {
      std::lock_guard lk(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void Pool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_ ||
               (job_ != nullptr && generation_ != seen && next_ < job_n_);
      });
      if (stop_) return;
      seen = generation_;
    }
    run_slice();
  }
}

namespace {

int env_threads() {
  const char* e = std::getenv("ACR_KERNEL_THREADS");
  if (e == nullptr || *e == '\0') return 0;
  int n = std::atoi(e);
  return n > 0 ? n : 0;
}

// Leaky on purpose: replaced under set_global_threads(), joined in the old
// pool's destructor. A unique_ptr static would join at exit too, but the
// explicit pointer keeps replacement simple and exception-free.
std::unique_ptr<Pool>& global_slot() {
  static std::unique_ptr<Pool> pool;
  return pool;
}

}  // namespace

Pool& global() {
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<Pool>(env_threads());
  return *slot;
}

void set_global_threads(int n) {
  auto& slot = global_slot();
  slot.reset();  // join the old workers before spawning the new ones
  slot = std::make_unique<Pool>(n);
}

int global_threads() {
  auto& slot = global_slot();
  return slot ? slot->threads() : env_threads();
}

void copy_bytes(std::byte* dst, const std::byte* src, std::size_t n) {
  constexpr std::size_t kSlice = std::size_t{1} << 20;  // 1 MiB per worker
  Pool& pool = global();
  if (pool.threads() == 0 || n < 2 * kSlice) {
    if (n != 0) std::memcpy(dst, src, n);
    return;
  }
  std::size_t slices = (n + kSlice - 1) / kSlice;
  pool.for_each_index(slices, [&](std::size_t i) {
    std::size_t begin = i * kSlice;
    std::size_t len = n - begin < kSlice ? n - begin : kSlice;
    std::memcpy(dst + begin, src + begin, len);
  });
}

}  // namespace acr::parallel
