// Serial kernel-pool interface, kept only because perfbench/main.cpp
// reports and pins the worker count. The data-plane kernels run serially
// inside the event that needs them: their cost is charged in virtual time,
// so worker threads could change only wall time, never a simulated result.
// threads() is always 0 and set_global_threads accepts only 0.
#pragma once

#include "common/require.h"

namespace acr::parallel {

class Pool {
 public:
  int threads() const { return 0; }
};

inline Pool& global() {
  static Pool pool;
  return pool;
}

inline void set_global_threads(int n) {
  ACR_REQUIRE(n == 0, "data-plane kernels are serial: threads must be 0");
}

}  // namespace acr::parallel
