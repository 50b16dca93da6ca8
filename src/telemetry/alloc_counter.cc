#include "telemetry/alloc_counter.h"

#include <cstdlib>

namespace floc::telemetry {

AllocCounters& alloc_counters() {
  // Constant-initialized function-local: no static-init-order hazard even
  // though operator new replacements may run before main().
  static AllocCounters counters;
  return counters;
}

void* counted_malloc(std::size_t bytes) {
  AllocCounters& c = alloc_counters();
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
  return std::malloc(bytes != 0 ? bytes : 1);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  alloc_counters().frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace floc::telemetry
