// Allocation counters kept by the benchmark's operator new/delete.

#ifndef NEDBENCH_ALLOC_HOOK_H_
#define NEDBENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace nedbench {

struct AllocCounters {
  uint64_t allocs = 0;  ///< operator new calls since process start
  int64_t live = 0;     ///< bytes currently allocated
  int64_t peak = 0;     ///< highest `live` since the last RearmAllocPeak
};

AllocCounters ReadAllocCounters();
/// Restarts peak tracking from the current live total.
void RearmAllocPeak();

}  // namespace nedbench

#endif  // NEDBENCH_ALLOC_HOOK_H_
