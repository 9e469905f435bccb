// Live-heap accounting for the benchmark binary. heap_counter.cc replaces
// the global operator new/delete family so every allocation made through
// C++ allocation in the process (the library included) is counted; the
// high-water mark is the end-to-end `peak_heap_mb` metric.

#ifndef PERFBENCH_HEAP_COUNTER_H_
#define PERFBENCH_HEAP_COUNTER_H_

#include <cstddef>

namespace perfbench {

/// Highest number of bytes (usable sizes) live through operator new at
/// once since process start.
size_t PeakHeapBytes();

}  // namespace perfbench

#endif  // PERFBENCH_HEAP_COUNTER_H_
