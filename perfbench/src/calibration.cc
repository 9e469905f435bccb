#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

/// Sort of a fixed pseudo-random array plus a dependent floating-point
/// chain: branchy integer work, memory traffic and FP latency in ~3 ms.
uint64_t Kernel() {
  std::vector<uint32_t> v(1 << 16);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint32_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<uint32_t>(x);
  }
  std::sort(v.begin(), v.end());
  double acc = 1.0;
  for (int i = 0; i < 200000; ++i) acc = acc * 1.0000001 + 1e-9 * (v[i & 0xffff] & 7);
  return v[v.size() / 2] ^ static_cast<uint64_t>(acc);
}

}  // namespace

double CalibrationMs() {
  constexpr int kReps = 7;
  std::vector<double> ms;
  volatile uint64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + Kernel();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace perfbench
