// The serving benchmark's workloads and the run that measures one of them.
//
// A run generates its tables and its query list from the seed, sets the
// service up several times (the median is `setup_s`), warms it with
// queries that are never timed, then drives the fixed query list as a
// closed loop with one client (an interactive session waits for each
// answer before asking the next) against a 2-thread QueryService at
// program defaults. Every answer is then checked against the oracle.
// The traced mode additionally replays the same queries serially through
// each layer's public functions, with spans around each call.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed query list: seconds x the workload's nominal rate, so
  /// identical arguments always do identical work.
  double seconds = 20.0;
  bool trace = false;
  /// Self-test scale: small tables and short lists, same code paths.
  bool tiny = false;
  /// Traced mode: where the span log is written ("" = not written).
  std::string spans_out;
  /// Identifies the measured source tree in the run metadata.
  std::string source_id = "unknown";
};

/// Names RunWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Runs one workload and returns its result record: one line of JSON
/// with the run metadata, the end-to-end metrics, the per-layer metrics
/// (traced mode), the counters that must repeat exactly for a seed, the
/// counters that may vary, and the oracle's verdict. Throws
/// std::invalid_argument on an unknown workload.
std::string RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
