// Host-speed probe: a fixed CPU kernel that touches none of the measured
// code. Timed at the start and the end of every run, it lets a reader
// tell host drift (the probe moves too) from a program change (it does
// not). Diagnostic only — never an end-to-end metric.

#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

namespace perfbench {

/// Median wall time, in ms, of several runs of the fixed kernel.
double CalibrationMs();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
