// perfbench_serve — runs one workload of the serving benchmark and prints
// its result record (one JSON line) on stdout. perfbench/run.py builds
// this binary and turns the record into the benchmark's result line.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scale full|tiny] [--spans-out <path>] [--source-id <id>]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench_serve: %s\nworkloads:", why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return Usage("--scale must be full or tiny");
      options.tiny = value == "tiny";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  try {
    const std::string record = perfbench::RunWorkload(options);
    std::printf("%s\n", record.c_str());
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
