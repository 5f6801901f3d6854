// Workload entry points of the benchmark runner.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;       // Path to ocasta_cli.
  std::string work_dir;  // Scratch space for data dirs, logs and spans.
};

// record-durable, serve-memory, replicate-quorum.
void RunDaemonWorkload(const Options& opt, Report& report);

// repair: the paper's Table IV / Table II pipeline, in process.
void RunRepairWorkload(const Options& opt, Report& report);

}  // namespace perfbench
