// perfbench_runner: runs one benchmark workload and prints one JSON
// object with everything it measured and checked.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --cli <path to ocasta_cli> --work-dir <dir>
//
// Workloads: record-durable, serve-memory, replicate-quorum, repair.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "daemon_workloads.h"

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[name.substr(2)] = argv[i + 1];
  }
  perfbench::Options opt;
  opt.workload = args["workload"];
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = std::atof(args.count("seconds") ? args["seconds"].c_str() : "10");
  opt.trace = args["trace"] == "1";
  opt.cli = args["cli"];
  opt.work_dir = args["work-dir"];
  if (opt.workload.empty() || opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --cli <ocasta_cli> --work-dir <dir>\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  perfbench::Report report;
  try {
    if (opt.workload == "repair") {
      perfbench::RunRepairWorkload(opt, report);
    } else {
      perfbench::RunDaemonWorkload(opt, report);
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("workload aborted: ") + e.what());
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
