// Zeus benchmark program. Usually run through perfbench/run.py, which builds
// this binary and turns its PERFBENCH_RESULT line into the final result:
//
//   zeus_perfbench --workload plan-cold|scan|serve|stream --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//
// Exits 1 if any operation failed or any output check did not hold.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "perfbench/bench.h"

namespace {

bool ParseArgs(int argc, char** argv, zeus::perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zeus::perfbench;
  zeus::common::SetLogLevel(zeus::common::LogLevel::kWarning);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zeus_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Tracer::Get().Enable(args.trace);

  Report report;
  if (args.workload == "plan-cold") {
    RunPlanCold(args, &report);
  } else if (args.workload == "scan") {
    RunScan(args, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &report);
  } else if (args.workload == "stream") {
    RunStream(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                              "-" + std::to_string(args.seed) + ".jsonl";
    report.Check(Tracer::Get().Write(path), "write spans to " + path);
    std::printf("spans written to %s\n", path.c_str());
  }
  report.Print(args);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
