// perfbench — anonet's end-to-end benchmark program.
//
//   perfbench --workload tables|zoo|engine --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--revision REV]
//
// Prints every metric by name and unit, a `context {...}` line, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// the per-layer metrics of a traced run. Exits 0 when the run's audit
// passed, 1 when it failed, 2 on bad arguments or an error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "report.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tables|zoo|engine --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--revision REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0 ||
      (options.workload != "tables" && options.workload != "zoo" &&
       options.workload != "engine")) {
    return usage();
  }

  try {
    std::filesystem::create_directories(options.work_dir);
    Outcome outcome;
    if (options.trace) {
      outcome = run_traced(options);
    } else if (options.workload == "tables") {
      outcome = run_tables(options);
    } else if (options.workload == "zoo") {
      outcome = run_zoo(options);
    } else {
      outcome = run_engine(options);
    }
    print_report(options, outcome, revision);
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
