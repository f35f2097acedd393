#pragma once

// Human-readable metric listing, run context and the final JSON line.

#include <string>

#include "bench.hpp"

namespace perfbench {

// Worker threads of the engine workload's pooled legs.
inline constexpr int kEnginePoolThreads = 2;

// Prints every metric by name and unit, the failed share and audit
// findings, a `context {...}` line, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}.
void print_report(const Options& options, const Outcome& outcome,
                  const std::string& revision);

}  // namespace perfbench
