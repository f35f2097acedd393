#pragma once

// Shared plumbing of the benchmark program: run options, the metric record,
// process measurements and the timed pass loop.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch files (JSONL outputs) go here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one workload run reports. `attempted` counts the operations the
// run's audit judged (cells, or engine legs); `failed` those it rejected.
struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // one line per audit finding

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  // Takes over the audit's counts and findings.
  void take(const AuditReport& audit) {
    attempted = audit.attempted;
    failed = audit.failed;
    problems = audit.problems;
  }
};

// Process CPU time (user + sys) in seconds, all threads.
[[nodiscard]] double process_cpu_seconds();

// VmHWM of this process in MB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();

// Per-pass wall and CPU time of a timed phase, and the wall time of the
// set-up before each pass when the workload sets up per pass.
struct PassTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> setup_s;

  // Totals over the passes, divided by their count. A mean and not a
  // median: the host switches between speed regimes lasting seconds, and
  // the median pass of a two-regime mix jumps from one regime's time to the
  // other's where the mean moves in proportion to the mix.
  [[nodiscard]] double mean_wall_s() const;
  [[nodiscard]] double mean_cpu_s() const;
};

// Runs setup() when one is given (its wall time goes to setup_s, not to
// the pass), then pass(i), then the untimed check(i), at least `min_passes`
// times, and keeps going while the next round (estimated at the medians so
// far) still ends within `seconds` of the start.
PassTimes run_passes(double seconds, int min_passes,
                     const std::function<void(int)>& pass,
                     const std::function<void(int)>& check,
                     const std::function<void()>& setup = {});

// Set-up time per call of `setup()`, in seconds: `batches` batches of
// `per_batch` back-to-back calls are timed whole, and the median batch time
// is divided by `per_batch`. A batch lasts long enough that timer and
// scheduler effects on a sub-millisecond set-up average out.
double median_setup_s(int batches, int per_batch,
                      const std::function<void()>& setup);

// setup_s, wall_s and cpu_s (means per pass) and peak_rss_mb.
void add_run_metrics(Outcome& outcome, double setup_s, const PassTimes& times);

// Untraced workloads: the end-to-end metrics.
Outcome run_tables(const Options& options);
Outcome run_zoo(const Options& options);
Outcome run_engine(const Options& options);

// One untraced and one traced pass of a workload, in that order; the
// traced pass fills `spans`, both passes feed `audit`.
struct TracedPass {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};
TracedPass trace_tables(const Options& options, Spans& spans,
                        AuditReport& audit);
TracedPass trace_zoo(const Options& options, Spans& spans, AuditReport& audit);
TracedPass trace_engine(const Options& options, Spans& spans,
                        AuditReport& audit);

// The traced run: the workload's traced pass plus the layer probes that
// cover what the workload does not touch; fills every per-layer metric.
Outcome run_traced(const Options& options);

}  // namespace perfbench
