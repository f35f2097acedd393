#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "stats.hpp"
#include "support/jsonl.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double PassTimes::mean_wall_s() const { return mean(wall_s); }
double PassTimes::mean_cpu_s() const { return mean(cpu_s); }

PassTimes run_passes(double seconds, int min_passes,
                     const std::function<void(int)>& pass,
                     const std::function<void(int)>& check,
                     const std::function<void()>& setup) {
  PassTimes times;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= min_passes) {
      const double elapsed = ms_since(start) / 1000.0;
      const double next = median(times.wall_s) +
                          (setup ? median(times.setup_s) : 0.0);
      if (elapsed + next > seconds) break;
    }
    if (setup) {
      const auto t0 = Clock::now();
      setup();
      times.setup_s.push_back(ms_since(t0) / 1000.0);
    }
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    pass(i);
    times.wall_s.push_back(ms_since(t0) / 1000.0);
    times.cpu_s.push_back(process_cpu_seconds() - cpu0);
    check(i);
  }
  return times;
}

double median_setup_s(int batches, int per_batch,
                      const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) setup();
    samples.push_back(ms_since(t0) / 1000.0);
  }
  return median(samples) / per_batch;
}

void add_run_metrics(Outcome& outcome, double setup_s,
                     const PassTimes& times) {
  outcome.add("setup_s", "s", setup_s);
  outcome.add("wall_s", "s", times.mean_wall_s());
  outcome.add("cpu_s", "s", times.mean_cpu_s());
  outcome.add("peak_rss_mb", "MB", peak_rss_mb());
}

namespace {

// Wall time (ms) of fixed integer work (an xorshift fill plus a strided
// walk over 16 MiB). It tracks the host's current CPU and memory speed and
// is recorded as run context, so a slow-host set of runs can be told apart
// from a regression.
double host_speed_probe_ms() {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> table(std::size_t{1} << 21);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < table.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] = x;
  }
  std::uint64_t acc = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < table.size(); i += 7) {
      acc += table[(i * 4099) & (table.size() - 1)];
    }
  }
  const double ms = ms_since(t0);
  // Keep the work observable so it cannot be optimized away.
  if (acc == 42) std::fprintf(stderr, " ");
  return ms;
}

}  // namespace

void print_report(const Options& options, const Outcome& outcome,
                  const std::string& revision) {
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& metric : outcome.metrics) {
    std::printf("  %-34s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const double failed_share =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted)
          : 1.0;
  std::printf("  %-34s %18.6f %s\n", "failed_share", failed_share, "1");
  for (const std::string& problem : outcome.problems) {
    std::printf("  audit: %s\n", problem.c_str());
  }

  anonet::JsonObject context;
  context
      .field("nproc",
             static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("cell_threads", std::int64_t{1})
      .field("engine_pool_threads", std::int64_t{kEnginePoolThreads})
      .field("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .field("revision", revision)
      .field("host_speed_probe_ms", host_speed_probe_ms());
  std::printf("context %s\n", context.str().c_str());

  anonet::JsonObject metrics;
  for (const Metric& metric : outcome.metrics) {
    anonet::JsonObject value;
    value.field("value", metric.value).field("unit", metric.unit);
    metrics.raw_field(metric.name, value.str());
  }
  anonet::JsonObject result;
  result.field("correct", outcome.failed == 0 && outcome.attempted > 0)
      .field("attempted", outcome.attempted)
      .field("failed", outcome.failed)
      .raw_field("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
