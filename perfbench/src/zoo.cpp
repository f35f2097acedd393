// `zoo`: the faults + adversarial + bandwidth preset cells (explicit agents
// at small n under perturbations and metered channels) in repeated passes,
// each cell through Runner::run_cell and a MetricsSink.
//
// The seed permutes the cell order within each pass; the coordinates stay
// the presets', because predictions and verdicts are certified only there.

#include <algorithm>
#include <numeric>
#include <random>

#include "audit.hpp"
#include "bench.hpp"
#include "campaign_pass.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace anonet::campaign;

namespace {

std::vector<Cell> zoo_cells() {
  std::vector<Cell> cells;
  for (const char* preset : {"faults", "adversarial", "bandwidth"}) {
    const std::vector<Cell> more = Grid::preset(preset).expand();
    cells.insert(cells.end(), more.begin(), more.end());
  }
  return cells;
}

std::vector<std::size_t> pass_order(std::size_t count, std::uint64_t seed,
                                    int pass) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(pass));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

std::string zoo_path(const Options& options) {
  return options.work_dir + "/zoo-" + std::to_string(options.seed) + ".jsonl";
}

}  // namespace

Outcome run_zoo(const Options& options) {
  // The preset expansion takes about 0.1 ms, so it is timed in batches of
  // kSetupBatch. A batch runs before every pass, so the set-up samples
  // spread over the whole run and average over the host's speed regimes
  // the way wall_s does.
  constexpr int kSetupBatch = 100;
  std::vector<Cell> cells;
  const auto setup = [&] {
    for (int i = 0; i < kSetupBatch; ++i) cells = zoo_cells();
  };

  Outcome outcome;
  AuditReport audit;
  Reference reference;
  CellSamples samples;
  std::vector<CellRecord> records;
  const PassTimes times = run_passes(
      options.seconds, 3,
      [&](int pass) {
        records = drive_cells<false>(
            cells, pass_order(cells.size(), options.seed, pass),
            zoo_path(options), /*canonical=*/false, nullptr);
      },
      [&](int) {
        samples.add(records);
        audit.merge(audit_zoo_pass(records, cells.size(), reference));
      },
      setup);

  add_run_metrics(outcome, mean(times.setup_s) / kSetupBatch, times);
  samples.report(outcome);
  outcome.take(audit);
  return outcome;
}

TracedPass trace_zoo(const Options& options, Spans& spans,
                     AuditReport& audit) {
  TracedPass pass;
  Reference reference;
  const std::vector<Cell> cells =
      span<true>(&spans, "campaign.expand_ms", [] { return zoo_cells(); });

  auto t0 = Clock::now();
  const std::vector<CellRecord> baseline =
      drive_cells<false>(cells, pass_order(cells.size(), options.seed, 0),
                         zoo_path(options), /*canonical=*/false, nullptr);
  pass.untraced_s = ms_since(t0) / 1000.0;
  audit.merge(audit_zoo_pass(baseline, cells.size(), reference));

  t0 = Clock::now();
  const std::vector<CellRecord> records =
      drive_cells<true>(cells, pass_order(cells.size(), options.seed, 1),
                        zoo_path(options), /*canonical=*/false, &spans);
  // The zoo has no table suite; the fold still runs over its records.
  span<true>(&spans, "campaign.aggregate_ms", [&] {
    for (const char* suite : {"table1", "table2"}) {
      (void)compare_table(records, suite);
    }
  });
  pass.traced_s = ms_since(t0) / 1000.0;
  audit.merge(audit_zoo_pass(records, cells.size(), reference));
  return pass;
}

}  // namespace perfbench
