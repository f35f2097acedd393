// `tables`: the paper's Tables 1-2 through campaign::Runner::run at one
// thread, writing a JSONL file — the path anonet_campaign takes.
//
// The cells are the preset's: Table 1/2 verdicts are certified only at
// those coordinates, so the seed changes nothing but the output file name.

#include "audit.hpp"
#include "bench.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/runner.hpp"
#include "campaign_pass.hpp"

namespace perfbench {

using namespace anonet::campaign;

namespace {

std::string tables_path(const Options& options, const char* tag) {
  return options.work_dir + "/tables-" + tag + "-" +
         std::to_string(options.seed) + ".jsonl";
}

// Grid preset + expansion + the cost order the runner works in.
std::vector<Cell> tables_setup(std::vector<std::size_t>* order) {
  std::vector<Cell> cells = Grid::preset("tables").expand();
  *order = cost_descending_order(cells, CostModel());
  return cells;
}

// One Runner::run pass at one thread, timings on, no resume.
std::vector<CellRecord> runner_pass(const Options& options) {
  RunnerOptions runner_options;
  runner_options.threads = 1;
  runner_options.include_timings = true;
  runner_options.resume = false;
  runner_options.out_path = tables_path(options, "runner");
  return Runner(runner_options).run(Grid::preset("tables"));
}

// The tables audit plus cross-pass agreement with `reference`.
AuditReport audit_pass(const std::vector<CellRecord>& records,
                       const std::string& path, std::size_t expected,
                       Reference& reference) {
  if (reference.empty()) reference.record(records);
  return audit_tables(records, MetricsSink::read_file(path), expected,
                      &reference);
}

// The tables pass step by step, as the traced run times it: the cells in
// cost order through drive_cells (run_cell, sink append, write_canonical),
// the file read back, and compare_table on what was read. The untraced
// instance is the same work without spans, the traced pass's reference.
template <bool kTraced>
std::vector<CellRecord> driven_pass(const std::vector<Cell>& cells,
                                    const std::vector<std::size_t>& order,
                                    const std::string& path, Spans* spans) {
  std::vector<CellRecord> records =
      drive_cells<kTraced>(cells, order, path, /*canonical=*/true, spans);
  const std::vector<CellRecord> from_file =
      span<kTraced>(spans, "campaign.record_io_ms",
                    [&] { return MetricsSink::read_file(path); });
  span<kTraced>(spans, "campaign.aggregate_ms", [&] {
    for (const char* suite : {"table1", "table2"}) {
      (void)compare_table(from_file, suite);
    }
  });
  return records;
}

}  // namespace

Outcome run_tables(const Options& options) {
  std::vector<std::size_t> order;
  std::size_t expected = 0;
  const double setup_s = median_setup_s(15, 100, [&] {
    expected = tables_setup(&order).size();
  });

  Outcome outcome;
  AuditReport audit;
  Reference reference;
  CellSamples samples;
  std::vector<CellRecord> records;
  const PassTimes times = run_passes(
      options.seconds, 1, [&](int) { records = runner_pass(options); },
      [&](int) {
        samples.add(records);
        audit.merge(audit_pass(records, tables_path(options, "runner"),
                               expected, reference));
      });

  add_run_metrics(outcome, setup_s, times);
  samples.report(outcome);
  outcome.take(audit);
  return outcome;
}

TracedPass trace_tables(const Options& options, Spans& spans,
                        AuditReport& audit) {
  TracedPass pass;
  Reference reference;
  std::vector<std::size_t> order;
  const std::vector<Cell> cells = span<true>(
      &spans, "campaign.expand_ms", [&] { return tables_setup(&order); });
  const std::size_t expected = cells.size();

  const std::string untraced_path = tables_path(options, "untraced");
  auto t0 = Clock::now();
  const std::vector<CellRecord> baseline =
      driven_pass<false>(cells, order, untraced_path, nullptr);
  pass.untraced_s = ms_since(t0) / 1000.0;
  audit.merge(audit_pass(baseline, untraced_path, expected, reference));

  const std::string path = tables_path(options, "traced");
  t0 = Clock::now();
  const std::vector<CellRecord> records =
      driven_pass<true>(cells, order, path, &spans);
  pass.traced_s = ms_since(t0) / 1000.0;
  audit.merge(audit_pass(records, path, expected, reference));
  return pass;
}

}  // namespace perfbench
