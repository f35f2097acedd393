#pragma once

// Campaign passes driven cell by cell from outside the runner, and the
// per-cell samples both campaign workloads report.

#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/metrics.hpp"
#include "campaign/spec.hpp"

namespace perfbench {

// Runs cells[order[0]], cells[order[1]], ... with Runner::run_cell (wall
// time recorded) and appends each record to a fresh MetricsSink at
// `out_path`. With `canonical` the file is then rewritten in canonical
// order and read back, as Runner::run and resume do. Returns the records
// in run order. Under kTraced, `spans` collects:
//   campaign.cell_ms_sum, campaign.record_io_ms, and per record mechanism
//   "mechanism:<name>" (cell ms), plus counters campaign.cells,
//   campaign.failed and campaign.prediction_mismatches.
template <bool kTraced>
std::vector<anonet::campaign::CellRecord> drive_cells(
    const std::vector<anonet::campaign::Cell>& cells,
    const std::vector<std::size_t>& order, const std::string& out_path,
    bool canonical, Spans* spans);

// Per-cell latency samples: campaign cells from records with wall_ms
// (add), engine legs filled in directly.
struct CellSamples {
  std::vector<double> cell_ms;   // one per executed cell
  std::vector<double> round_ms;  // per round (campaigns: cell wall / rounds)
  double cell_ms_total = 0.0;    // the time cells_per_s divides by

  void add(const std::vector<anonet::campaign::CellRecord>& records);
  // cells_per_s, cell_ms_p50/p99, round_ms_p50/p99.
  void report(Outcome& outcome) const;
};

// The campaign-layer metrics from a traced pass's spans: run_ms is the
// pass's wall time, expand_ms and aggregate_ms what the caller measured.
void report_campaign_layer(const Spans& spans, double run_ms, Outcome& outcome);

}  // namespace perfbench
