#include "campaign_pass.hpp"

#include <algorithm>
#include <memory>

#include "audit.hpp"
#include "campaign/runner.hpp"
#include "stats.hpp"

namespace perfbench {

using anonet::campaign::Cell;
using anonet::campaign::CellRecord;
using anonet::campaign::MetricsSink;
using anonet::campaign::Runner;

template <bool kTraced>
std::vector<CellRecord> drive_cells(const std::vector<Cell>& cells,
                                    const std::vector<std::size_t>& order,
                                    const std::string& out_path,
                                    bool canonical, Spans* spans) {
  auto sink = span<kTraced>(spans, "campaign.record_io_ms", [&] {
    return std::make_unique<MetricsSink>(out_path, /*include_timings=*/true,
                                         /*append=*/false);
  });
  std::vector<CellRecord> records;
  records.reserve(order.size());
  for (const std::size_t slot : order) {
    if constexpr (kTraced) {
      const auto t0 = Clock::now();
      CellRecord record = Runner::run_cell(cells[slot], true);
      const double ms = ms_since(t0);
      spans->add_ms("campaign.cell_ms_sum", ms);
      spans->add_ms("mechanism:" + record.mechanism, ms);
      spans->add_count("campaign.cells", 1);
      if (record.verdict == "failed" || record.verdict == "timeout") {
        spans->add_count("campaign.failed", 1);
      }
      if (prediction_mismatch(record)) {
        spans->add_count("campaign.prediction_mismatches", 1);
      }
      records.push_back(std::move(record));
    } else {
      records.push_back(Runner::run_cell(cells[slot], true));
    }
    span<kTraced>(spans, "campaign.record_io_ms",
                  [&] { sink->append(records.back()); });
  }
  span<kTraced>(spans, "campaign.record_io_ms", [&] {
    sink->close();
    if (canonical) {
      MetricsSink::write_canonical(out_path, records, true);
    }
  });
  return records;
}

template std::vector<CellRecord> drive_cells<true>(
    const std::vector<Cell>&, const std::vector<std::size_t>&,
    const std::string&, bool, Spans*);
template std::vector<CellRecord> drive_cells<false>(
    const std::vector<Cell>&, const std::vector<std::size_t>&,
    const std::string&, bool, Spans*);

void CellSamples::add(const std::vector<CellRecord>& records) {
  for (const CellRecord& r : records) {
    if (r.wall_ms < 0.0) continue;  // inadmissible: recorded, never run
    cell_ms.push_back(r.wall_ms);
    cell_ms_total += r.wall_ms;
    if (r.rounds > 0) {
      round_ms.push_back(r.wall_ms / static_cast<double>(r.rounds));
    }
  }
}

void CellSamples::report(Outcome& outcome) const {
  outcome.add("cells_per_s", "1/s", static_cast<double>(cell_ms.size()) /
                                        (cell_ms_total / 1000.0));
  outcome.add("cell_ms_p50", "ms", median(cell_ms));
  outcome.add("cell_ms_p99", "ms", tail_quantile(cell_ms, 0.99));
  outcome.add("round_ms_p50", "ms", median(round_ms));
  outcome.add("round_ms_p99", "ms", tail_quantile(round_ms, 0.99));
}

void report_campaign_layer(const Spans& spans, double run_ms,
                           Outcome& outcome) {
  const double cells_ms = spans.ms("campaign.cell_ms_sum");
  double history_ms = 0.0;
  double max_mechanism_ms = 0.0;
  const std::string prefix = "mechanism:";
  for (const auto& [name, ms] : spans.all_ms()) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.find("history-tree") != std::string::npos) history_ms += ms;
    max_mechanism_ms = std::max(max_mechanism_ms, ms);
  }
  outcome.add("campaign.expand_ms", "ms", spans.ms("campaign.expand_ms"));
  outcome.add("campaign.run_ms", "ms", run_ms);
  outcome.add("campaign.cell_ms_sum", "ms", cells_ms);
  outcome.add("campaign.self_ms", "ms", run_ms - cells_ms);
  outcome.add("campaign.record_io_ms", "ms",
              spans.ms("campaign.record_io_ms"));
  outcome.add("campaign.aggregate_ms", "ms", spans.ms("campaign.aggregate_ms"));
  outcome.add("campaign.cells", "count", spans.count("campaign.cells"));
  outcome.add("campaign.failed", "count", spans.count("campaign.failed"));
  outcome.add("campaign.prediction_mismatches", "count",
              spans.count("campaign.prediction_mismatches"));
  outcome.add("campaign.history_tree_share", "1", history_ms / cells_ms);
  outcome.add("campaign.cell_share_max", "1", max_mechanism_ms / cells_ms);
}

}  // namespace perfbench
