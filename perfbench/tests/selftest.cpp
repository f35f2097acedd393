// Self-test of the benchmark's stats and audit helpers.
//
//   perfbench_selftest [WORK_DIR]
//
// Exits 0 when every check passes; prints each failing check otherwise.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "audit.hpp"
#include "campaign/runner.hpp"
#include "campaign_pass.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_stats() {
  using namespace perfbench;
  check(near(mean({1, 2, 6}), 3.0), "mean of a sample");
  check(near(median({3, 1, 2}), 2.0), "median of an odd sample");
  check(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(near(quantile({5, 1, 3}, 0.0), 1.0), "quantile 0 is the minimum");
  check(near(quantile({5, 1, 3}, 1.0), 5.0), "quantile 1 is the maximum");
  check(near(quantile({0, 10}, 0.25), 2.5), "quantile interpolates");

  // The >= 10-beyond rule: 252 table cells support p95, not p99.
  check(near(supported_quantile(0.95, 252), 0.95), "p95 of 252 is kept");
  check(near(supported_quantile(0.99, 252), 1.0 - 10.0 / 252.0),
        "p99 of 252 drops to the highest percentile with 10 beyond");
  check(near(supported_quantile(0.99, 10000), 0.99), "p99 of 10000 is kept");
  check(near(supported_quantile(0.95, 12), 0.5), "never below the median");
  std::vector<double> ramp;
  for (int i = 1; i <= 252; ++i) ramp.push_back(i);
  const double p99 = tail_quantile(ramp, 0.99);
  int beyond = 0;
  for (double x : ramp) beyond += x > p99 ? 1 : 0;
  check(beyond >= 10, "tail_quantile leaves at least 10 samples beyond");

  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
  check(near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5),
        "IQR share matches statistics.quantiles on 1..10");
  // Python: statistics.quantiles([10, 11, 12, 13, 50], n=4)
  //         == [10.5, 12.0, 31.5].
  check(near(iqr_share({50, 10, 12, 11, 13}), 21.0 / 12.0),
        "IQR share matches statistics.quantiles with an outlier");
}

// Replaces the first occurrence of `from` in line `index` of a JSONL file.
void tamper_line(const std::string& path, std::size_t index,
                 const std::string& from, const std::string& to) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::string& line = lines.at(index);
  line.replace(line.find(from), from.size(), to);
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
}

void test_tables_audit(const std::string& dir) {
  using namespace anonet::campaign;
  using namespace perfbench;
  RunnerOptions options;
  options.resume = false;
  options.out_path = dir + "/selftest-table1.jsonl";
  const Grid grid = Grid::preset("table1");
  const std::size_t expected = grid.expand().size();
  const std::vector<CellRecord> records = Runner(options).run(grid);

  const AuditReport clean =
      audit_tables(records, MetricsSink::read_file(options.out_path), expected);
  check(clean.failed == 0 && clean.attempted ==
                                 static_cast<std::int64_t>(expected),
        "a clean table1 run passes the audit");

  std::size_t exact_line = 0;
  while (!records.at(exact_line).exact) ++exact_line;
  tamper_line(options.out_path, exact_line, "\"exact\":true",
              "\"exact\":false");
  const AuditReport tampered =
      audit_tables(records, MetricsSink::read_file(options.out_path), expected);
  check(tampered.failed == 1, "a tampered JSONL record fails the audit");

  std::vector<CellRecord> wrong = records;
  wrong.at(exact_line).verdict = "failed";
  check(audit_tables(wrong, records, expected).failed >= 1,
        "a failed cell fails the audit");

  std::vector<CellRecord> missing(records.begin(), records.end() - 1);
  check(audit_tables(missing, records, expected).failed ==
            static_cast<std::int64_t>(missing.size()),
        "a pass with a missing cell fails as a whole");
}

void test_zoo_audit() {
  using namespace anonet::campaign;
  using namespace perfbench;
  const std::vector<Cell> cells = Grid::preset("adversarial").expand();
  std::vector<CellRecord> records;
  for (const Cell& cell : cells) records.push_back(Runner::run_cell(cell));

  Reference reference;
  check(audit_zoo_pass(records, cells.size(), reference).failed == 0,
        "a first zoo pass passes");
  check(audit_zoo_pass(records, cells.size(), reference).failed == 0,
        "an identical second pass passes");

  std::vector<CellRecord> drifted = records;
  drifted.front().stabilization_round += 1;
  check(audit_zoo_pass(drifted, cells.size(), reference).failed == 1,
        "a record drifting from the first pass fails");

  std::vector<CellRecord> mismatch = records;
  mismatch.front().predicted = true;
  mismatch.front().verdict = "ok";
  mismatch.front().success = true;
  check(audit_zoo_pass(mismatch, cells.size(), reference).failed == 1,
        "a prediction mismatch fails");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(dir);
  test_stats();
  test_tables_audit(dir);
  test_zoo_audit();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
