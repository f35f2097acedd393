#include "audit.hpp"

#include <string_view>

#include "campaign/spec.hpp"

namespace perfbench {

using anonet::campaign::CellRecord;

namespace {

constexpr std::size_t kMaxProblems = 20;

bool hard_failure(const CellRecord& record) {
  return record.verdict == "failed" || record.verdict == "timeout" ||
         record.verdict == "bandwidth_exceeded";
}

}  // namespace

Semantics semantics_of(const CellRecord& r) {
  return {r.verdict, r.success, r.exact, r.stabilization_round};
}

bool prediction_mismatch(const CellRecord& record) {
  return record.predicted && record.verdict == "ok" && record.success;
}

void AuditReport::note(std::string problem) {
  if (problems.size() < kMaxProblems) problems.push_back(std::move(problem));
}

void AuditReport::merge(const AuditReport& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& p : other.problems) note(p);
}

AuditReport audit_tables(const std::vector<CellRecord>& records,
                         const std::vector<CellRecord>& from_file,
                         std::size_t expected_cells,
                         const Reference* reference) {
  using namespace anonet::campaign;
  AuditReport report;
  report.attempted = static_cast<std::int64_t>(records.size());
  if (records.size() != expected_cells) {
    report.failed = report.attempted;
    report.note("tables: " + std::to_string(records.size()) +
                " records, expected " + std::to_string(expected_cells));
    return report;
  }

  std::unordered_map<std::string, Semantics> filed;
  for (const CellRecord& r : from_file) filed.emplace(r.key, semantics_of(r));

  std::vector<bool> bad(records.size(), false);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CellRecord& r = records[i];
    if (hard_failure(r)) {
      bad[i] = true;
      report.note(r.key + ": verdict " + r.verdict + " (" + r.reason + ")");
    }
    const auto it = filed.find(r.key);
    if (it == filed.end() || !(it->second == semantics_of(r))) {
      bad[i] = true;
      report.note(r.key + ": JSONL record missing or different");
    }
    if (reference != nullptr && !reference->matches(r)) {
      bad[i] = true;
      report.note(r.key + ": semantics differ from the first pass");
    }
  }

  for (const std::string suite : {"table1", "table2"}) {
    bool present = false;
    for (const CellRecord& r : records) present = present || r.suite == suite;
    if (!present) continue;  // the cell count check covers a missing suite
    const TableComparison table = compare_table(records, suite);
    for (std::size_t row = 0; row < table.rows.size(); ++row) {
      for (std::size_t col = 0; col < table.cols.size(); ++col) {
        const std::string& measured = table.measured[row][col];
        const bool wrong = table.open[row][col]
                               ? measured != "skipped"
                               : measured != table.paper[row][col];
        if (!wrong) continue;
        const std::string_view knowledge = slug(table.rows[row]);
        const std::string_view model = slug(table.cols[col]);
        report.note(suite + " " + std::string(knowledge) + "/" +
                    std::string(model) + ": measured '" + measured +
                    "', paper '" + table.paper[row][col] + "'");
        for (std::size_t i = 0; i < records.size(); ++i) {
          if (records[i].suite == suite && records[i].knowledge == knowledge &&
              records[i].model == model) {
            bad[i] = true;
          }
        }
      }
    }
  }
  for (bool b : bad) report.failed += b ? 1 : 0;
  return report;
}

void Reference::record(const std::vector<CellRecord>& records) {
  for (const CellRecord& r : records) by_key_.emplace(r.key, semantics_of(r));
}

bool Reference::matches(const CellRecord& r) const {
  const auto it = by_key_.find(r.key);
  return it != by_key_.end() && it->second == semantics_of(r);
}

AuditReport audit_zoo_pass(const std::vector<CellRecord>& records,
                           std::size_t expected_cells, Reference& reference) {
  AuditReport report;
  report.attempted = static_cast<std::int64_t>(records.size());
  if (records.size() != expected_cells) {
    report.failed = report.attempted;
    report.note("zoo: " + std::to_string(records.size()) +
                " records, expected " + std::to_string(expected_cells));
    return report;
  }
  if (reference.empty()) reference.record(records);
  for (const CellRecord& r : records) {
    bool bad = false;
    if (r.verdict == "failed" || r.verdict == "timeout") {
      bad = true;
      report.note(r.key + ": verdict " + r.verdict + " (" + r.reason + ")");
    }
    if (prediction_mismatch(r)) {
      bad = true;
      report.note(r.key + ": predicted breakdown succeeded");
    }
    if (!reference.matches(r)) {
      bad = true;
      report.note(r.key + ": semantics differ from the first pass");
    }
    if (bad) ++report.failed;
  }
  return report;
}

}  // namespace perfbench
