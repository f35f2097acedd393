#pragma once

// Correctness audits run on every benchmark pass.
//
// Audits compare *semantic* record fields (verdict, success, exact,
// stabilization round), never whole-file digests, so a record field that
// carries no verdict (wall_ms, payload, ...) can change or disappear
// without touching the benchmark.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/metrics.hpp"

namespace perfbench {

struct Semantics {
  std::string verdict;
  bool success = false;
  bool exact = false;
  int stabilization_round = -1;

  bool operator==(const Semantics&) const = default;
};

[[nodiscard]] Semantics semantics_of(const anonet::campaign::CellRecord& r);

struct AuditReport {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // capped; `failed` keeps counting

  void note(std::string problem);
  void merge(const AuditReport& other);
};

// Per-key semantics of a first pass; later passes must reproduce them.
class Reference {
 public:
  [[nodiscard]] bool empty() const { return by_key_.empty(); }
  void record(const std::vector<anonet::campaign::CellRecord>& records);
  // True when the record's key was recorded with equal semantics.
  [[nodiscard]] bool matches(const anonet::campaign::CellRecord& r) const;

 private:
  std::unordered_map<std::string, Semantics> by_key_;
};

// A campaign pass of the tables grid. `records` are what the runner
// returned, `from_file` what its JSONL file reads back as. Fails a record
// that is missing from or differs in the file, that ended "failed" /
// "timeout" / "bandwidth_exceeded", or that feeds a Table 1/2 entry whose
// measured label differs from the paper's (or an open entry that was not
// skipped), or — given a reference — whose semantics differ from it. A
// pass with the wrong cell count fails as a whole.
[[nodiscard]] AuditReport audit_tables(
    const std::vector<anonet::campaign::CellRecord>& records,
    const std::vector<anonet::campaign::CellRecord>& from_file,
    std::size_t expected_cells, const Reference* reference = nullptr);

// One pass over the zoo cells: every record must end in a verdict the
// scenario zoo expects ("ok", "expected_failure", "bandwidth_exceeded",
// "skipped"), must not be a prediction mismatch (predicted to break but
// succeeded), and must match the reference's semantics for its key. An
// empty reference is filled from this pass first.
[[nodiscard]] AuditReport audit_zoo_pass(
    const std::vector<anonet::campaign::CellRecord>& records,
    std::size_t expected_cells, Reference& reference);

// Predicted breakdown that succeeded anyway.
[[nodiscard]] bool prediction_mismatch(
    const anonet::campaign::CellRecord& record);

}  // namespace perfbench
