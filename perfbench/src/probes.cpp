#include "probes.hpp"

#include <map>
#include <memory>

#include "campaign/spec.hpp"
#include "core/computability.hpp"
#include "core/freq_static.hpp"
#include "core/history_tree.hpp"
#include "dynamics/schedules.hpp"
#include "fibration/minimum_base.hpp"
#include "fibration/partition.hpp"
#include "functions/functions.hpp"
#include "linalg/kernel.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using namespace anonet;

namespace {

// The seed of bench/table2_dynamic and the tables preset's Table 2 block:
// the probe runs where the history-tree verdicts are certified.
constexpr std::uint64_t kTable2Seed = 17;

}  // namespace

void history_probe(Spans& spans, AuditReport& audit) {
  const std::vector<std::int64_t> inputs = campaign::table2_inputs(0);
  const int n = static_cast<int>(inputs.size());
  const int rounds = 8 * n + 24;  // run_history_symmetric's horizon

  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<HistoryFrequencyAgent> agents;
  for (std::int64_t input : inputs) agents.emplace_back(registry, codec, input);
  Executor<HistoryFrequencyAgent> executor(
      std::make_shared<RandomSymmetricSchedule>(n, 3, kTable2Seed),
      std::move(agents), under<CommModel::kSymmetricBroadcast>, kTable2Seed);

  std::optional<Frequency> last;
  for (int r = 0; r < rounds; ++r) {
    span<true>(&spans, "core.history.step_ms", [&] { executor.step(); });
    span<true>(&spans, "core.history.observe_ms", [&] {
      for (const HistoryFrequencyAgent& agent : executor.agents()) {
        last = agent.frequency_estimate();
      }
    });
    spans.add_count("core.history.estimate_calls", n);
  }
  spans.add_count("views.registry_nodes",
                  static_cast<double>(registry->size()));

  audit.attempted += 1;
  if (!last.has_value() || !(*last == Frequency::of(inputs))) {
    ++audit.failed;
    audit.note("history probe: final estimate is not the input frequency");
  }
}

void static_probe(Spans& spans, AuditReport& audit) {
  constexpr int kRepeats = 20;
  const SymmetricFunction average = average_function();
  for (const CommModel model :
       {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
        CommModel::kOutputPortAware, CommModel::kSymmetricBroadcast}) {
    for (int variant = 0; variant < campaign::kStaticPanelCount; ++variant) {
      const campaign::StaticPanel panel =
          campaign::make_static_panel(model, variant);
      Attempt attempt;
      attempt.model = model;
      attempt.rounds = 3 * panel.graph.vertex_count() + 10;
      span<true>(&spans, "core.attempt_static_ms", [&] {
        (void)attempt_static(panel.graph, panel.values, average, attempt);
      });
    }
  }

  for (int variant = 0; variant < campaign::kStaticPanelCount; ++variant) {
    const campaign::StaticPanel panel =
        campaign::make_static_panel(CommModel::kOutdegreeAware, variant);
    const Digraph& g = panel.graph;
    std::map<std::int64_t, int> interned;
    std::vector<int> values;
    for (std::int64_t v : panel.values) {
      values.push_back(interned.emplace(v, interned.size()).first->second);
    }
    const std::vector<int> labels =
        combine_labels(values, outdegree_labels(g));
    for (int rep = 0; rep < kRepeats; ++rep) {
      const MinimumBase base = span<true>(
          &spans, "fibration.minimum_base_ms",
          [&] { return minimum_base(g, labels); });
      std::vector<int> base_outdegrees(
          static_cast<std::size_t>(base.base.vertex_count()), 0);
      for (Vertex v = 0; v < g.vertex_count(); ++v) {
        base_outdegrees[static_cast<std::size_t>(
            base.projection[static_cast<std::size_t>(v)])] =
            static_cast<int>(g.out_edges(v).size());
      }
      const RationalMatrix m = fibre_matrix(base.base, base_outdegrees);
      const std::optional<std::vector<BigInt>> kernel = span<true>(
          &spans, "linalg.kernel_ms",
          [&] { return positive_coprime_kernel_vector(m); });
      spans.add_count("linalg.kernel_calls", 1);
      if (rep > 0) continue;
      // The kernel generator is proportional to the fibre sizes.
      audit.attempted += 1;
      const std::vector<int> sizes = base.fibre_sizes();
      bool proportional = kernel.has_value() && kernel->size() == sizes.size();
      for (std::size_t i = 0; proportional && i < sizes.size(); ++i) {
        proportional = (*kernel)[i] * BigInt(sizes[0]) ==
                       (*kernel)[0] * BigInt(sizes[i]);
      }
      if (!proportional) {
        ++audit.failed;
        audit.note("static probe: kernel not proportional to fibre sizes");
      }
    }
  }
}

}  // namespace perfbench
