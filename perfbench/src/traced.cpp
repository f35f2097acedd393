// The traced run: per-layer metrics for one workload.
//
// The workload's own traced pass supplies the layers it exercises; a fixed
// companion covers the rest (a traced engine pass for the campaign
// workloads, a traced zoo pass for `engine`), and the layer probes cover
// core, views, fibration, linalg and net. trace.overhead_share compares
// the workload's traced pass with its untraced pass of the same run.

#include "bench.hpp"
#include "campaign_pass.hpp"
#include "probes.hpp"

namespace perfbench {

Outcome run_traced(const Options& options) {
  Spans spans;
  AuditReport audit;
  TracedPass own;
  double campaign_ms = 0.0;
  if (options.workload == "tables" || options.workload == "zoo") {
    own = options.workload == "tables" ? trace_tables(options, spans, audit)
                                       : trace_zoo(options, spans, audit);
    campaign_ms = own.traced_s * 1000.0;
    (void)trace_engine(options, spans, audit);
  } else {
    own = trace_engine(options, spans, audit);
    campaign_ms = trace_zoo(options, spans, audit).traced_s * 1000.0;
  }
  history_probe(spans, audit);
  static_probe(spans, audit);
  net_probe(options, spans, audit);

  Outcome outcome;
  report_campaign_layer(spans, campaign_ms, outcome);

  const double observe_ms = spans.ms("core.history.observe_ms");
  const double history_step_ms = spans.ms("core.history.step_ms");
  outcome.add("core.history.observe_ms", "ms", observe_ms);
  outcome.add("core.history.step_ms", "ms", history_step_ms);
  outcome.add("core.history.observe_share", "1",
              observe_ms / (observe_ms + history_step_ms));
  outcome.add("core.history.estimate_calls", "count",
              spans.count("core.history.estimate_calls"));
  outcome.add("core.attempt_static_ms", "ms",
              spans.ms("core.attempt_static_ms"));
  outcome.add("views.registry_nodes", "count",
              spans.count("views.registry_nodes"));
  outcome.add("fibration.minimum_base_ms", "ms",
              spans.ms("fibration.minimum_base_ms"));
  outcome.add("linalg.kernel_ms", "ms", spans.ms("linalg.kernel_ms"));
  outcome.add("linalg.kernel_calls", "count",
              spans.count("linalg.kernel_calls"));

  outcome.add("runtime.step_ms", "ms", spans.ms("runtime.step_ms"));
  outcome.add("runtime.validate_ms", "ms", spans.ms("runtime.validate_ms"));
  outcome.add("runtime.send_ms", "ms", spans.ms("runtime.send_ms"));
  outcome.add("runtime.deliver_ms", "ms", spans.ms("runtime.deliver_ms"));
  outcome.add("runtime.msgs", "count", spans.count("runtime.msgs"));
  outcome.add("runtime.pool_speedup", "1",
              spans.ms("runtime.step_ms.serial") /
                  spans.ms("runtime.step_ms.pooled"));
  for (const char* family : {"ring", "rsc", "churn"}) {
    const std::string name = std::string("dynamics.round_graph_ms.") + family;
    outcome.add(name, "ms", spans.ms(name));
  }
  if (spans.count("dynamics.bad_views") > 0) {
    audit.note("dynamics: a round graph had the wrong vertex count");
    ++audit.failed;
  }

  outcome.add("wire.encode_ms", "ms", spans.ms("wire.encode_ms"));
  outcome.add("wire.decode_ms", "ms", spans.ms("wire.decode_ms"));
  outcome.add("wire.bits", "count", spans.count("wire.bits"));

  outcome.add("net.loopback_s", "s", spans.count("net.loopback_s"));
  outcome.add("net.transport_overhead_s", "s",
              spans.count("net.transport_overhead_s"));
  outcome.add("net.frames", "count", spans.count("net.frames"));
  outcome.add("net.bytes", "count", spans.count("net.bytes"));
  outcome.add("net.reassigned", "count", spans.count("net.reassigned"));

  outcome.add("trace.overhead_share", "1", own.traced_s / own.untraced_s - 1.0);
  outcome.take(audit);
  return outcome;
}

}  // namespace perfbench
