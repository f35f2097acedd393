#pragma once

// Layer probes of the traced run: fixed, seed-independent inputs that call
// the core, views, fibration, linalg and net modules directly, so every
// traced run reports those layers whatever its workload.

#include "audit.hpp"
#include "bench.hpp"

namespace perfbench {

// An Executor<HistoryFrequencyAgent> shaped like the heavy Table 2 cells
// (n = 6, random symmetric, 72 rounds), timing step() against the per-round
// frequency_estimate() of every agent:
//   core.history.step_ms, core.history.observe_ms (spans),
//   core.history.estimate_calls, views.registry_nodes (counters).
void history_probe(Spans& spans, AuditReport& audit);

// attempt_static on the Table 1 panels (core.attempt_static_ms), and on the
// outdegree-aware panels minimum_base -> fibre_matrix ->
// positive_coprime_kernel_vector (fibration.minimum_base_ms,
// linalg.kernel_ms, linalg.kernel_calls).
void static_probe(Spans& spans, AuditReport& audit);

// The faults grid through net::Coordinator and two in-process WorkerNodes
// over loopback TCP: net.loopback_s (direct), net.transport_overhead_s
// (loopback minus the in-process runner at two threads), and through a
// counting relay net.frames, net.bytes, net.reassigned.
void net_probe(const Options& options, Spans& spans, AuditReport& audit);

}  // namespace perfbench
