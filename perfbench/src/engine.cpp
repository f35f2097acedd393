// `engine`: frequency Push-Sum (Algorithm 1) at n = 5e4 on the ring, the
// random-strongly-connected and the preferential-churn families. Every pass
// runs each family serial, then pooled, on the same instance; the seed
// drives inputs, schedules and delivery shuffles. No campaign and no
// observation work: executor send/deliver/arena/thread-pool throughput.
//
// n is 5e4 rather than 1e5: six live executors whose messages are vectors
// peak at 430 MB for n = 5e4. At 1e5 (and four input values) they took
// 1.1 GB and left time for only two passes per run.

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>

#include "bench.hpp"
#include "campaign_pass.hpp"
#include "core/pushsum.hpp"
#include "dynamics/perturbation.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "report.hpp"
#include "runtime/executor.hpp"
#include "wire/codecs.hpp"

namespace perfbench {

using anonet::CommModel;
using anonet::DynamicGraphPtr;
using anonet::FrequencyPushSumAgent;
using anonet::Vertex;
using Engine = anonet::Executor<FrequencyPushSumAgent>;

namespace {

constexpr Vertex kNodes = 50000;
// Two input values: after kWarmupRounds nearly every agent knows both, so
// messages stop growing and every timed pass costs the same.
constexpr int kValues = 2;
constexpr int kWarmupRounds = 4;
constexpr int kLegRounds = 4;  // rounds per leg

struct Family {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<std::int64_t> inputs;
  std::unique_ptr<Engine> serial;
  std::unique_ptr<Engine> pooled;
};

DynamicGraphPtr make_schedule(const std::string& name, std::uint64_t seed) {
  if (name == "ring") {
    return std::make_shared<anonet::StaticSchedule>(
        anonet::bidirectional_ring(kNodes));
  }
  if (name == "rsc") {
    return std::make_shared<anonet::RandomStronglyConnectedSchedule>(
        kNodes, kNodes / 4, seed);
  }
  return anonet::preferential_churn_schedule(kNodes, seed);
}

// Schedules, inputs, agents and both executors of every family, each
// executor warmed up so its arena and messages have reached their steady
// size. The two
// executors get equal but separate schedule objects: a schedule's round
// cache must not be shared between executors.
std::vector<Family> build_engine(std::uint64_t seed) {
  std::vector<Family> families;
  for (const char* name : {"ring", "rsc", "churn"}) {
    Family f;
    f.name = name;
    f.seed = seed * 31 + families.size();
    std::mt19937_64 rng(f.seed);
    std::uniform_int_distribution<std::int64_t> value(0, kValues - 1);
    std::vector<FrequencyPushSumAgent> agents;
    agents.reserve(kNodes);
    for (Vertex v = 0; v < kNodes; ++v) {
      f.inputs.push_back(value(rng));
      agents.emplace_back(f.inputs.back());
    }
    f.serial = std::make_unique<Engine>(make_schedule(f.name, f.seed), agents,
                                        CommModel::kOutdegreeAware, f.seed, 1);
    f.pooled = std::make_unique<Engine>(
        make_schedule(f.name, f.seed), std::move(agents),
        CommModel::kOutdegreeAware, f.seed, kEnginePoolThreads);
    f.serial->run(kWarmupRounds);
    f.pooled->run(kWarmupRounds);
    families.push_back(std::move(f));
  }
  return families;
}

// Per-value (y, z) state of an agent, read through its sending function
// at outdegree 1 (the unsplit state).
FrequencyPushSumAgent::Message state_of(const FrequencyPushSumAgent& agent) {
  return agent.send(1, 0);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Σy[ω] equals the number of inputs ω, and Σz[ω] the number of agents that
// know ω: Push-Sum moves mass, it never creates or loses it.
bool conserves_mass(const Engine& engine,
                    const std::vector<std::int64_t>& inputs) {
  std::map<std::int64_t, double> y;
  std::map<std::int64_t, double> z;
  std::map<std::int64_t, double> knowers;
  std::map<std::int64_t, double> holders;
  for (std::int64_t input : inputs) holders[input] += 1.0;
  for (const FrequencyPushSumAgent& agent : engine.agents()) {
    const auto s = state_of(agent);
    for (std::size_t i = 0; i < s.keys.size(); ++i) {
      y[s.keys[i]] += s.ys[i];
      z[s.keys[i]] += s.zs[i];
      knowers[s.keys[i]] += 1.0;
    }
  }
  constexpr double kTolerance = 1e-6;
  for (const auto& [key, count] : holders) {
    if (std::abs(y[key] - count) > kTolerance) return false;
    if (std::abs(z[key] - knowers[key]) > kTolerance) return false;
  }
  return y.size() == holders.size();
}

// Pooled state bitwise equal to serial state, agent by agent.
bool pooled_matches_serial(const Family& f) {
  const auto& a = f.serial->agents();
  const auto& b = f.pooled->agents();
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto sa = state_of(a[v]);
    const auto sb = state_of(b[v]);
    if (sa.keys != sb.keys || !same_bits(sa.ys, sb.ys) ||
        !same_bits(sa.zs, sb.zs)) {
      return false;
    }
  }
  return true;
}

// Judges the `passes` serial and pooled legs each family ran since the
// last audit by the state they left: a leg fails with its executor.
void audit_engine(const std::vector<Family>& families, int passes,
                  AuditReport& audit) {
  for (const Family& f : families) {
    audit.attempted += 2 * passes;
    if (!conserves_mass(*f.serial, f.inputs)) {
      audit.failed += passes;
      audit.note(f.name + ": serial legs lost or created Push-Sum mass");
    }
    if (!conserves_mass(*f.pooled, f.inputs) || !pooled_matches_serial(f)) {
      audit.failed += passes;
      audit.note(f.name + ": pooled state differs from serial");
    }
  }
}

// An engine "cell" is one leg: a family's serial or pooled run. Its time,
// the time cells_per_s divides by, is the sum of its rounds' step() times.
template <bool kTraced>
void run_leg(Engine& engine, const char* mode, CellSamples& samples,
             Spans* spans) {
  [[maybe_unused]] const anonet::ExecutorStats before = engine.stats();
  double leg_ms = 0.0;
  for (int r = 0; r < kLegRounds; ++r) {
    const auto t0 = Clock::now();
    engine.step();
    const double ms = ms_since(t0);
    samples.round_ms.push_back(ms);
    leg_ms += ms;
    if constexpr (kTraced) {
      spans->add_ms("runtime.step_ms", ms);
      spans->add_ms(std::string("runtime.step_ms.") + mode, ms);
    }
  }
  samples.cell_ms.push_back(leg_ms);
  samples.cell_ms_total += leg_ms;
  if constexpr (kTraced) {
    const anonet::ExecutorStats& now = engine.stats();
    spans->add_ms("runtime.validate_ms",
                  1000.0 * (now.timings.validate_seconds -
                            before.timings.validate_seconds));
    spans->add_ms("runtime.send_ms", 1000.0 * (now.timings.send_seconds -
                                               before.timings.send_seconds));
    spans->add_ms("runtime.deliver_ms",
                  1000.0 * (now.timings.deliver_seconds -
                            before.timings.deliver_seconds));
    spans->add_count("runtime.msgs",
                     static_cast<double>(now.messages_delivered -
                                         before.messages_delivered));
  }
}

template <bool kTraced>
void engine_pass(std::vector<Family>& families, CellSamples& samples,
                 Spans* spans) {
  for (Family& f : families) {
    run_leg<kTraced>(*f.serial, "serial", samples, spans);
    run_leg<kTraced>(*f.pooled, "pooled", samples, spans);
  }
}

// DynamicGraph::view(t) alone, on a third copy of each family's schedule,
// over the rounds the legs just ran.
void time_round_graphs(const std::vector<Family>& families, Spans& spans) {
  for (const Family& f : families) {
    const DynamicGraphPtr schedule = make_schedule(f.name, f.seed);
    const int last = f.serial->round();
    Vertex seen = 0;
    const auto t0 = Clock::now();
    for (int t = last - kLegRounds + 1; t <= last; ++t) {
      seen += schedule->view(t).get().vertex_count();
    }
    spans.add_ms("dynamics.round_graph_ms." + f.name, ms_since(t0));
    if (seen != kNodes * kLegRounds) spans.add_count("dynamics.bad_views", 1);
  }
}

// MessageTraits encode and decode of every ring agent's current message.
void time_wire(const Family& f, Spans& spans, AuditReport& audit) {
  std::vector<FrequencyPushSumAgent::Message> messages;
  messages.reserve(f.serial->agents().size());
  for (const FrequencyPushSumAgent& agent : f.serial->agents()) {
    messages.push_back(agent.send(3, 0));
  }
  std::vector<anonet::wire::BitWriter> encoded(messages.size());
  span<true>(&spans, "wire.encode_ms", [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      anonet::wire::encode(messages[i], encoded[i]);
    }
  });
  std::int64_t bad = 0;
  span<true>(&spans, "wire.decode_ms", [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      anonet::wire::BitReader reader(encoded[i]);
      const auto m =
          anonet::wire::decode<FrequencyPushSumAgent::Message>(reader);
      if (m.keys != messages[i].keys) ++bad;
    }
  });
  for (const auto& writer : encoded) {
    spans.add_count("wire.bits", static_cast<double>(writer.bit_size()));
  }
  audit.attempted += 1;
  if (bad != 0) {
    ++audit.failed;
    audit.note("wire: " + std::to_string(bad) + " messages decoded wrong");
  }
}

}  // namespace

Outcome run_engine(const Options& options) {
  std::vector<Family> families;
  const double setup_s = median_setup_s(3, 1, [&] {
    families.clear();
    families = build_engine(options.seed);
  });

  Outcome outcome;
  AuditReport audit;
  CellSamples samples;
  // The audit reads 2 x 3 x n agent states: it runs once, after the timed
  // phase, on the state every leg contributed to.
  const PassTimes times = run_passes(
      options.seconds, 3,
      [&](int) { engine_pass<false>(families, samples, nullptr); },
      [](int) {});
  audit_engine(families, static_cast<int>(times.wall_s.size()), audit);

  add_run_metrics(outcome, setup_s, times);
  samples.report(outcome);
  outcome.take(audit);
  return outcome;
}

TracedPass trace_engine(const Options& options, Spans& spans,
                        AuditReport& audit) {
  std::vector<Family> families = build_engine(options.seed);
  TracedPass pass;
  CellSamples untraced;
  auto t0 = Clock::now();
  engine_pass<false>(families, untraced, nullptr);
  pass.untraced_s = ms_since(t0) / 1000.0;

  CellSamples traced;
  t0 = Clock::now();
  engine_pass<true>(families, traced, &spans);
  pass.traced_s = ms_since(t0) / 1000.0;
  audit_engine(families, 2, audit);

  time_round_graphs(families, spans);
  time_wire(families.front(), spans, audit);
  return pass;
}

}  // namespace perfbench
