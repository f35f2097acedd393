// Negative fixture — anonet_lint MUST flag this file under rule M1.
//
// A transitive audience-information leak TWO hops deep, in the direction
// the v1 analyzer could not see at all: v1's only M1 entry point was the
// parameter list of an agent's send(), so a leak that never touches those
// parameters — harness code reading a vertex degree from the graph and
// feeding it INTO the agent through a setter — passed silently. Here the
// degree travels
//
//     local_fanout()  ->  probe_audience()  ->  CalibratedGossipAgent::calibrate()
//
// (helper -> helper -> agent method), and CalibratedGossipAgent declares
// no ModelCapabilities::kNeedsOutdegree: under simple broadcast the agent
// now "knows" its audience size, quietly proving a theorem Table 1
// forbids. The whole-program call graph must track the taint through both
// helper returns; `--max-hops 1` (the v1-equivalent single-hop analysis)
// must NOT flag this file — the self-test suite pins both behaviors.

#include <cstdint>
#include <vector>

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

struct MiniGraph {
  std::vector<std::vector<int>> adjacency;

  [[nodiscard]] int out_degree(int v) const {
    return static_cast<int>(adjacency[static_cast<std::size_t>(v)].size());
  }
};

class CalibratedGossipAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  static constexpr bool kParallelSafe = true;

  explicit CalibratedGossipAgent(std::int64_t input) : value_(input) {}

  // The side door: nothing about this signature says "audience size".
  void calibrate(int hint) { split_hint_ = hint; }

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_ / (split_hint_ + 1)};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) value_ += m.value;
  }

 private:
  std::int64_t value_;
  int split_hint_ = 0;
};

// Hop 1: the raw audience source.
[[nodiscard]] inline int local_fanout(const MiniGraph& g, int v) {
  return g.out_degree(v);
}

// Hop 2: an innocent-looking indirection.
[[nodiscard]] inline int probe_audience(const MiniGraph& g, int v) {
  return local_fanout(g, v);
}

inline void wire_up(const MiniGraph& g) {
  std::vector<CalibratedGossipAgent> agents;
  for (int v = 0; v < static_cast<int>(g.adjacency.size()); ++v) {
    agents.emplace_back(1);
  }
  for (int v = 0; v < static_cast<int>(agents.size()); ++v) {
    CalibratedGossipAgent& agent = agents[static_cast<std::size_t>(v)];
    // M1: audience information, laundered through two helpers.
    agent.calibrate(probe_audience(g, v));
  }
}

}  // namespace anonet_fixtures
