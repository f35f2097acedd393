// POSITIVE fixture — anonet_lint must report ZERO findings here.
//
// Pure forwarding into a capability-declared agent is NOT a leak: the v1
// analyzer flagged any agent whose send() named (or forwarded) its
// outdegree/port parameters without declaring the capability itself, which
// made thin wrapper agents around declared consumers impossible to write
// cleanly. v2 resolves the forward target through the call graph: the
// wrapped MeteredFanoutAgent declares kNeedsOutdegree and
// kNeedsOutputPorts, so the wrapper's send() passing its parameters
// straight through observes nothing the declaration does not already
// account for. The self-test suite locks this file at zero findings —
// a regression that re-flags it reintroduces the v1 false positive.

#include <cstdint>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class MeteredFanoutAgent {
 public:
  struct Message {
    std::int64_t share;
  };

  static constexpr bool kParallelSafe = true;
  // The declared consumer: observing outdegree and ports is its row of
  // Table 1.
  static constexpr anonet::ModelCapabilities kModelCapabilities =
      anonet::ModelCapabilities::kNeedsOutdegree |
      anonet::ModelCapabilities::kNeedsOutputPorts;

  [[nodiscard]] Message send(int outdegree, int port) const {
    return Message{state_ / (outdegree + 1) + port};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) state_ += m.share;
  }

 private:
  std::int64_t state_ = 0;
};

class ForwardingShimAgent {
 public:
  using Message = MeteredFanoutAgent::Message;

  static constexpr bool kParallelSafe = true;

  // Pure forwarding: both parameters go straight into the declared
  // consumer, so the shim observes nothing itself. Must NOT be flagged.
  [[nodiscard]] Message send(int outdegree, int port) const {
    return inner_.send(outdegree, port);
  }

  void receive(anonet::Inbox<Message> messages) {
    inner_.receive(messages);
  }

 private:
  MeteredFanoutAgent inner_;
};

}  // namespace anonet_fixtures
