// Negative fixture — anonet_lint MUST flag this file under rule A1.
//
// Vertex identity read OUTSIDE the agent class, in a free helper two
// calls away: the agent's receive() calls pick_slot(), pick_slot() calls
// raw_slot_of(), and raw_slot_of() reads a `vertex_id`. The v1 analyzer
// only scanned agent class bodies, so moving the identity read into any
// helper hid it completely; v2 walks the call graph from every agent
// member function and flags banned identifiers in every reachable
// same-file helper, reporting the chain.

#include <cstdint>

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

// Reachable at hop 2: the identity read the agent launders.
[[nodiscard]] inline std::int64_t raw_slot_of(std::int64_t vertex_id) {
  return vertex_id * 2654435761u % 97;
}

// Reachable at hop 1: clean in itself.
[[nodiscard]] inline std::int64_t pick_slot(std::int64_t hint) {
  return raw_slot_of(hint);
}

class SlottedEchoAgent {
 public:
  struct Message {
    std::int64_t payload;
  };

  static constexpr bool kParallelSafe = true;

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{state_};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) {
      state_ += pick_slot(m.payload);
    }
  }

 private:
  std::int64_t state_ = 0;
};

}  // namespace anonet_fixtures
