// Negative fixture — anonet_lint MUST flag this file under rule W1.
//
// An agent whose Message is reachable from send() but which has NO
// MessageTraits specialization at all: every message that crosses the
// wire layer must be encodable, or the bit-metering and bound-checking
// machinery silently under-counts it. The forward declaration of the
// primary template below is what marks this translation unit as
// participating in the wire layer; the missing specialization for
// UnmeteredAgent::Message is the violation.

#include <cstdint>

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

namespace wire {
template <typename M>
struct MessageTraits;  // primary template: never defined
}  // namespace wire

class UnmeteredAgent {
 public:
  struct Message {
    std::int64_t value;
    std::int64_t round;
  };

  static constexpr bool kParallelSafe = true;

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_, round_};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) value_ += m.value;
    ++round_;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t round_ = 0;
};

}  // namespace anonet_fixtures
