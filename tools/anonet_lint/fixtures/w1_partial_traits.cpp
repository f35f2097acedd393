// Negative fixture — anonet_lint MUST flag this file under rule W1.
//
// A MessageTraits specialization that defines encoded_bits and encode but
// NOT decode: a half-implemented codec passes "is there a specialization?"
// checks while still breaking the round-trip property the wire layer
// depends on. W1 requires the three members to be defined together, and
// names the missing ones.

#include <cstdint>

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class HalfCodecAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  static constexpr bool kParallelSafe = true;

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) value_ += m.value;
  }

 private:
  std::int64_t value_ = 0;
};

namespace wire {

template <typename M>
struct MessageTraits;  // primary template: never defined

struct BitWriter;
struct BitReader;

template <>
struct MessageTraits<HalfCodecAgent::Message> {
  [[nodiscard]] static std::size_t encoded_bits(
      const HalfCodecAgent::Message&) {
    return 64;
  }

  static void encode(const HalfCodecAgent::Message&, BitWriter&) {}

  // decode() is missing: the round trip cannot be completed.
};

}  // namespace wire

}  // namespace anonet_fixtures
