// Negative fixture — anonet_lint MUST flag this file under rule M1.
//
// The outbox-slot form of the sending function,
// send(Message& out, int outdegree, int port), writes the message into the
// slot passed first. This agent splits its mass by the outdegree without
// declaring ModelCapabilities::kNeedsOutdegree, and must be flagged on the
// line that divides: M1 takes the outdegree and the port from the last two
// parameters, so `out` is not mistaken for the outdegree (which would flag
// the store into the slot instead) and the real outdegree is checked.

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class SlotOutdegreeAgent {
 public:
  struct Message {
    double y_share = 0.0;
  };

  explicit SlotOutdegreeAgent(double value) : y_(value) {}

  // M1: names (and uses) `outdegree` without declaring kNeedsOutdegree.
  void send(Message& out, int outdegree, int /*port*/) const {
    const double share = y_ / outdegree;
    out.y_share = share;
  }

  void receive(anonet::Inbox<Message> messages) {
    y_ = 0.0;
    for (const Message& m : messages) y_ += m.y_share;
  }

 private:
  double y_;
};

}  // namespace anonet_fixtures
