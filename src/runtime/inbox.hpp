#pragma once

// Inbox<Message>: the received multiset an agent's receive() transitions on
// (docs/round_engine.md, "Receiving: the Inbox").
//
// In the isotropic models (simple broadcast, outdegree awareness, §2.2) a
// sender emits ONE message and every out-neighbor observes that same
// message, so the executor never copies it per delivery: an inbox is a
// shuffled run of pointers into the senders' outbox slots (per-edge slots
// under output port awareness). Inbox is the read-only view over that run —
// a random-access range yielding `const Message&`, with size(), empty(),
// front() and operator[].
//
// Lifetime: the view and every reference it yields are valid only during
// the receive() call that got them, and they alias messages other receivers
// see too. An agent copies whatever it keeps past the call.

#include <cstddef>
#include <ranges>
#include <span>

namespace anonet {

template <typename Message>
struct Dereference {
  const Message& operator()(const Message* message) const { return *message; }
};

template <typename Message>
using Inbox = std::ranges::transform_view<std::span<const Message* const>,
                                          Dereference<Message>>;

// The inbox over `slots[0 .. count)`, in delivery order.
template <typename Message>
[[nodiscard]] Inbox<Message> inbox_of(const Message* const* slots,
                                      std::size_t count) {
  return Inbox<Message>(std::span<const Message* const>(slots, count), {});
}

}  // namespace anonet
