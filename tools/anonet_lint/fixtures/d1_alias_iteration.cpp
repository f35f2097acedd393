// Negative fixture — anonet_lint MUST flag this file under rule D1.
//
// The v1 analyzer only recognized iteration over a container *declared* as
// std::unordered_map<...> by that spelling; hiding the type behind a
// `using` alias (or grabbing an `auto&` reference to the container first)
// made the bucket-order leak invisible. Both laundering layers appear
// here: `Tally` is an unordered_map by alias, `view` is an auto& alias of
// the aliased variable, and the range-for walks `view` — three renames
// away from the word "unordered", same implementation-defined order
// leaking into the constructed message.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

using Tally = std::unordered_map<std::int64_t, std::int64_t>;
using TallyAlias = Tally;  // alias of an alias: still unordered

class AliasedHistogramAgent {
 public:
  struct Message {
    std::vector<std::int64_t> keys;
  };

  static constexpr bool kParallelSafe = true;

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) {
      for (std::int64_t k : m.keys) counts_[k] += 1;
    }
  }

  // D1: the range-for order is bucket order, three aliases deep.
  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    Message out;
    const auto& view = counts_;
    for (const auto& entry : view) {
      out.keys.push_back(entry.first);
    }
    return out;
  }

 private:
  TallyAlias counts_;
};

}  // namespace anonet_fixtures
