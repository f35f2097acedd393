#pragma once

// Span bookkeeping for the traced run.
//
// Workloads are templates over `bool kTraced`. Every call into a library
// module goes through span<kTraced>(...): the traced instantiation times it
// and adds the milliseconds to a named total; the untraced instantiation
// compiles to the bare call, so untraced numbers never pay for spans.

#include <chrono>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Named totals: milliseconds per span name, plus plain counters.
class Spans {
 public:
  void add_ms(const std::string& name, double ms) { ms_[name] += ms; }
  void add_count(const std::string& name, double n) { counts_[name] += n; }

  [[nodiscard]] double ms(const std::string& name) const {
    const auto it = ms_.find(name);
    return it == ms_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double count(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& all_ms() const {
    return ms_;
  }

 private:
  std::map<std::string, double> ms_;
  std::map<std::string, double> counts_;
};

// Runs fn(); under kTraced adds its wall time to spans[name].
template <bool kTraced, typename Fn>
decltype(auto) span(Spans* spans, const char* name, Fn&& fn) {
  if constexpr (kTraced) {
    struct Stop {
      Spans* spans;
      const char* name;
      Clock::time_point start;
      ~Stop() { spans->add_ms(name, ms_since(start)); }
    } stop{spans, name, Clock::now()};
    return std::forward<Fn>(fn)();
  } else {
    (void)spans;
    (void)name;
    return std::forward<Fn>(fn)();
  }
}

}  // namespace perfbench
