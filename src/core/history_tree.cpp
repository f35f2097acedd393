#include "core/history_tree.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/census.hpp"
#include "linalg/kernel.hpp"
#include "linalg/matrix.hpp"

namespace anonet {

HistoryFrequencyAgent::HistoryFrequencyAgent(
    std::shared_ptr<ViewRegistry> registry, std::shared_ptr<LabelCodec> codec,
    std::int64_t input)
    : registry_(std::move(registry)),
      codec_(std::move(codec)),
      input_(input) {
  if (registry_ == nullptr || codec_ == nullptr) {
    throw std::invalid_argument("HistoryFrequencyAgent: null registry/codec");
  }
}

void HistoryFrequencyAgent::send(Message& out, int /*outdegree*/,
                                 int /*port*/) const {
  out.view = view_ == kInvalidView
                 ? registry_->leaf(codec_->value_label(input_))
                 : view_;
}

void HistoryFrequencyAgent::receive(Inbox<Message> messages) {
  if (messages.empty()) {
    throw std::logic_error("HistoryFrequencyAgent: missing self-loop?");
  }
  // History-tree node: the agent's own previous view in a distinguished
  // slot (color 1: the parent chain of the history tree, which DLV's agents
  // carry explicitly) plus the received multiset (color 0: one entry per
  // round-t in-edge, self-loop included). Unlike the static view agent
  // there is no truncation: levels are anchored at round 1, so a node of
  // depth k *is* some agent's genuine round-k view.
  const ViewId previous = view_ == kInvalidView
                              ? registry_->leaf(codec_->value_label(input_))
                              : view_;
  ViewRegistry::ChildList children;
  children.reserve(messages.size() + 1);
  children.emplace_back(previous, 1);
  for (const Message& m : messages) {
    children.emplace_back(m.view, 0);
  }
  view_ = registry_->node(codec_->value_label(input_), std::move(children));
  ++rounds_;
}

namespace {

// The distinguished own-predecessor child (color 1).
ViewId parent_class(const ViewRegistry& registry, ViewId node) {
  for (const auto& [child, color] : registry.children(node)) {
    if (color == 1) return child;
  }
  throw std::logic_error("HistoryFrequencyAgent: node without parent chain");
}

// Number of round-k in-edges from members of class `from` (color-0 slots).
int in_edge_count(const ViewRegistry& registry, ViewId node, ViewId from) {
  int count = 0;
  for (const auto& [child, color] : registry.children(node)) {
    if (color == 0 && child == from) ++count;
  }
  return count;
}

}  // namespace

const std::optional<HistoryFrequencyAgent::Solution>&
HistoryFrequencyAgent::solve() const {
  if (solution_round_ == rounds_) return solution_;
  solution_round_ = rounds_;
  solution_.reset();
  if (view_ == kInvalidView) return solution_;

  // Window of levels [t0, t1]: deep enough that the class sets are complete
  // (an agent sees every level-k class once k <= t - D), long enough to
  // carry the refinement relations. D is unknown; t/2 becomes valid once
  // t >= 2D, which the eventual-correctness contract absorbs.
  const int t = registry_->depth(view_);
  const int t1 = t / 2;
  // Cap the window length: deep history adds variables without adding
  // information once the classes have stabilized (each stable level repeats
  // the same relations), and the exact solve is cubic in the variable count.
  constexpr int kMaxWindowLevels = 12;
  const int t0 = std::max(t / 4, t1 - kMaxWindowLevels);
  if (t1 - t0 < 1) return solution_;

  // Class sets per level: every embedded sub-view of depth k is some
  // agent's genuine round-k view (level-k history-tree node).
  const std::vector<ViewId> subviews = registry_->subviews(view_);
  std::vector<std::set<ViewId>> levels(static_cast<std::size_t>(t1 - t0 + 1));
  for (ViewId s : subviews) {
    const int k = registry_->depth(s);
    if (k >= t0 && k <= t1) {
      levels[static_cast<std::size_t>(k - t0)].insert(s);
    }
  }

  // Variable index per (level, class).
  std::map<std::pair<int, ViewId>, std::size_t> var;
  std::vector<std::pair<int, ViewId>> var_keys;
  for (int k = t0; k <= t1; ++k) {
    for (ViewId c : levels[static_cast<std::size_t>(k - t0)]) {
      var.emplace(std::pair{k, c}, var_keys.size());
      var_keys.emplace_back(k, c);
    }
  }

  std::vector<std::vector<Rational>> rows;
  auto child_count = [&](ViewId node, ViewId child) {
    return in_edge_count(*registry_, node, child);
  };

  for (int k = t0 + 1; k <= t1; ++k) {
    const auto& lower = levels[static_cast<std::size_t>(k - 1 - t0)];
    const auto& upper = levels[static_cast<std::size_t>(k - t0)];
    // Children-of-parents map for this level (the parent chain).
    std::map<ViewId, std::vector<ViewId>> children_of;
    for (ViewId c : upper) {
      children_of[parent_class(*registry_, c)].push_back(c);
    }
    // Refinement: z_{parent} = Σ z_{children}.
    for (ViewId parent : lower) {
      std::vector<Rational> row(var_keys.size());
      row[var.at({k - 1, parent})] = Rational(1);
      auto it = children_of.find(parent);
      if (it == children_of.end()) return solution_;  // incomplete window
      for (ViewId child : it->second) {
        row[var.at({k, child})] -= Rational(1);
      }
      rows.push_back(std::move(row));
    }
    // Symmetry double count, per unordered pair of level-(k-1) classes:
    //   Σ_{C child of B} c_{C,D} z_C = Σ_{C child of D} c_{C,B} z_C.
    std::vector<ViewId> lower_list(lower.begin(), lower.end());
    for (std::size_t i = 0; i < lower_list.size(); ++i) {
      for (std::size_t j = i; j < lower_list.size(); ++j) {
        const ViewId b = lower_list[i];
        const ViewId d = lower_list[j];
        std::vector<Rational> row(var_keys.size());
        bool nontrivial = false;
        for (ViewId c : children_of[b]) {
          const int count = child_count(c, d);
          if (count != 0) {
            row[var.at({k, c})] += Rational(count);
            nontrivial = true;
          }
        }
        for (ViewId c : children_of[d]) {
          const int count = child_count(c, b);
          if (count != 0) {
            row[var.at({k, c})] -= Rational(count);
            nontrivial = true;
          }
        }
        // For b == d the row cancels only when both sums agree termwise;
        // keep nontrivial rows, they still constrain unequal-class splits.
        if (nontrivial) rows.push_back(std::move(row));
      }
    }
  }
  if (rows.empty()) return solution_;

  RationalMatrix system(rows.size(), var_keys.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < var_keys.size(); ++c) {
      system.at(r, c) = rows[r][c];
    }
  }
  const auto kernel = positive_coprime_kernel_vector(system);
  if (!kernel.has_value()) return solution_;

  Solution solution;
  for (std::size_t i = 0; i < var_keys.size(); ++i) {
    if (var_keys[i].first == t1) {
      solution.classes.push_back(var_keys[i].second);
      solution.sizes.push_back((*kernel)[i]);
    }
  }
  if (!solution.classes.empty()) solution_ = std::move(solution);
  return solution_;
}

std::optional<Frequency> HistoryFrequencyAgent::frequency_estimate() const {
  const auto& solution = solve();
  if (!solution.has_value()) return std::nullopt;
  BigInt total(0);
  std::map<std::int64_t, BigInt> weight;
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t value =
        codec_->value_of(registry_->label(solution->classes[i]));
    auto [it, inserted] = weight.emplace(value, solution->sizes[i]);
    if (!inserted) it->second += solution->sizes[i];
    total += solution->sizes[i];
  }
  std::map<std::int64_t, Rational> entries;
  for (auto& [value, w] : weight) entries.emplace(value, Rational(w, total));
  try {
    return Frequency(std::move(entries));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::optional<std::map<std::int64_t, BigInt>>
HistoryFrequencyAgent::multiset_estimate(std::int64_t leader_count) const {
  if (leader_count <= 0) {
    throw std::invalid_argument("multiset_estimate: need >= 1 leader");
  }
  const auto& solution = solve();
  if (!solution.has_value()) return std::nullopt;
  BigInt leader_total(0);
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t coded =
        codec_->value_of(registry_->label(solution->classes[i]));
    if (decode_leader_flag(coded)) leader_total += solution->sizes[i];
  }
  if (leader_total.is_zero()) return std::nullopt;
  std::map<std::int64_t, BigInt> multiset;
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t coded =
        codec_->value_of(registry_->label(solution->classes[i]));
    const BigInt scaled = BigInt(leader_count) * solution->sizes[i];
    if (!(scaled % leader_total).is_zero()) return std::nullopt;
    auto [it, inserted] =
        multiset.emplace(decode_leader_value(coded), scaled / leader_total);
    if (!inserted) it->second += scaled / leader_total;
  }
  return multiset;
}

}  // namespace anonet
