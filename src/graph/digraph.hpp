#pragma once

// Directed multigraphs with explicit edge identity.
//
// Following Section 3 of the paper, a graph is a vertex set [n] together with
// a set of edges given by source and target maps; parallel edges are
// meaningful (minimum bases are multigraphs), and each edge carries a color
// used to model *output port awareness* (a local labelling of the outgoing
// edges of each vertex). Vertex valuations (input values, outdegrees) are kept
// outside the structure, as plain vectors indexed by vertex, so the same
// topology can carry several valuations at once.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace anonet {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;

// Edge colors model output-port labels; kNoColor means "uncolored".
using EdgeColor = std::int32_t;
inline constexpr EdgeColor kNoColor = 0;

struct Edge {
  Vertex source = 0;
  Vertex target = 0;
  EdgeColor color = kNoColor;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// A lazily computed tri-state verdict (-1 unknown, 0 false, 1 true) held in
// an atomic so concurrent const queries on a shared graph are race-free:
// two threads may both compute the predicate, but it is a pure function of
// the edge multiset, so they store the same value (benign double-checked
// compute, relaxed ordering suffices). Copyable so graph copies carry their
// verdicts along.
class CachedVerdict {
 public:
  CachedVerdict() = default;
  CachedVerdict(const CachedVerdict& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  CachedVerdict& operator=(const CachedVerdict& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  // -1 unknown, 0 false, 1 true.
  [[nodiscard]] std::int8_t get() const {
    return value_.load(std::memory_order_relaxed);
  }
  void set(bool verdict) {
    value_.store(verdict ? 1 : 0, std::memory_order_relaxed);
  }
  void reset() { value_.store(-1, std::memory_order_relaxed); }

 private:
  std::atomic<std::int8_t> value_{-1};
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(Vertex vertex_count);

  [[nodiscard]] Vertex vertex_count() const { return vertex_count_; }
  [[nodiscard]] EdgeId edge_count() const {
    return static_cast<EdgeId>(edges_.size());
  }

  // Returns the id of the new edge. Invalidates adjacency spans.
  EdgeId add_edge(Vertex source, Vertex target, EdgeColor color = kNoColor);
  // Capacity for `count` edges; no observable change otherwise.
  void reserve_edges(std::size_t count) { edges_.reserve(count); }

  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  // Edge ids whose target / source is `v` (multiplicities included,
  // self-loops included). Built lazily and cached; cheap to call repeatedly.
  [[nodiscard]] std::span<const EdgeId> in_edges(Vertex v) const;
  [[nodiscard]] std::span<const EdgeId> out_edges(Vertex v) const;

  // Degrees count parallel edges and self-loops, matching the paper's
  // convention that every communication graph has a self-loop (an agent
  // always hears itself).
  [[nodiscard]] int indegree(Vertex v) const;
  [[nodiscard]] int outdegree(Vertex v) const;

  [[nodiscard]] bool has_edge(Vertex source, Vertex target) const;
  // Number of parallel source->target edges (the d_{i,j} of Section 4.2).
  [[nodiscard]] int edge_multiplicity(Vertex source, Vertex target) const;

  [[nodiscard]] bool has_all_self_loops() const;
  // Adds a self-loop at every vertex lacking one; returns number added.
  int ensure_self_loops();

  // True when the edge *multiset* is symmetric: for all (i, j),
  // multiplicity(i, j) == multiplicity(j, i). Colors are ignored.
  [[nodiscard]] bool is_symmetric() const;

  // True when every vertex's out-edges are colored with exactly the ports
  // 1..outdegree (a valid local output labelling, Section 2.2).
  [[nodiscard]] bool has_valid_output_ports() const;

  // Graph with every edge reversed (colors preserved).
  [[nodiscard]] Digraph reversed() const;

  // Relabels outgoing edges of every vertex with distinct port colors
  // 1..outdegree(v), in edge-id order. Models giving the network output port
  // awareness (Section 2.2). Deterministic.
  void assign_output_ports();

 private:
  void build_adjacency() const;
  void invalidate_caches();

  Vertex vertex_count_ = 0;
  std::vector<Edge> edges_;

  // Lazy adjacency cache (CSR-style), rebuilt after mutation.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<EdgeId> in_list_, out_list_;
  mutable std::vector<std::int32_t> in_start_, out_start_;

  // Cached validation verdicts, keyed on this graph object: the executor
  // checks symmetry and output ports of each round graph once instead of
  // re-walking the edge set every round. Copies carry the verdicts along
  // (they describe the edge multiset, which is copied too); any mutation
  // resets them. Atomic, so concurrent const verdict queries on a shared
  // graph are race-free; the lazy adjacency cache is the remaining
  // unsynchronized const path — force it (any in_edges/out_edges call)
  // before sharing a graph across threads, as Executor::prepare_topology
  // does for the port-aware send.
  mutable CachedVerdict symmetric_cache_;
  mutable CachedVerdict output_ports_cache_;
};

// Footnote 3 of the paper: the product G1 ∘ G2 has an edge (i, j) whenever
// some k has (i, k) in G1 and (k, j) in G2. Used to define the dynamic
// diameter. Result edges are uncolored and deduplicated.
[[nodiscard]] Digraph graph_product(const Digraph& g1, const Digraph& g2);

// The complete graph on the same vertex set (with self-loops), the identity
// for recognising "G(t) ∘ ... ∘ G(t+D-1) is complete".
[[nodiscard]] bool is_complete_with_self_loops(const Digraph& g);

}  // namespace anonet
