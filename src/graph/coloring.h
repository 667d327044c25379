#ifndef POWER_GRAPH_COLORING_H_
#define POWER_GRAPH_COLORING_H_

#include <cstdint>
#include <vector>

#include "graph/pair_graph.h"
#include "util/snapshot.h"

namespace power {

/// Vertex colors of the framework (§3.2, §6):
///   GREEN = the pair refers to the same entity,
///   RED   = different entities,
///   BLUE  = crowd answer too unconfident to propagate (Power+, §6).
enum class Color { kUncolored, kGreen, kRed, kBlue };

const char* ColorName(Color c);

/// Tracks vertex colors and implements the coloring strategy:
///  - a crowdsourced YES colors the vertex GREEN and casts a GREEN deduction
///    vote on every ancestor;
///  - a crowdsourced NO colors the vertex RED and casts a RED vote on every
///    descendant;
///  - a vertex that was asked directly keeps its answer;
///  - a vertex that was only deduced takes the majority of its deduction
///    votes; ties revert it to UNCOLORED (the conflict rule of §5.3.1), so
///    it stays eligible for asking.
///
/// All aggregate queries are incremental: per-color counters and an
/// uncolored-vertex bitset are maintained on every color transition, so
/// num_uncolored()/AllColored()/num_green()/... are O(1) and
/// UncoloredVertices() is O(|V|/64 + output) instead of a full scan.
/// Propagation BFS runs over per-state scratch (epoch marks + queue) with no
/// per-call allocation. Every transition is appended to a journal so
/// selectors can maintain derived state (active in-degrees) across rounds
/// without rescanning the graph.
///
/// Thread compatibility (not thread safety): a ColoringState — its counters,
/// bitset, journal, and BFS scratch — is confined to the serving thread that
/// owns the ask-and-color loop. Nothing here is internally synchronized, and
/// no ParallelFor task may touch a live state (the power-lint float-reduce /
/// task-noexcept rules police the lambda bodies that would be tempted).
/// Distinct states on distinct threads are fine: the only process-global is
/// the state-id generator atomic in coloring.cc.
class ColoringState {
 public:
  /// `graph` must be frozen (PairGraph::DedupEdges) unless empty.
  explicit ColoringState(const PairGraph* graph);

  Color color(int v) const;
  bool asked(int v) const;

  /// True iff v is currently UNCOLORED (askable). O(1).
  bool IsUncolored(int v) const;

  /// Vertices still UNCOLORED (askable), ascending. BLUE vertices are
  /// settled later by the error-tolerant histogram pass, not by more
  /// questions.
  std::vector<int> UncoloredVertices() const;
  size_t num_uncolored() const { return counts_[ColorIndex(Color::kUncolored)]; }
  bool AllColored() const { return num_uncolored() == 0; }

  /// Fills `mask` (resized to num_vertices()) with the uncolored indicator —
  /// the active-subgraph mask the §5 selectors feed to the path cover.
  /// Reuses the caller's storage; no allocation after the first call.
  void FillUncoloredMask(std::vector<bool>* mask) const;

  /// Records the crowd's (voted) answer on v and propagates deduction votes
  /// per the coloring strategy. `propagate` is false when the answer's
  /// confidence is below the Power+ gate.
  void ApplyAnswer(int v, bool match, bool propagate = true);

  /// Marks an unconfident asked vertex BLUE (no propagation).
  void MarkBlue(int v);

  size_t num_green() const { return counts_[ColorIndex(Color::kGreen)]; }
  size_t num_red() const { return counts_[ColorIndex(Color::kRed)]; }
  size_t num_blue() const { return counts_[ColorIndex(Color::kBlue)]; }

  const PairGraph& graph() const { return *graph_; }

  /// Identifier unique across all ColoringState instances in the process.
  /// Lets a stateful selector detect it was handed a different state (even
  /// one reallocated at the same address) and rebuild its derived caches.
  uint64_t state_id() const { return state_id_; }

  /// Journal of color transitions: vertex v is appended every time color(v)
  /// changes (a vertex may appear multiple times). Selectors keep a cursor
  /// into this journal and fold the suffix into their incremental state at
  /// the start of each round.
  const std::vector<int>& color_journal() const { return journal_; }

  /// Serializes the durable coloring state — colors, asked flags,
  /// deduction votes, and the full journal — for the job checkpoint layer
  /// (core/job_journal.h). Derived structures (per-color counters, the
  /// uncolored bitset, BFS scratch) are rebuilt on restore, not stored.
  void SaveState(SnapshotWriter* w) const;

  /// Restores a SaveState blob into this state, which must wrap a graph of
  /// the same vertex count. Returns false (state unchanged) on a malformed
  /// or size-mismatched blob. state_id() keeps this instance's own fresh
  /// id, so selectors treat the restored state as new and rebuild their
  /// derived caches from the restored journal.
  bool RestoreState(SnapshotReader* r);

 private:
  static constexpr size_t ColorIndex(Color c) {
    return static_cast<size_t>(c);
  }

  /// Single point of color mutation: maintains counters, the uncolored
  /// bitset, and the journal.
  void SetColor(int v, Color c);
  void Recompute(int v);
  /// Zero-allocation BFS from v casting one vote per reachable vertex.
  void PropagateVotes(int v, bool match);

  const PairGraph* graph_;
  uint64_t state_id_;
  std::vector<Color> color_;
  std::vector<bool> asked_;
  std::vector<int> green_votes_;
  std::vector<int> red_votes_;

  size_t counts_[4] = {0, 0, 0, 0};   // per-color vertex counts
  std::vector<uint64_t> uncolored_;   // bitset, bit v set iff v uncolored
  std::vector<int> journal_;

  // Propagation scratch (reused across ApplyAnswer calls).
  std::vector<uint64_t> visit_mark_;
  uint64_t visit_epoch_ = 0;
  std::vector<int> bfs_queue_;
};

}  // namespace power

#endif  // POWER_GRAPH_COLORING_H_
