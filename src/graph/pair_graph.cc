#include "graph/pair_graph.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Edges per chunk in the counting / scatter passes of the CSR freeze.
constexpr int64_t kEdgeGrain = 8192;
// Vertices per chunk in the per-vertex sort / dedup passes. Degrees vary
// wildly on closure graphs, so chunks are small and claimed dynamically.
constexpr int64_t kVertexGrain = 32;

}  // namespace

void PairGraph::CheckFrozenVertex(int v) const {
  POWER_CHECK_MSG(frozen_, "adjacency requires a frozen graph");
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < num_vertices_);
}

void PairGraph::AddEdge(int parent, int child) {
  POWER_CHECK_MSG(!frozen_, "PairGraph is frozen; no further edges");
  POWER_CHECK(parent >= 0 && static_cast<size_t>(parent) < num_vertices_);
  POWER_CHECK(child >= 0 && static_cast<size_t>(child) < num_vertices_);
  POWER_CHECK(parent != child);
  pending_.emplace_back(parent, child);
}

void PairGraph::AddEdgeChunks(
    std::vector<std::vector<std::pair<int, int>>> chunks) {
  POWER_CHECK_MSG(!frozen_, "PairGraph is frozen; no further edges");
  const size_t base = pending_.size();
  std::vector<size_t> offsets(chunks.size());
  size_t total = base;
  for (size_t i = 0; i < chunks.size(); ++i) {
    offsets[i] = total;
    total += chunks[i].size();
  }
  pending_.resize(total);
  const int n = static_cast<int>(num_vertices_);
  ParallelFor(0, static_cast<int64_t>(chunks.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  size_t pos = offsets[i];
                  for (const auto& [parent, child] : chunks[i]) {
                    POWER_CHECK(parent >= 0 && parent < n);
                    POWER_CHECK(child >= 0 && child < n);
                    POWER_CHECK(parent != child);
                    pending_[pos++] = {parent, child};
                  }
                }
              });
}

void PairGraph::BuildCsrSide(bool keyed_by_parent,
                             std::vector<int64_t>* offsets,
                             std::vector<int>* edges) const {
  const size_t n = num_vertices_;
  const int64_t num_pending = static_cast<int64_t>(pending_.size());

  // Pass 1: per-vertex degree counts. Relaxed atomic increments — addition
  // commutes, so the totals are thread-count independent.
  std::unique_ptr<std::atomic<int64_t>[]> counts(new std::atomic<int64_t>[n]());
  ParallelFor(0, num_pending, kEdgeGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const auto& [p, c] = pending_[i];
      counts[keyed_by_parent ? p : c].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<int64_t> raw_off(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    raw_off[v + 1] = raw_off[v] + counts[v].load(std::memory_order_relaxed);
    counts[v].store(0, std::memory_order_relaxed);  // becomes scatter cursor
  }

  // Pass 2: scatter targets into per-vertex ranges. The order within a range
  // is scheduling-dependent, but pass 3 sorts every range, so the frozen
  // result is deterministic.
  std::vector<int> raw(static_cast<size_t>(num_pending));
  ParallelFor(0, num_pending, kEdgeGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const auto& [p, c] = pending_[i];
      int key = keyed_by_parent ? p : c;
      int64_t pos =
          raw_off[key] + counts[key].fetch_add(1, std::memory_order_relaxed);
      raw[static_cast<size_t>(pos)] = keyed_by_parent ? c : p;
    }
  });

  // Pass 3: sort + count unique per vertex (dedup sizes reuse `counts`).
  ParallelFor(0, static_cast<int64_t>(n), kVertexGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t v = begin; v < end; ++v) {
                  auto* first = raw.data() + raw_off[v];
                  auto* last = raw.data() + raw_off[v + 1];
                  std::sort(first, last);
                  auto* tail = std::unique(first, last);
                  counts[v].store(tail - first, std::memory_order_relaxed);
                }
              });

  // Final offsets + compaction into the frozen arrays.
  offsets->assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    (*offsets)[v + 1] =
        (*offsets)[v] + counts[v].load(std::memory_order_relaxed);
  }
  edges->assign(static_cast<size_t>((*offsets)[n]), 0);
  ParallelFor(0, static_cast<int64_t>(n), kVertexGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t v = begin; v < end; ++v) {
                  std::copy_n(raw.data() + raw_off[v],
                              (*offsets)[v + 1] - (*offsets)[v],
                              edges->data() + (*offsets)[v]);
                }
              });
}

void PairGraph::DedupEdges() {
  if (frozen_) return;
  BuildCsrSide(/*keyed_by_parent=*/true, &child_off_, &child_edges_);
  BuildCsrSide(/*keyed_by_parent=*/false, &parent_off_, &parent_edges_);
  POWER_CHECK(child_edges_.size() == parent_edges_.size());
  num_edges_ = child_edges_.size();
  // `pending_ = {}` would pick operator=(initializer_list), which keeps the
  // capacity; a moved-in empty vector frees the buffer.
  pending_ = std::vector<std::pair<int, int>>();
  frozen_ = true;
}

void PairGraph::FreezeFromChildren(std::vector<int64_t> child_off,
                                   std::vector<int> child_edges) {
  POWER_CHECK_MSG(!frozen_, "PairGraph is frozen; no further edges");
  POWER_CHECK_MSG(pending_.empty(), "pending edges freeze through DedupEdges");
  const size_t n = num_vertices_;
  POWER_CHECK_MSG(child_off.size() == n + 1,
                  "child offsets need num_vertices() + 1 entries");
  POWER_CHECK_MSG(child_off[0] == 0, "child offsets must start at 0");
  for (size_t v = 0; v < n; ++v) {
    POWER_CHECK_MSG(child_off[v] <= child_off[v + 1],
                    "child offsets must not decrease");
  }
  POWER_CHECK_MSG(
      child_off[n] == static_cast<int64_t>(child_edges.size()),
      "the last child offset must equal the child edge count");

  // Check every list and count each vertex's parents in one pass; the
  // counts sit one slot up, so the prefix sum below turns them into offsets.
  std::vector<int64_t> parent_off(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    int prev = -1;
    for (int64_t e = child_off[v]; e < child_off[v + 1]; ++e) {
      const int c = child_edges[static_cast<size_t>(e)];
      POWER_CHECK_MSG(static_cast<size_t>(c) < n, "child out of range");
      POWER_CHECK_MSG(static_cast<size_t>(c) != v, "self-loop");
      POWER_CHECK_MSG(c > prev, "a child list must be strictly ascending");
      prev = c;
      ++parent_off[static_cast<size_t>(c) + 1];
    }
  }
  for (size_t v = 0; v < n; ++v) parent_off[v + 1] += parent_off[v];

  // Transpose in parent order, so every parent list comes out ascending.
  std::vector<int64_t> cursor(parent_off.begin(), parent_off.end() - 1);
  std::vector<int> parent_edges(child_edges.size());
  for (size_t v = 0; v < n; ++v) {
    for (int64_t e = child_off[v]; e < child_off[v + 1]; ++e) {
      const int c = child_edges[static_cast<size_t>(e)];
      parent_edges[static_cast<size_t>(cursor[c]++)] = static_cast<int>(v);
    }
  }

  child_off_ = std::move(child_off);
  child_edges_ = std::move(child_edges);
  parent_off_ = std::move(parent_off);
  parent_edges_ = std::move(parent_edges);
  num_edges_ = child_edges_.size();
  frozen_ = true;
}

namespace {

// Reachability over one CSR direction with caller-owned scratch-free local
// state; ascending output.
template <typename AdjFn>
std::vector<int> Reachable(size_t n, int start, AdjFn adj) {
  std::vector<int> out;
  std::vector<bool> visited(n, false);
  std::vector<int> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (int u : adj(v)) {
      if (!visited[u]) {
        visited[u] = true;
        out.push_back(u);
        stack.push_back(u);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<int> PairGraph::Descendants(int v) const {
  CheckFrozenVertex(v);
  return Reachable(num_vertices_, v, [this](int u) { return children(u); });
}

std::vector<int> PairGraph::Ancestors(int v) const {
  CheckFrozenVertex(v);
  return Reachable(num_vertices_, v, [this](int u) { return parents(u); });
}

std::vector<std::vector<int>> PairGraph::TopologicalLevels(
    const std::vector<bool>& active) const {
  POWER_CHECK(active.size() == num_vertices_);
  POWER_CHECK_MSG(frozen_ || num_vertices_ == 0, "freeze the graph first");
  std::vector<int> indegree(num_vertices_, 0);
  std::vector<int> frontier;
  for (size_t v = 0; v < num_vertices_; ++v) {
    if (!active[v]) continue;
    for (int p : parents(static_cast<int>(v))) {
      if (active[p]) ++indegree[v];
    }
    if (indegree[v] == 0) frontier.push_back(static_cast<int>(v));
  }
  std::vector<std::vector<int>> levels;
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    levels.push_back(frontier);
    std::vector<int> next;
    for (int v : frontier) {
      for (int c : children(v)) {
        if (active[c] && --indegree[c] == 0) next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  return levels;
}

bool PairGraph::IsAcyclic() const {
  std::vector<bool> active(num_vertices_, true);
  auto levels = TopologicalLevels(active);
  size_t covered = 0;
  for (const auto& level : levels) covered += level.size();
  return covered == num_vertices_;
}

}  // namespace power
