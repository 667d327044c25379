#include "graph/coloring.h"

#include <atomic>
#include <bit>
#include <utility>

#include "util/check.h"

namespace power {
namespace {

// The only cross-thread state in this TU: a process-wide id generator so
// concurrently constructed ColoringStates (multi-tenant serving, tests) get
// distinct ids. fetch_add is the entire protocol; everything else in
// ColoringState is confined to its owning serving thread (see the thread
// compatibility note in coloring.h).
std::atomic<uint64_t> g_next_state_id{1};

}  // namespace

const char* ColorName(Color c) {
  switch (c) {
    case Color::kUncolored:
      return "uncolored";
    case Color::kGreen:
      return "green";
    case Color::kRed:
      return "red";
    case Color::kBlue:
      return "blue";
  }
  return "?";
}

ColoringState::ColoringState(const PairGraph* graph)
    : graph_(graph),
      state_id_(g_next_state_id.fetch_add(1, std::memory_order_relaxed)),
      color_(graph->num_vertices(), Color::kUncolored),
      asked_(graph->num_vertices(), false),
      green_votes_(graph->num_vertices(), 0),
      red_votes_(graph->num_vertices(), 0),
      uncolored_((graph->num_vertices() + 63) / 64, ~uint64_t{0}),
      visit_mark_(graph->num_vertices(), 0) {
  POWER_CHECK_MSG(graph->frozen() || graph->num_vertices() == 0,
                  "ColoringState requires a frozen graph");
  const size_t n = graph->num_vertices();
  counts_[ColorIndex(Color::kUncolored)] = n;
  if (n % 64 != 0 && !uncolored_.empty()) {
    uncolored_.back() = (uint64_t{1} << (n % 64)) - 1;  // mask the tail
  }
}

Color ColoringState::color(int v) const {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < color_.size());
  return color_[v];
}

bool ColoringState::asked(int v) const {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < asked_.size());
  return asked_[v];
}

bool ColoringState::IsUncolored(int v) const {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < color_.size());
  return color_[v] == Color::kUncolored;
}

std::vector<int> ColoringState::UncoloredVertices() const {
  std::vector<int> out;
  out.reserve(num_uncolored());
  for (size_t w = 0; w < uncolored_.size(); ++w) {
    uint64_t bits = uncolored_[w];
    while (bits != 0) {
      int bit = std::countr_zero(bits);
      out.push_back(static_cast<int>(w * 64) + bit);
      bits &= bits - 1;
    }
  }
  return out;
}

void ColoringState::FillUncoloredMask(std::vector<bool>* mask) const {
  mask->assign(color_.size(), false);
  for (size_t w = 0; w < uncolored_.size(); ++w) {
    uint64_t bits = uncolored_[w];
    while (bits != 0) {
      int bit = std::countr_zero(bits);
      (*mask)[w * 64 + static_cast<size_t>(bit)] = true;
      bits &= bits - 1;
    }
  }
}

void ColoringState::SetColor(int v, Color c) {
  Color old = color_[v];
  if (old == c) return;
  --counts_[ColorIndex(old)];
  ++counts_[ColorIndex(c)];
  if (old == Color::kUncolored) {
    uncolored_[static_cast<size_t>(v) / 64] &=
        ~(uint64_t{1} << (static_cast<size_t>(v) % 64));
  } else if (c == Color::kUncolored) {
    uncolored_[static_cast<size_t>(v) / 64] |=
        uint64_t{1} << (static_cast<size_t>(v) % 64);
  }
  color_[v] = c;
  journal_.push_back(v);
}

void ColoringState::Recompute(int v) {
  // Asked vertices keep their color; only deduced colors float with the vote
  // balance.
  if (asked_[v]) return;
  if (green_votes_[v] > red_votes_[v]) {
    SetColor(v, Color::kGreen);
  } else if (red_votes_[v] > green_votes_[v]) {
    SetColor(v, Color::kRed);
  } else {
    // No votes, or a conflict tie (§5.3.1): the vertex stays askable.
    SetColor(v, Color::kUncolored);
  }
}

void ColoringState::PropagateVotes(int v, bool match) {
  ++visit_epoch_;
  visit_mark_[v] = visit_epoch_;
  bfs_queue_.clear();
  bfs_queue_.push_back(v);
  size_t head = 0;
  while (head < bfs_queue_.size()) {
    int u = bfs_queue_[head++];
    for (int w : match ? graph_->parents(u) : graph_->children(u)) {
      if (visit_mark_[w] == visit_epoch_) continue;
      visit_mark_[w] = visit_epoch_;
      if (match) {
        ++green_votes_[w];
      } else {
        ++red_votes_[w];
      }
      Recompute(w);
      bfs_queue_.push_back(w);
    }
  }
}

void ColoringState::ApplyAnswer(int v, bool match, bool propagate) {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < color_.size());
  asked_[v] = true;
  SetColor(v, match ? Color::kGreen : Color::kRed);
  if (!propagate) return;
  PropagateVotes(v, match);
}

void ColoringState::MarkBlue(int v) {
  POWER_CHECK(v >= 0 && static_cast<size_t>(v) < color_.size());
  asked_[v] = true;
  SetColor(v, Color::kBlue);
}

void ColoringState::SaveState(SnapshotWriter* w) const {
  const size_t n = color_.size();
  w->U64(n);
  std::vector<uint8_t> bytes(n);
  for (size_t v = 0; v < n; ++v) {
    bytes[v] = static_cast<uint8_t>(color_[v]);
  }
  w->VecU8(bytes);
  for (size_t v = 0; v < n; ++v) bytes[v] = asked_[v] ? 1 : 0;
  w->VecU8(bytes);
  w->VecI32(green_votes_);
  w->VecI32(red_votes_);
  w->VecI32(journal_);
}

bool ColoringState::RestoreState(SnapshotReader* r) {
  const size_t n = color_.size();
  if (r->U64() != n) return false;
  std::vector<uint8_t> colors = r->VecU8();
  std::vector<uint8_t> asked = r->VecU8();
  std::vector<int> green = r->VecI32();
  std::vector<int> red = r->VecI32();
  std::vector<int> journal = r->VecI32();
  if (!r->ok() || colors.size() != n || asked.size() != n ||
      green.size() != n || red.size() != n) {
    return false;
  }
  for (uint8_t c : colors) {
    if (c > static_cast<uint8_t>(Color::kBlue)) return false;
  }
  for (int v : journal) {
    if (v < 0 || static_cast<size_t>(v) >= n) return false;
  }
  for (size_t v = 0; v < n; ++v) {
    color_[v] = static_cast<Color>(colors[v]);
    asked_[v] = asked[v] != 0;
  }
  green_votes_ = std::move(green);
  red_votes_ = std::move(red);
  journal_ = std::move(journal);
  // Rebuild the derived counters and uncolored bitset from the colors.
  counts_[0] = counts_[1] = counts_[2] = counts_[3] = 0;
  uncolored_.assign((n + 63) / 64, 0);
  for (size_t v = 0; v < n; ++v) {
    ++counts_[ColorIndex(color_[v])];
    if (color_[v] == Color::kUncolored) {
      uncolored_[v / 64] |= uint64_t{1} << (v % 64);
    }
  }
  return true;
}

}  // namespace power
