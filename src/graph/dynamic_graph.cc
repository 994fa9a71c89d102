#include "src/graph/dynamic_graph.h"

#include <algorithm>
#include <cstring>

#include "src/graph/csr.h"
#include "src/util/bitops.h"

namespace bingo::graph {

namespace {
// Multiplicative hash for finder probing.
inline std::size_t HashDst(VertexId dst) {
  uint64_t x = dst;
  x *= 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(x >> 32);
}
}  // namespace

// ---------------------------------------------------------------- Finder --

bool DynamicGraph::Finder::Erase(VertexId dst, uint32_t index) {
  Entry* table = Entries();
  std::size_t pos = HashDst(dst) & Mask();
  while (table[pos].index != kEmpty) {
    if (table[pos].dst == dst && table[pos].index == index) {
      table[pos].index = kTombstone;
      --live;
      return true;
    }
    pos = (pos + 1) & Mask();
  }
  return false;
}

bool DynamicGraph::Finder::Reindex(VertexId dst, uint32_t old_index,
                                   uint32_t new_index) {
  Entry* table = Entries();
  std::size_t pos = HashDst(dst) & Mask();
  while (table[pos].index != kEmpty) {
    if (table[pos].dst == dst && table[pos].index == old_index) {
      table[pos].index = new_index;
      return true;
    }
    pos = (pos + 1) & Mask();
  }
  return false;
}

// ---------------------------------------------------------- DynamicGraph --

DynamicGraph::Finder* DynamicGraph::RebuildFinder(Finder* from,
                                                  std::size_t min_capacity) {
  std::size_t cap = 16;
  while (cap < min_capacity * 2) {
    cap <<= 1;
  }
  auto* finder = new (pool_->Allocate(Finder::BytesFor(cap)))
      Finder{static_cast<uint32_t>(cap), 0, 0, 0};
  Finder::Entry* table = finder->Entries();
  std::fill_n(table, cap, Finder::Entry{kInvalidVertex, Finder::kEmpty});
  if (from != nullptr) {
    const Finder::Entry* old = from->Entries();
    for (std::size_t i = 0; i < from->capacity; ++i) {
      const Finder::Entry& e = old[i];
      if (e.index != Finder::kEmpty && e.index != Finder::kTombstone) {
        std::size_t pos = HashDst(e.dst) & finder->Mask();
        while (table[pos].index != Finder::kEmpty) {
          pos = (pos + 1) & finder->Mask();
        }
        table[pos] = e;
        ++finder->live;
      }
    }
    finder->used = finder->live;
    pool_->Deallocate(from, from->Bytes());
  }
  return finder;
}

void DynamicGraph::FinderInsert(Slot& slot, VertexId dst, uint32_t index) {
  Finder* f = slot.finder;
  if ((f->used + 1) * 4 >= f->capacity * 3) {
    f = slot.finder = RebuildFinder(f, std::max<std::size_t>(f->live + 1, 8));
  }
  Finder::Entry* table = f->Entries();
  std::size_t pos = HashDst(dst) & f->Mask();
  while (table[pos].index != Finder::kEmpty &&
         table[pos].index != Finder::kTombstone) {
    pos = (pos + 1) & f->Mask();
  }
  if (table[pos].index == Finder::kEmpty) {
    ++f->used;
  }
  table[pos] = Finder::Entry{dst, index};
  ++f->live;
}

DynamicGraph::DynamicGraph(VertexId num_vertices,
                           std::shared_ptr<util::MemoryPool> pool)
    : pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<util::MemoryPool>()),
      slots_(*pool_, num_vertices) {}

DynamicGraph::~DynamicGraph() {
  if (pool_ == nullptr || !slots_.Owner()) {
    return;  // moved-from, or a view
  }
  for (std::size_t v = 0; v < slots_.size(); ++v) {
    FreeSlot(slots_[v]);
  }
}

void DynamicGraph::FreeSlot(const Slot& slot) {
  if (slot.edges != nullptr) {
    pool_->Deallocate(slot.edges,
                      static_cast<std::size_t>(slot.capacity) * sizeof(Edge));
  }
  if (slot.finder != nullptr) {
    pool_->Deallocate(slot.finder, slot.finder->Bytes());
  }
}

DynamicGraph::DynamicGraph(DynamicGraph&& other) noexcept
    : pool_(std::move(other.pool_)),
      slots_(std::move(other.slots_)),
      num_edges_(other.num_edges_.load(std::memory_order_relaxed)),
      next_timestamp_(other.next_timestamp_.load(std::memory_order_relaxed)),
      unmodified_(other.unmodified_.load(std::memory_order_relaxed)) {}

DynamicGraph& DynamicGraph::operator=(DynamicGraph&& other) noexcept {
  if (this != &other) {
    this->~DynamicGraph();
    new (this) DynamicGraph(std::move(other));
  }
  return *this;
}

DynamicGraph DynamicGraph::FromEdges(VertexId num_vertices,
                                     const WeightedEdgeList& edges,
                                     std::shared_ptr<util::MemoryPool> pool) {
  DynamicGraph g(num_vertices, std::move(pool));
  // Two-pass bulk load: size each adjacency block exactly once, then fill.
  std::vector<uint32_t> degree(num_vertices, 0);
  for (const WeightedEdge& e : edges) {
    ++degree[e.src];
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (degree[v] == 0) {
      continue;
    }
    Slot& s = g.slots_[v];
    s.capacity = static_cast<uint32_t>(util::CeilPow2(degree[v]));
    s.edges = static_cast<Edge*>(
        g.pool_->Allocate(static_cast<std::size_t>(s.capacity) * sizeof(Edge)));
  }
  // Bulk loads carry the caller's timestamps (logical epochs; loaders
  // default them to 0). The insertion counter resumes past the maximum so
  // counter-stamped edges always sort after the bulk load.
  uint32_t max_ts = 0;
  for (const WeightedEdge& e : edges) {
    Slot& s = g.slots_[e.src];
    s.edges[s.size++] = Edge{e.dst, e.timestamp, e.bias};
    max_ts = std::max(max_ts, e.timestamp);
  }
  g.next_timestamp_.store(edges.empty() ? 0 : max_ts + 1,
                          std::memory_order_relaxed);
  g.num_edges_.store(edges.size(), std::memory_order_relaxed);
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (g.slots_[v].size >= kFinderThreshold) {
      g.EnsureFinder(v);
    }
  }
  return g;
}

DynamicGraph DynamicGraph::FromCsr(const Csr& csr, std::span<const double> biases) {
  WeightedEdgeList edges;
  edges.reserve(csr.NumEdges());
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    const auto [begin, end] = csr.Range(v);
    for (uint64_t i = begin; i < end; ++i) {
      edges.push_back(WeightedEdge{v, csr.Dst(i), biases.empty() ? 1.0 : biases[i]});
    }
  }
  return FromEdges(csr.NumVertices(), edges);
}

void DynamicGraph::Grow(Slot& slot) {
  const uint32_t new_capacity = slot.capacity == 0 ? 4 : slot.capacity * 2;
  Edge* new_block = static_cast<Edge*>(
      pool_->Allocate(static_cast<std::size_t>(new_capacity) * sizeof(Edge)));
  if (slot.edges != nullptr) {
    std::memcpy(new_block, slot.edges, static_cast<std::size_t>(slot.size) * sizeof(Edge));
    pool_->Deallocate(slot.edges,
                      static_cast<std::size_t>(slot.capacity) * sizeof(Edge));
  }
  slot.edges = new_block;
  slot.capacity = new_capacity;
}

void DynamicGraph::EnsureFinder(VertexId v) {
  Slot& s = slots_[v];
  if (s.finder != nullptr) {
    return;
  }
  s.finder = RebuildFinder(nullptr, s.size + 1);
  for (uint32_t i = 0; i < s.size; ++i) {
    FinderInsert(s, s.edges[i].dst, i);
  }
}

uint32_t DynamicGraph::Insert(VertexId src, VertexId dst, double bias) {
  return Insert(src, dst, bias,
                next_timestamp_.fetch_add(1, std::memory_order_relaxed));
}

uint32_t DynamicGraph::Insert(VertexId src, VertexId dst, double bias,
                              uint32_t timestamp) {
  MarkModified();
  Slot& s = slots_[src];
  if (s.size == s.capacity) {
    Grow(s);
  }
  const uint32_t index = s.size;
  s.edges[s.size++] = Edge{dst, timestamp, bias};
  num_edges_.fetch_add(1, std::memory_order_relaxed);
  if (s.finder != nullptr) {
    FinderInsert(s, dst, index);
  } else if (s.size >= kFinderThreshold) {
    EnsureFinder(src);
  }
  return index;
}

DynamicGraph::SwapRemoveResult DynamicGraph::SwapRemove(VertexId src,
                                                        uint32_t index) {
  MarkModified();
  Slot& s = slots_[src];
  SwapRemoveResult result;
  result.removed = s.edges[index];
  const uint32_t last = s.size - 1;
  if (s.finder != nullptr) {
    s.finder->Erase(result.removed.dst, index);
  }
  if (index != last) {
    const Edge tail = s.edges[last];
    s.edges[index] = tail;
    result.moved = true;
    result.moved_from = last;
    result.moved_to = index;
    result.moved_edge = tail;
    if (s.finder != nullptr) {
      s.finder->Reindex(tail.dst, last, index);
    }
  }
  --s.size;
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

std::vector<uint32_t> DynamicGraph::CollectMatches(VertexId src, VertexId dst) const {
  const Slot& s = slots_[src];
  std::vector<uint32_t> matches;
  if (s.finder != nullptr) {
    const Finder& f = *s.finder;
    const Finder::Entry* table = f.Entries();
    std::size_t pos = HashDst(dst) & f.Mask();
    while (table[pos].index != Finder::kEmpty) {
      const auto& e = table[pos];
      if (e.index != Finder::kTombstone && e.dst == dst) {
        matches.push_back(e.index);
      }
      pos = (pos + 1) & f.Mask();
    }
  } else {
    for (uint32_t i = 0; i < s.size; ++i) {
      if (s.edges[i].dst == dst) {
        matches.push_back(i);
      }
    }
  }
  // Equal timestamps (epoch-stamped duplicates) break ties by neighbor
  // index so the order stays a pure function of the update sequence.
  std::sort(matches.begin(), matches.end(), [&s](uint32_t a, uint32_t b) {
    if (s.edges[a].timestamp != s.edges[b].timestamp) {
      return s.edges[a].timestamp < s.edges[b].timestamp;
    }
    return a < b;
  });
  return matches;
}

std::vector<DynamicGraph::MoveRecord> DynamicGraph::BatchSwapRemove(
    VertexId src, std::span<const uint32_t> sorted_idxs) {
  Slot& s = slots_[src];
  std::vector<MoveRecord> moves;
  const uint32_t n = static_cast<uint32_t>(sorted_idxs.size());
  if (n == 0) {
    return moves;
  }
  MarkModified();
  const uint32_t m = s.size;
  const uint32_t window_begin = m - n;

  // Drop finder entries for every victim before any slot is overwritten.
  if (s.finder != nullptr) {
    for (uint32_t idx : sorted_idxs) {
      s.finder->Erase(s.edges[idx].dst, idx);
    }
  }

  // Phase 1: survivors of the tail window [m-n, m) are the fillers; the
  // gamma victims inside the window are simply dropped (Fig 10b).
  std::vector<std::pair<uint32_t, Edge>> fillers;  // (original index, edge)
  {
    std::size_t cursor = std::lower_bound(sorted_idxs.begin(), sorted_idxs.end(),
                                          window_begin) -
                         sorted_idxs.begin();
    for (uint32_t pos = window_begin; pos < m; ++pos) {
      if (cursor < sorted_idxs.size() && sorted_idxs[cursor] == pos) {
        ++cursor;
      } else {
        fillers.emplace_back(pos, s.edges[pos]);
      }
    }
  }

  // Phase 2: the n - gamma front holes take the n - gamma guaranteed
  // survivors.
  std::size_t filler_cursor = 0;
  for (uint32_t idx : sorted_idxs) {
    if (idx >= window_begin) {
      break;
    }
    const auto& [from, edge] = fillers[filler_cursor++];
    s.edges[idx] = edge;
    if (s.finder != nullptr) {
      s.finder->Reindex(edge.dst, from, idx);
    }
    moves.push_back(MoveRecord{from, idx, edge});
  }
  s.size = m - n;
  num_edges_.fetch_sub(n, std::memory_order_relaxed);
  return moves;
}

std::optional<uint32_t> DynamicGraph::FindEarliest(VertexId src, VertexId dst) const {
  const Slot& s = slots_[src];
  uint32_t best_index = kInvalidVertex;
  uint32_t best_ts = 0xFFFFFFFFu;
  if (s.finder != nullptr) {
    const Finder& f = *s.finder;
    const Finder::Entry* table = f.Entries();
    std::size_t pos = HashDst(dst) & f.Mask();
    while (table[pos].index != Finder::kEmpty) {
      const auto& e = table[pos];
      if (e.index != Finder::kTombstone && e.dst == dst) {
        const uint32_t ts = s.edges[e.index].timestamp;
        if (ts < best_ts || (ts == best_ts && e.index < best_index)) {
          best_ts = ts;
          best_index = e.index;
        }
      }
      pos = (pos + 1) & f.Mask();
    }
  } else {
    for (uint32_t i = 0; i < s.size; ++i) {
      if (s.edges[i].dst == dst && s.edges[i].timestamp < best_ts) {
        best_ts = s.edges[i].timestamp;
        best_index = i;
      }
    }
  }
  if (best_index == kInvalidVertex) {
    return std::nullopt;
  }
  return best_index;
}

bool DynamicGraph::HasEdge(VertexId src, VertexId dst) const {
  return FindEarliest(src, dst).has_value();
}

bool DynamicGraph::IsCanonical() const {
  if (!unmodified_.load(std::memory_order_relaxed)) {
    return false;
  }
  for (std::size_t v = 0; v < slots_.size(); ++v) {
    const Slot& s = slots_[v];
    for (uint32_t i = 1; i < s.size; ++i) {
      if (s.edges[i].timestamp < s.edges[i - 1].timestamp) {
        return false;
      }
    }
  }
  return true;
}

void DynamicGraph::AddVertices(VertexId count) {
  slots_.Resize(slots_.size() + count);
}

std::size_t DynamicGraph::SlotBytes(const Slot& s) {
  std::size_t bytes = static_cast<std::size_t>(s.capacity) * sizeof(Edge);
  if (s.finder != nullptr) {
    bytes += s.finder->Bytes();
  }
  return bytes;
}

std::size_t DynamicGraph::MemoryBytes() const {
  std::size_t total = slots_.CapacityBytes();
  for (std::size_t v = 0; v < slots_.size(); ++v) {
    total += SlotBytes(slots_[v]);
  }
  return total;
}

// --------------------------------------------------------------- versions --

DynamicGraph DynamicGraph::View() const {
  DynamicGraph view;
  view.pool_ = pool_;
  view.slots_ = slots_.View();
  view.num_edges_.store(NumEdges(), std::memory_order_relaxed);
  view.next_timestamp_.store(next_timestamp_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  view.unmodified_.store(unmodified_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  return view;
}

void DynamicGraph::Retired::Append(Retired&& other) {
  pages_.insert(pages_.end(), other.pages_.begin(), other.pages_.end());
  slots_.insert(slots_.end(), other.slots_.begin(), other.slots_.end());
  bytes_ += other.bytes_;
  other = Retired{};
}

void DynamicGraph::ClonePage(VertexId v, uint64_t version, Retired& retired) {
  if (SlotTable::Page* old = slots_.ClonePage(v, version)) {
    retired.pages_.push_back(old);
    retired.bytes_ += sizeof(SlotTable::Page);
  }
}

void DynamicGraph::CloneVertex(VertexId v, Retired& retired) {
  Slot& s = slots_[v];
  const Slot old = s;
  if (old.edges == nullptr && old.finder == nullptr) {
    return;  // nothing to share
  }
  if (old.edges != nullptr) {
    const std::size_t bytes =
        static_cast<std::size_t>(old.capacity) * sizeof(Edge);
    s.edges = static_cast<Edge*>(pool_->Allocate(bytes));
    std::memcpy(s.edges, old.edges,
                static_cast<std::size_t>(old.size) * sizeof(Edge));
  }
  if (old.finder != nullptr) {
    s.finder = static_cast<Finder*>(pool_->Allocate(old.finder->Bytes()));
    std::memcpy(static_cast<void*>(s.finder), old.finder, old.finder->Bytes());
  }
  retired.slots_.push_back(old);
  retired.bytes_ += SlotBytes(old);
}

void DynamicGraph::Free(Retired& retired) {
  for (const Slot& slot : retired.slots_) {
    FreeSlot(slot);
  }
  for (SlotTable::Page* page : retired.pages_) {
    slots_.FreePage(page);
  }
  retired = Retired{};
}

}  // namespace bingo::graph
