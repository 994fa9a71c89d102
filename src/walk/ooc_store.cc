#include "src/walk/ooc_store.h"

#include <algorithm>
#include <utility>

namespace bingo::walk {

namespace {

// Per-thread staging buffer for budgeted-mode preads of one vertex's base
// edge run. Keyed by (store uid, vertex) so a repeated probe of the same
// vertex — node2vec's rejection loop — reads the file once; the base tier
// is immutable, so there is nothing to invalidate.
struct TlsEdgeBuffer {
  uint64_t store_uid = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
  std::vector<graph::Edge> edges;
};

thread_local TlsEdgeBuffer tls_edge_buffer;

std::atomic<uint64_t> next_store_uid{1};

// Exact inverse-transform draw over `edges` with precomputed `total`:
// one NextUnit() variate when a draw is possible, zero on dead ends. The
// total must be the forward sum of the span's biases (writer-accumulated
// for base runs), so the clamp to the last edge only absorbs float dust.
graph::VertexId SampleIts(std::span<const graph::Edge> edges, double total,
                          util::Rng& rng) {
  if (edges.empty() || !(total > 0)) {
    return graph::kInvalidVertex;
  }
  double draw = rng.NextUnit() * total;
  for (const graph::Edge& e : edges) {
    draw -= e.bias;
    if (draw < 0) {
      return e.dst;
    }
  }
  return edges.back().dst;
}

double SpanTotal(std::span<const graph::Edge> edges) {
  double total = 0;
  for (const graph::Edge& e : edges) {
    total += e.bias;
  }
  return total;
}

}  // namespace

std::unique_ptr<TieredStore> TieredStore::Open(const std::string& csr_path,
                                               core::BingoConfig config,
                                               TieredStoreOptions options,
                                               util::ThreadPool* pool,
                                               std::string* error) {
  auto store = std::make_unique<TieredStore>();
  store->tier_ = std::make_shared<Tier>();
  Tier& tier = *store->tier_;
  if (!graph::CsrMmap::Open(csr_path, &tier.csr, error)) {
    return nullptr;
  }
  if (config.pipeline.Active()) {
    if (error != nullptr) {
      *error = "tiered store: the out-of-core tier requires the identity "
               "bias pipeline (base biases are pre-composed into the CSR "
               "file; decay/type gates cannot re-compose tiered edges)";
    }
    return nullptr;
  }
  tier.cache = std::make_unique<core::BlockCache>(
      &tier.csr, core::BlockCacheOptions{options.memory_budget_bytes,
                                         options.verify_crc});
  tier.uid = next_store_uid.fetch_add(1, std::memory_order_relaxed);
  auto overlay = std::make_shared<core::BingoStore>(
      graph::DynamicGraph::FromEdges(tier.csr.NumVertices(),
                                     graph::WeightedEdgeList{}),
      config, pool);
  store->writer_ = overlay.get();
  store->overlay_ = std::move(overlay);
  store->promoted_ =
      PromotedSet(store->writer_->Pool(), tier.csr.NumVertices());
  store->base_live_edges_ = tier.csr.NumEdges();
  return store;
}

std::unique_ptr<const TieredStore> TieredStore::View() const {
  auto view = std::make_unique<TieredStore>();
  view->tier_ = tier_;
  view->overlay_ = overlay_->View();
  view->promoted_ = promoted_.View();
  view->base_live_edges_ = base_live_edges_;
  view->promoted_count_ = promoted_count_;
  return view;
}

std::span<const graph::Edge> TieredStore::BaseEdgesFor(
    graph::VertexId v) const {
  const uint64_t degree = tier_->csr.Degree(v);
  if (degree == 0) {
    return {};
  }
  const uint32_t b = tier_->csr.BlockOfVertex(v);
  const graph::Edge* blk = tier_->cache->Resident(b);
  if (blk == nullptr && !tier_->cache->Budgeted()) {
    std::string err;
    if (tier_->cache->Load(b, &err)) {
      blk = tier_->cache->Resident(b);
    }
  }
  const uint64_t first = tier_->csr.EdgeOffset(v);
  if (blk != nullptr) {
    return {blk + (first - tier_->csr.BlockFirstEdge(b)),
            static_cast<std::size_t>(degree)};
  }
  TlsEdgeBuffer& buf = tls_edge_buffer;
  if (buf.store_uid != tier_->uid || buf.vertex != v) {
    buf.edges.resize(static_cast<std::size_t>(degree));
    if (!tier_->csr.ReadEdges(first, degree, buf.edges.data())) {
      tier_->io_failed.store(true, std::memory_order_relaxed);
      buf.vertex = graph::kInvalidVertex;
      return {};
    }
    buf.store_uid = tier_->uid;
    buf.vertex = v;
  }
  return {buf.edges.data(), static_cast<std::size_t>(degree)};
}

graph::VertexId TieredStore::SampleNeighbor(graph::VertexId v,
                                            util::Rng& rng) const {
  if (Promoted(v)) {
    const auto adj = overlay_->NeighborsOf(v);
    return SampleIts(adj, SpanTotal(adj), rng);
  }
  return SampleIts(BaseEdgesFor(v), tier_->csr.TotalBias(v), rng);
}

void TieredStore::SampleNeighborBatch(graph::VertexId v,
                                      util::Rng* const* rngs, std::size_t n,
                                      graph::VertexId* out) const {
  std::span<const graph::Edge> adj;
  double total = 0;
  if (Promoted(v)) {
    adj = overlay_->NeighborsOf(v);
    total = SpanTotal(adj);
  } else {
    adj = BaseEdgesFor(v);
    total = tier_->csr.TotalBias(v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = SampleIts(adj, total, *rngs[i]);
  }
}

void TieredStore::PrefetchVertex(graph::VertexId v) const {
  if (Promoted(v)) {
    overlay_->PrefetchVertex(v);
  }
}

bool TieredStore::HasEdge(graph::VertexId src, graph::VertexId dst) const {
  if (Promoted(src)) {
    return overlay_->HasEdge(src, dst);
  }
  const uint64_t degree = tier_->csr.Degree(src);
  if (degree == 0) {
    return false;
  }
  const uint32_t b = tier_->csr.BlockOfVertex(src);
  const graph::Edge* blk = tier_->cache->Resident(b);
  if (blk == nullptr && !tier_->cache->Budgeted()) {
    std::string err;
    if (tier_->cache->Load(b, &err)) {
      blk = tier_->cache->Resident(b);
    }
  }
  const uint64_t first = tier_->csr.EdgeOffset(src);
  if (blk != nullptr) {
    const graph::Edge* run = blk + (first - tier_->csr.BlockFirstEdge(b));
    for (uint64_t i = 0; i < degree; ++i) {
      if (run[i].dst == dst) {
        return true;
      }
    }
    return false;
  }
  // Chunked pread scan on a fixed stack buffer — deliberately NOT the
  // per-thread vertex buffer, which the caller may be holding as a
  // NeighborsOf span (node2vec probes prev's adjacency mid-scan of cur's).
  graph::Edge chunk[256];
  for (uint64_t i = 0; i < degree; i += 256) {
    const uint64_t take = std::min<uint64_t>(256, degree - i);
    if (!tier_->csr.ReadEdges(first + i, take, chunk)) {
      tier_->io_failed.store(true, std::memory_order_relaxed);
      return false;
    }
    for (uint64_t j = 0; j < take; ++j) {
      if (chunk[j].dst == dst) {
        return true;
      }
    }
  }
  return false;
}

std::span<const graph::Edge> TieredStore::NeighborsOf(
    graph::VertexId v) const {
  if (Promoted(v)) {
    return overlay_->NeighborsOf(v);
  }
  return BaseEdgesFor(v);
}

core::BatchResult TieredStore::ApplyBatch(const graph::UpdateList& updates,
                                          util::ThreadPool* pool) {
  // First edge update touching a base vertex promotes it: fold its base
  // run into the overlay as synthetic inserts ahead of the real updates,
  // in ONE overlay batch, so the duplicate-deletion rule sees base edges
  // (older timestamps, canonical order) exactly as the in-memory store
  // would.
  std::vector<graph::VertexId> to_promote;
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      continue;  // no edge; passes through (identity pipeline => no-op)
    }
    if (u.src < tier_->csr.NumVertices() && promoted_[u.src] == 0) {
      to_promote.push_back(u.src);
    }
  }
  std::sort(to_promote.begin(), to_promote.end());
  to_promote.erase(std::unique(to_promote.begin(), to_promote.end()),
                   to_promote.end());

  uint64_t synthetic = 0;
  graph::UpdateList combined;
  std::vector<graph::Edge> run;
  for (const graph::VertexId v : to_promote) {
    const uint64_t degree = tier_->csr.Degree(v);
    run.resize(static_cast<std::size_t>(degree));
    if (degree > 0 &&
        !tier_->csr.ReadEdges(tier_->csr.EdgeOffset(v), degree, run.data())) {
      tier_->io_failed.store(true, std::memory_order_relaxed);
      return core::BatchResult{};  // nothing applied; CheckInvariants flags
    }
    for (const graph::Edge& e : run) {
      graph::Update u;
      u.kind = graph::Update::Kind::kInsert;
      u.src = v;
      u.dst = e.dst;
      u.bias = e.bias;
      u.timestamp = e.timestamp;
      combined.push_back(u);
    }
    synthetic += degree;
  }
  core::BatchResult result;
  if (combined.empty()) {
    result = writer_->ApplyBatch(updates, pool);
  } else {
    combined.insert(combined.end(), updates.begin(), updates.end());
    result = writer_->ApplyBatch(combined, pool);
    result.inserted -= synthetic;
  }
  // The promoted set is copy-on-write too: the pages this batch changes are
  // copied, and the originals retire with the overlay version just built.
  const uint64_t version = writer_->Version();
  std::vector<PromotedSet::Page*> superseded;
  for (const graph::VertexId v : to_promote) {
    if (PromotedSet::Page* old = promoted_.ClonePage(v, version)) {
      superseded.push_back(old);
    }
    promoted_[v] = 1;
    base_live_edges_ -= tier_->csr.Degree(v);
  }
  promoted_count_ += to_promote.size();
  if (!superseded.empty()) {
    writer_->Reclaimer().Retire(
        version, superseded.size() * sizeof(PromotedSet::Page),
        [pool = &writer_->Pool(), pages = std::move(superseded)] {
          for (PromotedSet::Page* page : pages) {
            pool->Deallocate(page, sizeof(PromotedSet::Page));
          }
        });
  }
  return result;
}

bool TieredStore::PrepareBlock(uint32_t b) const {
  if (b >= tier_->csr.NumBlocks()) {
    return true;  // the virtual RAM block is always resident
  }
  std::string err;
  if (!tier_->cache->Load(b, &err)) {
    tier_->io_failed.store(true, std::memory_order_relaxed);
    return false;
  }
  tier_->cache->BeginUse(b);
  return true;
}

void TieredStore::FinishBlockPass(uint32_t b) const {
  if (b < tier_->csr.NumBlocks()) {
    tier_->cache->EndUse(b);
  }
}

void TieredStore::SetParked(uint32_t b, uint64_t walkers) const {
  if (b < tier_->csr.NumBlocks()) {
    tier_->cache->SetParked(b, walkers);
  }
}

core::StoreMemoryStats TieredStore::MemoryStats() const {
  core::StoreMemoryStats stats = overlay_->MemoryStats();
  stats.graph_bytes += tier_->csr.IndexBytes() + tier_->cache->Stats().resident_bytes;
  return stats;
}

std::string TieredStore::CheckInvariants() const {
  std::string err = overlay_->CheckInvariants();
  if (!err.empty()) {
    return err;
  }
  if (tier_->io_failed.load(std::memory_order_relaxed)) {
    return "tiered store: a CSR read or map failed during sampling/apply";
  }
  err = tier_->cache->CheckAccounting();
  if (!err.empty()) {
    return err;
  }
  uint64_t live = 0;
  for (graph::VertexId v = 0; v < tier_->csr.NumVertices(); ++v) {
    if (promoted_[v] == 0) {
      live += tier_->csr.Degree(v);
    }
  }
  if (live != base_live_edges_) {
    return "tiered store: base live-edge accounting diverged from the "
           "promotion bitmap";
  }
  return "";
}

}  // namespace bingo::walk
