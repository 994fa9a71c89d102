#include "src/core/bingo_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "src/core/batch.h"
#include "src/util/sync.h"

namespace bingo::core {

BingoStore::BingoStore(graph::DynamicGraph graph, BingoConfig config,
                       util::ThreadPool* pool)
    : own_reclaimer_(std::make_unique<util::EpochReclaimer>()),
      reclaimer_(own_reclaimer_.get()),
      config_(config),
      graph_(std::move(graph)),
      samplers_(graph_.Pool(), graph_.NumVertices()) {
  config_.conversion_stats = &conversion_stats_;
  config_.pool = &graph_.Pool();
  const auto build_range = [this](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      samplers_[v].SetConfig(&config_);
      samplers_[v].Build(graph_.Neighbors(static_cast<graph::VertexId>(v)));
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(0, samplers_.size(), build_range, 1024);
  } else {
    build_range(0, samplers_.size());
  }
}

BingoStore::BingoStore(ViewTag, const BingoStore& origin)
    : reclaimer_(origin.reclaimer_),
      pinned_(origin.reclaimer_),
      config_(origin.config_),
      graph_(origin.graph_.View()),
      samplers_(origin.samplers_.View()),
      version_(origin.version_) {
  pinned_->Pin(version_);
}

BingoStore::~BingoStore() {
  if (pinned_ != nullptr) {
    pinned_->Unpin(version_);  // a view owns nothing
    return;
  }
  reclaimer_->FreeAll();
  for (std::size_t v = 0; v < samplers_.size(); ++v) {
    samplers_[v].Release();
  }
}

std::unique_ptr<const BingoStore> BingoStore::View() const {
  return std::unique_ptr<const BingoStore>(new BingoStore(ViewTag{}, *this));
}

template <typename Fn>
void BingoStore::WriteVertices(std::span<const graph::VertexId> vertices,
                               util::ThreadPool* pool, std::size_t grain,
                               Fn&& write) {
  const uint64_t version = version_ + 1;
  if (reclaimer_->Views() == 0) {
    // No view reads any version, so nothing needs the originals: the
    // vertices change in place. (Views are only taken between mutations.)
    const auto run_in_place = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        samplers_[vertices[i]].SetConfig(&config_);
      }
      write(lo, hi);
    };
    if (pool != nullptr) {
      pool->ParallelForChunked(0, vertices.size(), run_in_place, grain);
    } else {
      run_in_place(0, vertices.size());
    }
    version_ = version;
    return;
  }
  // Pages first, serially: vertices that share a page are written in
  // parallel below.
  graph::DynamicGraph::Retired graph_retired;
  std::vector<SamplerTable::Page*> sampler_pages;
  for (const graph::VertexId v : vertices) {
    graph_.ClonePage(v, version, graph_retired);
    if (SamplerTable::Page* old = samplers_.ClonePage(v, version)) {
      sampler_pages.push_back(old);
    }
  }
  util::Mutex retired_mutex;
  std::vector<VertexSampler> old_samplers;
  std::size_t sampler_bytes = sampler_pages.size() * sizeof(SamplerTable::Page);
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    graph::DynamicGraph::Retired local_graph;
    std::vector<VertexSampler> local_samplers;
    std::size_t local_bytes = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const graph::VertexId v = vertices[i];
      graph_.CloneVertex(v, local_graph);
      VertexSampler& sampler = samplers_[v];
      const VertexSampler old = sampler;
      local_bytes += old.MemoryBreakdown().Total();
      local_samplers.push_back(old);
      sampler = old.Clone();
      sampler.SetConfig(&config_);
    }
    write(lo, hi);
    util::MutexLock lock(retired_mutex);
    graph_retired.Append(std::move(local_graph));
    old_samplers.insert(old_samplers.end(), local_samplers.begin(),
                        local_samplers.end());
    sampler_bytes += local_bytes;
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(0, vertices.size(), run_range, grain);
  } else {
    run_range(0, vertices.size());
  }
  version_ = version;
  const std::size_t bytes = graph_retired.Bytes() + sampler_bytes;
  reclaimer_->Retire(
      version, bytes,
      [this, graph = std::move(graph_retired),
       pages = std::move(sampler_pages),
       samplers = std::move(old_samplers)]() mutable {
        graph_.Free(graph);
        for (VertexSampler& sampler : samplers) {
          sampler.Release();
        }
        for (SamplerTable::Page* page : pages) {
          samplers_.FreePage(page);
        }
      });
}

void BingoStore::StreamingInsert(graph::VertexId src, graph::VertexId dst,
                                 double bias) {
  // An insert may reference vertices the store has never seen; grow the
  // vertex set so both endpoints are materialized (walks sample dst next).
  const graph::VertexId needed = std::max(src, dst);
  if (needed >= NumVertices()) {
    AddVertices(needed + 1 - NumVertices());
  }
  WriteVertices({&src, 1}, nullptr, 1, [&](std::size_t, std::size_t) {
    const uint32_t idx = graph_.Insert(src, dst, bias);
    VertexSampler& sampler = samplers_[src];
    sampler.InsertEdge(graph_.Neighbors(src), idx);
    sampler.FinishUpdate(graph_.Neighbors(src));
  });
}

void BingoStore::StreamingInsert(graph::VertexId src, graph::VertexId dst,
                                 double bias, uint32_t timestamp) {
  const graph::VertexId needed = std::max(src, dst);
  if (needed >= NumVertices()) {
    AddVertices(needed + 1 - NumVertices());
  }
  const double effective = config_.pipeline.Compose(src, dst, bias, timestamp,
                                                    config_.logical_epoch);
  WriteVertices({&src, 1}, nullptr, 1, [&](std::size_t, std::size_t) {
    const uint32_t idx = graph_.Insert(src, dst, effective, timestamp);
    VertexSampler& sampler = samplers_[src];
    sampler.InsertEdge(graph_.Neighbors(src), idx);
    sampler.FinishUpdate(graph_.Neighbors(src));
  });
}

bool BingoStore::StreamingDelete(graph::VertexId src, graph::VertexId dst) {
  if (src >= NumVertices()) {
    return false;  // unmaterialized vertex owns no edges
  }
  const auto idx = graph_.FindEarliest(src, dst);
  if (!idx.has_value()) {
    return false;
  }
  WriteVertices({&src, 1}, nullptr, 1, [&](std::size_t, std::size_t) {
    VertexSampler& sampler = samplers_[src];
    sampler.RemoveEdge(graph_.Neighbors(src), *idx);
    const auto result = graph_.SwapRemove(src, *idx);
    if (result.moved) {
      sampler.RenameIndex(result.moved_edge.bias, result.moved_from,
                          result.moved_to);
    }
    sampler.FinishUpdate(graph_.Neighbors(src));
  });
  return true;
}

bool BingoStore::UpdateBias(graph::VertexId src, graph::VertexId dst,
                            double bias) {
  if (src >= NumVertices()) {
    return false;
  }
  const auto idx = graph_.FindEarliest(src, dst);
  if (!idx.has_value()) {
    return false;
  }
  WriteVertices({&src, 1}, nullptr, 1, [&](std::size_t, std::size_t) {
    VertexSampler& sampler = samplers_[src];
    // Withdraw the old sub-biases, rewrite the stored bias in place (the
    // neighbor index is unchanged, so no swap or rename is needed), then
    // re-split under the new value.
    sampler.RemoveEdge(graph_.Neighbors(src), *idx);
    graph_.SetBias(src, *idx, bias);
    sampler.InsertEdge(graph_.Neighbors(src), *idx);
    sampler.FinishUpdate(graph_.Neighbors(src));
  });
  return true;
}

uint32_t BingoStore::DeleteVertexOutEdges(graph::VertexId v) {
  if (v >= NumVertices()) {
    return 0;
  }
  const uint32_t degree = graph_.Degree(v);
  if (degree == 0) {
    return 0;
  }
  WriteVertices({&v, 1}, nullptr, 1, [&](std::size_t, std::size_t) {
    std::vector<uint32_t> all(degree);
    for (uint32_t i = 0; i < degree; ++i) {
      all[i] = i;
    }
    VertexSampler& sampler = samplers_[v];
    sampler.RemoveEdgesBatch(graph_.Neighbors(v), all);
    graph_.BatchSwapRemove(v, all);  // removes everything: no moves result
    sampler.FinishUpdate(graph_.Neighbors(v));
  });
  return degree;
}

void BingoStore::AddVertices(graph::VertexId count) {
  // New vertices start isolated: a null sampler handle, an empty slot. A
  // writer sets the handle's config when it first copies the vertex.
  graph_.AddVertices(count);
  samplers_.Resize(graph_.NumVertices());
}

BatchResult BingoStore::ApplyUpdatesStreaming(const graph::UpdateList& updates) {
  BatchResult result;
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      AdvanceEpoch(u.timestamp);
    } else if (u.kind == graph::Update::Kind::kInsert) {
      StreamingInsert(u.src, u.dst, u.bias, u.timestamp);
      ++result.inserted;
    } else if (StreamingDelete(u.src, u.dst)) {
      ++result.deleted;
    } else {
      ++result.skipped_deletes;
    }
  }
  return result;
}

void BingoStore::AdvanceEpoch(uint32_t new_epoch, util::ThreadPool* pool) {
  const uint32_t old_epoch = config_.logical_epoch;
  if (new_epoch <= old_epoch) {
    return;  // logical time is monotone; replays of old ticks are no-ops
  }
  config_.logical_epoch = new_epoch;
  if (!config_.pipeline.DecayActive()) {
    return;  // gate-only pipelines are age-independent
  }
  // Incremental rescale: each stored (already-composed) bias picks up
  // decay^(age delta), via the same remove/rewrite/re-split sequence as
  // UpdateBias so the radix groups re-bucket exactly once per edge, then
  // one FinishUpdate per touched vertex. The multiply sequence is a pure
  // function of (epochs, timestamps), so every store and every WAL replay
  // produces bit-identical biases.
  std::vector<graph::VertexId> with_edges;
  for (graph::VertexId v = 0; v < NumVertices(); ++v) {
    if (graph_.Degree(v) > 0) {
      with_edges.push_back(v);
    }
  }
  WriteVertices(with_edges, pool, 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const graph::VertexId v = with_edges[i];
      const std::span<const graph::Edge> adj = graph_.Neighbors(v);
      VertexSampler& sampler = samplers_[v];
      bool touched = false;
      for (uint32_t e = 0; e < adj.size(); ++e) {
        const double factor = config_.pipeline.RescaleFactor(
            old_epoch, new_epoch, adj[e].timestamp);
        if (factor == 1.0) {
          continue;  // at the horizon floor (or future-stamped)
        }
        const double rescaled = adj[e].bias * factor;
        sampler.RemoveEdge(adj, e);
        graph_.SetBias(v, e, rescaled);
        sampler.InsertEdge(adj, e);
        touched = true;
      }
      if (touched) {
        sampler.FinishUpdate(adj);
      }
    }
  });
}

void BingoStore::ApplyVertexBatch(graph::VertexId v,
                                  const graph::UpdateList& updates,
                                  std::span<const uint32_t> update_indices,
                                  BatchResult& result) {
  VertexSampler& sampler = samplers_[v];

  // Fast path: a vertex with a single request degenerates to the streaming
  // op (one mutation + one rebuild), with none of the batch bookkeeping.
  if (update_indices.size() == 1) {
    const graph::Update& u = updates[update_indices[0]];
    if (u.kind == graph::Update::Kind::kInsert) {
      const uint32_t idx = graph_.Insert(
          v, u.dst,
          config_.pipeline.Compose(v, u.dst, u.bias, u.timestamp,
                                   config_.logical_epoch),
          u.timestamp);
      sampler.InsertEdge(graph_.Neighbors(v), idx);
      ++result.inserted;
    } else {
      const auto idx = graph_.FindEarliest(v, u.dst);
      if (!idx.has_value()) {
        ++result.skipped_deletes;
        sampler.FinishUpdate(graph_.Neighbors(v));
        return;
      }
      sampler.RemoveEdge(graph_.Neighbors(v), *idx);
      const auto removed = graph_.SwapRemove(v, *idx);
      if (removed.moved) {
        sampler.RenameIndex(removed.moved_edge.bias, removed.moved_from,
                            removed.moved_to);
      }
      ++result.deleted;
    }
    sampler.FinishUpdate(graph_.Neighbors(v));
    return;
  }

  // Step (i): insertions, appended in stream order (timestamps preserve the
  // duplicate-edge deletion rule).
  std::size_t num_deletes = 0;
  for (const uint32_t i : update_indices) {
    const graph::Update& u = updates[i];
    if (u.kind == graph::Update::Kind::kInsert) {
      const uint32_t idx = graph_.Insert(
          v, u.dst,
          config_.pipeline.Compose(v, u.dst, u.bias, u.timestamp,
                                   config_.logical_epoch),
          u.timestamp);
      sampler.InsertEdge(graph_.Neighbors(v), idx);
      ++result.inserted;
    } else {
      ++num_deletes;
    }
  }

  // Step (ii): deletions. Resolve each requested dst to the earliest
  // surviving unmarked copy, then remove all victims with the two-phase
  // delete-and-swap.
  if (num_deletes > 0) {
    // Per-distinct-dst candidate cursors (earliest-first order).
    std::vector<std::pair<graph::VertexId, std::pair<std::vector<uint32_t>, std::size_t>>>
        candidates;
    std::vector<uint32_t> marked;
    marked.reserve(num_deletes);
    for (const uint32_t i : update_indices) {
      const graph::Update& u = updates[i];
      if (u.kind != graph::Update::Kind::kDelete) {
        continue;
      }
      const graph::VertexId dst = u.dst;
      auto it = std::find_if(candidates.begin(), candidates.end(),
                             [dst](const auto& c) { return c.first == dst; });
      if (it == candidates.end()) {
        candidates.emplace_back(dst,
                                std::make_pair(graph_.CollectMatches(v, dst), 0u));
        it = candidates.end() - 1;
      }
      auto& [list, cursor] = it->second;
      if (cursor < list.size()) {
        marked.push_back(list[cursor++]);
        ++result.deleted;
      } else {
        ++result.skipped_deletes;
      }
    }
    if (!marked.empty()) {
      std::sort(marked.begin(), marked.end());
      sampler.RemoveEdgesBatch(graph_.Neighbors(v), marked);
      const auto moves = graph_.BatchSwapRemove(v, marked);
      for (const auto& move : moves) {
        sampler.RenameIndex(move.edge.bias, move.from, move.to);
      }
    }
  }

  // Step (iii): one rebuild — group reclassification plus a single
  // inter-group alias reconstruction.
  sampler.FinishUpdate(graph_.Neighbors(v));
}

BatchResult BingoStore::ApplyBatch(const graph::UpdateList& updates,
                                   util::ThreadPool* pool) {
  // Clock ticks apply FIRST: the remaining updates in this batch compose
  // their biases at the new epoch, matching the streaming path's semantics
  // whichever shard slice the batch arrives in.
  uint32_t advance_to = 0;
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      advance_to = std::max(advance_to, u.timestamp);
    }
  }
  if (advance_to != 0) {
    AdvanceEpoch(advance_to, pool);
  }
  // Grow the vertex set up front so every referenced id is materialized
  // before the parallel per-vertex phase touches samplers_. Live stores and
  // WAL replay apply identical batches, so growth is deterministic and
  // recovery-safe. Deletes grow too: harmless (the delete then skips), and
  // uniform growth keeps the vertex counts of shard stores comparable.
  graph::VertexId max_id = 0;
  bool any_edge_update = false;
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      continue;  // carries no edge; src/dst are kInvalidVertex sentinels
    }
    max_id = std::max({max_id, u.src, u.dst});
    any_edge_update = true;
  }
  if (any_edge_update && max_id >= NumVertices()) {
    AddVertices(max_id + 1 - NumVertices());
  }
  const GroupedUpdates grouped = GroupUpdatesByVertex(updates);
  std::vector<graph::VertexId> touched(grouped.ranges.size());
  for (std::size_t i = 0; i < touched.size(); ++i) {
    touched[i] = grouped.ranges[i].vertex;
  }

  std::atomic<uint64_t> inserted{0};
  std::atomic<uint64_t> deleted{0};
  std::atomic<uint64_t> skipped{0};
  WriteVertices(touched, pool, 64, [&](std::size_t lo, std::size_t hi) {
    BatchResult local;
    for (std::size_t i = lo; i < hi; ++i) {
      const GroupedUpdates::Range& r = grouped.ranges[i];
      ApplyVertexBatch(r.vertex, updates,
                       std::span<const uint32_t>(grouped.order)
                           .subspan(r.begin, r.end - r.begin),
                       local);
    }
    inserted.fetch_add(local.inserted, std::memory_order_relaxed);
    deleted.fetch_add(local.deleted, std::memory_order_relaxed);
    skipped.fetch_add(local.skipped_deletes, std::memory_order_relaxed);
  });
  return BatchResult{inserted.load(), deleted.load(), skipped.load()};
}

StoreMemoryStats BingoStore::MemoryStats() const {
  StoreMemoryStats stats;
  stats.graph_bytes = graph_.MemoryBytes();
  // Fixed: the handle pages. Dynamic: each vertex's block and payloads,
  // group and decimal headers included.
  stats.sampler_fixed_bytes = samplers_.CapacityBytes();
  for (std::size_t v = 0; v < samplers_.size(); ++v) {
    stats.sampler_dynamic_bytes += samplers_[v].MemoryBreakdown().Total();
  }
  stats.retired_bytes = reclaimer_->RetiredBytes();
  return stats;
}

std::array<uint64_t, 5> BingoStore::CountGroupKinds() const {
  std::array<uint64_t, 5> counts{};
  for (std::size_t v = 0; v < samplers_.size(); ++v) {
    samplers_[v].CountGroupKinds(counts);
  }
  return counts;
}

std::string BingoStore::CheckInvariants() const {
  uint64_t total_edges = 0;
  for (graph::VertexId v = 0; v < graph_.NumVertices(); ++v) {
    total_edges += graph_.Degree(v);
    const std::string err = samplers_[v].CheckInvariants(graph_.Neighbors(v));
    if (!err.empty()) {
      return "vertex " + std::to_string(v) + ": " + err;
    }
  }
  if (total_edges != graph_.NumEdges()) {
    return "graph edge count out of sync";
  }
  return {};
}

}  // namespace bingo::core
