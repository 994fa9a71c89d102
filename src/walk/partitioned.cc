#include "src/walk/partitioned.h"

#include <algorithm>
#include <atomic>

#include "src/walk/store.h"

namespace bingo::walk {

static_assert(WalkStore<PartitionedBingoStore> &&
              AdjacencyStore<PartitionedBingoStore>);

PartitionedBingoStore::PartitionedBingoStore(const graph::WeightedEdgeList& edges,
                                             graph::VertexId num_vertices,
                                             int num_shards,
                                             core::BingoConfig config,
                                             util::ThreadPool* pool)
    : num_vertices_(num_vertices) {
  std::vector<graph::WeightedEdgeList> per_shard(num_shards);
  for (const graph::WeightedEdge& e : edges) {
    per_shard[e.src % num_shards].push_back(e);
  }
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<core::BingoStore>(
        graph::DynamicGraph::FromEdges(num_vertices, per_shard[s]), config,
        pool));
  }
}

core::BatchResult PartitionedBingoStore::ApplyBatch(
    const graph::UpdateList& updates, util::ThreadPool* pool) {
  std::vector<graph::UpdateList> per_shard(shards_.size());
  for (const graph::Update& u : updates) {
    if (u.kind == graph::Update::Kind::kAdvanceTime) {
      // The clock tick is global state: broadcast so every shard advances
      // its epoch (src is kInvalidVertex and must not route).
      for (auto& slice : per_shard) {
        slice.push_back(u);
      }
      continue;
    }
    per_shard[ShardOf(u.src)].push_back(u);
  }
  std::atomic<uint64_t> inserted{0};
  std::atomic<uint64_t> deleted{0};
  std::atomic<uint64_t> skipped{0};
  const auto run_shard = [&](std::size_t s) {
    // Shards are independent; each applies its slice without inner
    // parallelism (the outer loop is the parallel dimension).
    const core::BatchResult r = shards_[s]->ApplyBatch(per_shard[s], nullptr);
    inserted.fetch_add(r.inserted, std::memory_order_relaxed);
    deleted.fetch_add(r.deleted, std::memory_order_relaxed);
    skipped.fetch_add(r.skipped_deletes, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, shards_.size(), run_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      run_shard(s);
    }
  }
  // A slice referencing brand-new vertex ids grows its owning shard store
  // (BingoStore::ApplyBatch materializes every referenced id); mirror the
  // widest shard so the composite reports the same vertex count as the
  // whole-graph store would after the same batch.
  for (const auto& shard : shards_) {
    num_vertices_ = std::max(num_vertices_, shard->NumVertices());
  }
  return core::BatchResult{inserted.load(), deleted.load(), skipped.load()};
}

core::StoreMemoryStats PartitionedBingoStore::MemoryStats() const {
  core::StoreMemoryStats total;
  for (const auto& shard : shards_) {
    total += shard->MemoryStats();
  }
  return total;
}

std::string PartitionedBingoStore::CheckInvariants() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string err = shards_[s]->CheckInvariants();
    if (!err.empty()) {
      return "shard " + std::to_string(s) + ": " + err;
    }
  }
  return {};
}

static_assert(ShardRoutedStore<PartitionedBingoStore>);

}  // namespace bingo::walk
