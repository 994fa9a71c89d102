// 1-D partitioned Bingo (§9.1 supplement).
//
// The paper scales Bingo to multiple GPUs with KnightKing-style 1-D graph
// partitioning: each device owns the out-edges (and sampling structures) of
// a slice of the vertex set, and walkers — not sampling structures — are
// transferred between devices. Here each shard is a BingoStore and shards
// execute on pool threads; the superstep walk driver moves walkers between
// per-shard queues exactly like the walker-transfer design.

#ifndef BINGO_SRC_WALK_PARTITIONED_H_
#define BINGO_SRC_WALK_PARTITIONED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

class PartitionedBingoStore {
 public:
  // Round-robin 1-D partitioning: vertex v lives on shard v % num_shards.
  PartitionedBingoStore(const graph::WeightedEdgeList& edges,
                        graph::VertexId num_vertices, int num_shards,
                        core::BingoConfig config = {},
                        util::ThreadPool* pool = nullptr);

  int NumShards() const { return static_cast<int>(shards_.size()); }
  graph::VertexId NumVertices() const { return num_vertices_; }

  int ShardOf(graph::VertexId v) const {
    return static_cast<int>(v % shards_.size());
  }

  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
    return shards_[ShardOf(v)]->SampleNeighbor(v, rng);
  }

  // Adjacency probes route to the shard owning the source's out-edges, so
  // the sharded store answers them exactly like the whole-graph store.
  bool HasEdge(graph::VertexId src, graph::VertexId dst) const {
    return shards_[ShardOf(src)]->HasEdge(src, dst);
  }
  std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const {
    return shards_[ShardOf(v)]->NeighborsOf(v);
  }
  uint64_t NumEdges() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->NumEdges();
    }
    return total;
  }

  void StreamingInsert(graph::VertexId src, graph::VertexId dst, double bias) {
    shards_[ShardOf(src)]->StreamingInsert(src, dst, bias);
  }
  bool StreamingDelete(graph::VertexId src, graph::VertexId dst) {
    return shards_[ShardOf(src)]->StreamingDelete(src, dst);
  }

  // Routes updates to their owning shards, then applies each shard's slice
  // as one batch; shards run in parallel.
  core::BatchResult ApplyBatch(const graph::UpdateList& updates,
                               util::ThreadPool* pool = nullptr);

  const core::BingoStore& Shard(int s) const { return *shards_[s]; }

  core::StoreMemoryStats MemoryStats() const;
  std::size_t MemoryBytes() const { return MemoryStats().TotalBytes(); }
  std::string CheckInvariants() const;

 private:
  graph::VertexId num_vertices_ = 0;
  std::vector<std::unique_ptr<core::BingoStore>> shards_;
};

// A store the superstep driver can route walkers over: sampling plus 1-D
// vertex-to-shard ownership. PartitionedBingoStore models this; so can any
// future multi-device front-end.
template <typename S>
concept ShardRoutedStore =
    SamplingStore<S> && requires(const S& cs, graph::VertexId v) {
      { cs.NumShards() } -> std::convertible_to<int>;
      { cs.ShardOf(v) } -> std::convertible_to<int>;
    };

// The engine's full WalkResult accounting (steps, finishers, paths, visit
// counts — parity by construction), plus the walker-transfer communication
// counters.
struct PartitionedWalkResult : WalkResult {
  uint64_t walker_migrations = 0;  // cross-shard transfers (communication)
  uint64_t supersteps = 0;
};

// Walker-transfer driver: every superstep advances each live walker one hop
// on its owning shard (shards in parallel), then routes it to the shard of
// its new vertex. Walkers are the core's Walker records; second-order
// steppers work across shard hops because adjacency probes route to the
// source's owning shard. Output is bit-identical to the engine (see the
// determinism statement in engine.h) for any shard and thread count. The
// superstep driver's descriptor entry point (apps.h).
template <ShardRoutedStore Store, typename App>
PartitionedWalkResult RunPartitionedApp(const Store& store,
                                        const WalkConfig& requested,
                                        const App& app,
                                        util::ThreadPool* pool = nullptr) {
  const WalkConfig cfg = app.Normalize(requested);
  const auto stepper = app.StepperFor(store);
  const graph::VertexId num_vertices =
      static_cast<graph::VertexId>(store.NumVertices());
  PartitionedWalkResult result;
  const uint64_t num_walkers = BeginWalks(cfg, num_vertices, result);
  if (num_walkers == 0) {
    return result;
  }
  const int num_shards = store.NumShards();
  WalkTally tally(cfg, num_vertices);

  // Every transient buffer of the superstep machinery — per-shard walker
  // queues and outboxes, per-walker path buffers, per-shard visit
  // accumulators — leases recycled blocks from the executor's scratch pool,
  // so repeated runs (the serving path) allocate nothing in steady state.
  util::MemoryPool* scratch =
      pool != nullptr ? &pool->ScratchMemory() : nullptr;
  std::vector<util::ScratchVector<uint32_t>> shard_visits;
  std::vector<util::ScratchVector<Walker>> queues;
  std::vector<util::ScratchVector<Walker>> outboxes;
  for (int s = 0; s < num_shards; ++s) {
    queues.emplace_back(scratch);
    outboxes.emplace_back(scratch);
    shard_visits.emplace_back(scratch);
    if (cfg.count_visits) {
      shard_visits.back().assign(num_vertices, 0);
    }
  }
  // A walker lives on exactly one shard queue per superstep, so its path
  // buffer has a single writer.
  auto walker_paths = StartQueuedWalkers(
      cfg, num_walkers, num_vertices, scratch, tally,
      [&](const Walker& w) { queues[store.ShardOf(w.cur)].push_back(w); });

  bool any_live = cfg.walk_length > 0;
  while (any_live) {
    ++result.supersteps;
    const auto run_shard = [&](std::size_t s) {
      uint64_t steps = 0;
      uint64_t finished = 0;
      for (Walker walker : queues[s]) {
        const auto record = [&](graph::VertexId v) {
          ++steps;
          if (cfg.record_paths) {
            walker_paths[walker.id].push_back(v);
          }
          if (cfg.count_visits) {
            ++shard_visits[s][v];
          }
        };
        if (Hop(stepper, cfg.walk_length, walker, walker.rng, record)) {
          outboxes[s].push_back(walker);
        } else {
          finished += walker.len > 0 ? 1 : 0;
        }
      }
      queues[s].clear();
      tally.Add(steps, finished, {});
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, static_cast<std::size_t>(num_shards), run_shard);
    } else {
      for (int s = 0; s < num_shards; ++s) {
        run_shard(static_cast<std::size_t>(s));
      }
    }

    // Exchange phase: route every survivor to the shard of its new vertex
    // (the walker transfer).
    any_live = false;
    for (int from = 0; from < num_shards; ++from) {
      for (const Walker& walker : outboxes[from]) {
        const int to = store.ShardOf(walker.cur);
        result.walker_migrations += to != from ? 1 : 0;
        queues[to].push_back(walker);
        any_live = true;
      }
      outboxes[from].clear();
    }
  }
  for (const auto& visits : shard_visits) {
    tally.Add(0, 0, visits);
  }
  tally.Finish(result);
  if (cfg.record_paths) {
    StitchWalkerPaths(walker_paths, result);
  }
  return result;
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_PARTITIONED_H_
