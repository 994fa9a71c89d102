// 1-D partitioned Bingo with walker transfer (§9.1 supplement).
//
// The paper scales to multiple GPUs by partitioning vertices 1-D across
// devices and transferring *walkers* (tiny) instead of sampling structures
// (huge). This example runs the same workload on 1, 2, and 4 shards and
// reports the walker-migration volume — the communication a partitioned
// design pays instead of holding every vertex's sampling structure on
// every device.
//
//   $ ./multi_shard

#include <cstdio>

#include "src/bingo.h"

int main() {
  using namespace bingo;

  util::Rng rng(5);
  auto pairs = graph::GenerateRmat(13, 100000, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 1 << 13;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  walk::WalkConfig cfg;
  cfg.walk_length = 40;

  for (const int shards : {1, 2, 4}) {
    walk::PartitionedBingoStore store(edges, n, shards, core::BingoConfig{},
                                      &util::ThreadPool::Global());

    // Batched updates route to owning shards and apply in parallel.
    graph::UpdateList updates;
    for (int i = 0; i < 5000; ++i) {
      updates.push_back({graph::Update::Kind::kInsert,
                         static_cast<graph::VertexId>(rng.NextBounded(n)),
                         static_cast<graph::VertexId>(rng.NextBounded(n)),
                         1.0 + rng.NextBounded(32)});
    }
    util::Timer update_timer;
    store.ApplyBatch(updates, &util::ThreadPool::Global());
    const double update_s = update_timer.Seconds();

    util::Timer walk_timer;
    const auto result = walk::RunPartitionedApp(
        store, cfg, walk::DeepWalkApp{}, &util::ThreadPool::Global());
    std::printf(
        "%d shard(s): %8.2f MiB total, updates %.3fs, walk %.3fs, "
        "%llu steps, %llu cross-shard walker transfers (%.1f%%)\n",
        shards, store.MemoryBytes() / 1024.0 / 1024.0, update_s,
        walk_timer.Seconds(),
        static_cast<unsigned long long>(result.total_steps),
        static_cast<unsigned long long>(result.walker_migrations),
        result.total_steps == 0
            ? 0.0
            : 100.0 * static_cast<double>(result.walker_migrations) /
                  static_cast<double>(result.total_steps));
  }
  std::printf(
      "\nWalker transfers approach (shards-1)/shards of all steps under "
      "round-robin 1-D partitioning\n(less when the graph's id-locality "
      "keeps hops inside a shard, as R-MAT's low-bit correlation does),\n"
      "while per-shard sampling structures stay untouched — the trade the "
      "paper's multi-GPU design makes.\n");
  return 0;
}
