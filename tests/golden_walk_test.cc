// Golden walk checksums: hashed DeepWalk and node2vec paths on a fixed
// generated graph, before and after an insert/delete batch that creates and
// destroys radix groups (including a new highest radix bit). Walk output is
// a pure function of (graph, update history, seed), so these values may
// change only with a deliberate change to the sampling algorithm or to the
// generators — never with a change to the store's memory layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/walk/apps.h"
#include "src/walk/fused.h"

namespace bingo::walk {
namespace {

using core::BingoStore;

constexpr graph::VertexId kVertices = 1024;

BingoStore GoldenStore(bool floating_point) {
  util::Rng rng(20251018);
  auto pairs = graph::GenerateRmat(10, 6000, rng);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(kVertices, pairs);
  graph::BiasParams params;
  if (floating_point) {
    params.distribution = graph::BiasDistribution::kPowerLaw;
    params.floating_point = true;
  }
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return BingoStore(graph::DynamicGraph::FromCsr(csr, biases));
}

// Deletes every out-edge of some vertices (their groups die), the first
// out-edge of others (single members leave their groups), and inserts
// edges whose bias sets radix bits above any initial bias (a new highest
// group), including at vertices that had no out-edges at all.
graph::UpdateList GoldenBatch(const BingoStore& store, bool floating_point) {
  graph::UpdateList batch;
  const double frac = floating_point ? 0.375 : 0.0;
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    const auto adj = store.NeighborsOf(v);
    if (v % 11 == 0) {
      for (const graph::Edge& e : adj) {
        batch.push_back({graph::Update::Kind::kDelete, v, e.dst, 0.0, 0});
      }
    } else if (v % 5 == 0 && !adj.empty()) {
      batch.push_back({graph::Update::Kind::kDelete, v, adj[0].dst, 0.0, 0});
    }
    if (v % 7 == 3) {
      const graph::VertexId dst = (v * 31 + 7) % kVertices;
      const double bias = static_cast<double>(4096 + 3 * v) + frac;
      batch.push_back({graph::Update::Kind::kInsert, v, dst, bias, 0});
    }
    if (v % 13 == 4) {
      batch.push_back({graph::Update::Kind::kInsert, v, (v + 1) % kVertices,
                       2.0 + frac, 0});
    }
  }
  return batch;
}

uint64_t Fnv1a(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashPaths(const WalkResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, r.total_steps);
  for (const uint64_t off : r.path_offsets) {
    h = Fnv1a(h, off);
  }
  for (const graph::VertexId v : r.paths) {
    h = Fnv1a(h, v);
  }
  return h;
}

WalkConfig GoldenConfig() {
  WalkConfig cfg;
  cfg.num_walkers = 4 * kVertices;
  cfg.walk_length = 20;
  cfg.seed = 7;
  cfg.record_paths = true;
  return cfg;
}

struct Checksums {
  uint64_t deepwalk;
  uint64_t node2vec;
};

Checksums Walk(const BingoStore& store) {
  const WalkConfig cfg = GoldenConfig();
  Node2vecParams n2v;
  n2v.p = 0.5;
  n2v.q = 2.0;
  const WalkResult deepwalk = RunDeepWalk(store, cfg);
  // The fused driver resolves draws through the batched sampler path; it
  // must reproduce the engine's paths exactly.
  WalkResult fused;
  RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                   std::span<WalkResult>(&fused, 1));
  EXPECT_EQ(HashPaths(fused), HashPaths(deepwalk));
  return {HashPaths(deepwalk), HashPaths(RunNode2vec(store, cfg, n2v))};
}

void CheckGolden(bool floating_point, const Checksums& before,
                 const Checksums& after) {
  BingoStore store = GoldenStore(floating_point);
  ASSERT_EQ(store.CheckInvariants(), "");
  // The batch's 4096+ biases must open a radix group above every initial one.
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    for (const graph::Edge& e : store.NeighborsOf(v)) {
      ASSERT_LT(e.bias, 4096.0);
    }
  }
  const Checksums initial = Walk(store);
  EXPECT_EQ(initial.deepwalk, before.deepwalk);
  EXPECT_EQ(initial.node2vec, before.node2vec);

  const graph::UpdateList batch = GoldenBatch(store, floating_point);
  const core::BatchResult applied = store.ApplyBatch(batch);
  EXPECT_GT(applied.inserted, 0u);
  EXPECT_GT(applied.deleted, 0u);
  ASSERT_EQ(store.CheckInvariants(), "");
  const Checksums updated = Walk(store);
  EXPECT_EQ(updated.deepwalk, after.deepwalk);
  EXPECT_EQ(updated.node2vec, after.node2vec);
}

TEST(GoldenWalkTest, IntegerBiases) {
  CheckGolden(/*floating_point=*/false,
              {16425445874900243135ULL, 8646926776373542264ULL},
              {4077750119328098610ULL, 3392681602719234041ULL});
}

TEST(GoldenWalkTest, FloatBiases) {
  CheckGolden(/*floating_point=*/true,
              {14592553116752228183ULL, 1618433972353879198ULL},
              {13261609663757118128ULL, 14634290816740533909ULL});
}

}  // namespace
}  // namespace bingo::walk
