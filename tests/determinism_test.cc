// Determinism guarantees across all walk applications, thread counts,
// pinning modes, and every walk driver: per-walker RNG streams make
// every result reproducible byte-for-byte, and the executor's chunk plan
// keeps results independent of steal order and CPU placement.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/csr_mmap.h"
#include "src/graph/generators.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/fused.h"
#include "src/walk/incremental.h"
#include "src/walk/ooc.h"
#include "src/walk/ooc_store.h"
#include "src/walk/partitioned.h"

namespace bingo::walk {
namespace {

using core::BingoStore;

BingoStore TestStore(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(256, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return BingoStore(graph::DynamicGraph::FromCsr(csr, biases));
}

void ExpectIdentical(const WalkResult& a, const WalkResult& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.finished_walkers, b.finished_walkers);
  EXPECT_EQ(a.path_offsets, b.path_offsets);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.visit_counts, b.visit_counts);
}

TEST(DeterminismTest, Node2vecAcrossThreadCounts) {
  const BingoStore store = TestStore(1);
  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  Node2vecParams params;
  util::ThreadPool pool3(3);
  util::ThreadPool pool7(7);
  const auto serial = RunNode2vec(store, cfg, params, nullptr);
  ExpectIdentical(serial, RunNode2vec(store, cfg, params, &pool3));
  ExpectIdentical(serial, RunNode2vec(store, cfg, params, &pool7));
}

TEST(DeterminismTest, PprAcrossThreadCounts) {
  const BingoStore store = TestStore(2);
  WalkConfig cfg;
  cfg.walk_length = 40;
  cfg.num_walkers = 1000;
  util::ThreadPool pool4(4);
  const auto serial = RunPpr(store, cfg, 1.0 / 20.0, nullptr);
  ExpectIdentical(serial, RunPpr(store, cfg, 1.0 / 20.0, &pool4));
}

TEST(DeterminismTest, SimpleSamplingAcrossThreadCounts) {
  const BingoStore store = TestStore(3);
  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.record_paths = true;
  cfg.count_visits = true;
  util::ThreadPool pool5(5);
  const auto serial = RunSimpleSampling(store, cfg, nullptr);
  ExpectIdentical(serial, RunSimpleSampling(store, cfg, &pool5));
}

TEST(DeterminismTest, SeedChangesResults) {
  const BingoStore store = TestStore(4);
  WalkConfig a;
  a.walk_length = 16;
  a.record_paths = true;
  WalkConfig b = a;
  b.seed = a.seed + 1;
  const auto ra = RunDeepWalk(store, a, nullptr);
  const auto rb = RunDeepWalk(store, b, nullptr);
  EXPECT_NE(ra.paths, rb.paths);
}

// Every app as a descriptor, with the name the matrix cells report.
struct NamedApp {
  const char* name;
  AnyWalkApp app;
};
std::vector<NamedApp> AllApps() {
  return {{"deepwalk", DeepWalkApp{}},
          {"node2vec", Node2vecApp{}},
          {"ppr", PprApp{1.0 / 20.0}},
          {"simple", SimpleSamplingApp{}},
          {"metapath", MetapathApp{MetapathParams{3, {0, 1, 2, 1}}}}};
}

// The acceptance matrix: threads {1, 4, 16} x pinning {off, on} x every
// app x drivers {shared-memory engine, superstep walker-transfer, fused} —
// every cell bit-identical to the serial engine reference. Walk output
// depends only on the seed: never on thread count, steal order, CPU
// placement, or execution model.
TEST(DeterminismTest, MatrixAcrossThreadsPinningAndDrivers) {
  util::Rng rng(7);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const BingoStore store(graph::DynamicGraph::FromEdges(n, edges));
  const PartitionedBingoStore sharded(edges, n, 4);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  // More walkers than the engine's 256-walker grain, so the parallel cells
  // exercise the multi-chunk slot-array stitch (several chunks per pool),
  // not the single-chunk serial early-return.
  cfg.num_walkers = 2048;

  for (const NamedApp& named : AllApps()) {
    std::visit(
        [&](const auto& app) {
          const auto run_fused = [&](util::ThreadPool* pool) {
            WalkResult fused;
            RunFusedApp(store, std::span<const WalkConfig>(&cfg, 1), app,
                        std::span<WalkResult>(&fused, 1), pool);
            return fused;
          };
          const WalkResult reference = RunApp(store, cfg, app, nullptr);
          EXPECT_GT(reference.total_steps, 0u) << named.name;
          ExpectIdentical(reference,
                          RunPartitionedApp(sharded, cfg, app, nullptr));
          ExpectIdentical(reference, run_fused(nullptr));

          for (const std::size_t threads : {1uL, 4uL, 16uL}) {
            for (const bool pin : {false, true}) {
              util::PoolOptions options;
              options.num_threads = threads;
              options.pin_threads = pin;
              options.numa_interleave = pin;
              util::ThreadPool pool(options);
              SCOPED_TRACE(std::string(named.name) + " threads=" +
                           std::to_string(threads) +
                           " pin=" + (pin ? "on" : "off"));
              ExpectIdentical(reference, RunApp(store, cfg, app, &pool));
              ExpectIdentical(reference,
                              RunPartitionedApp(sharded, cfg, app, &pool));
              ExpectIdentical(reference, run_fused(&pool));
            }
          }
        },
        named.app);
  }
}

// The out-of-core row of the acceptance matrix: the block-scheduled driver
// over the tiered store at budgets {unconstrained, 1/2, 1/4 of the edge
// bytes} x threads {1, 4, 16} pinned and unpinned x every app — every cell
// bit-identical to the serial unconstrained engine walk of the same store.
// Scheduling order (which block runs when) is budget- and load-dependent;
// walker variate streams are not.
TEST(DeterminismTest, OocMatrixAcrossBudgetsThreadsAndPinning) {
  util::Rng rng(11);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const std::string path = ::testing::TempDir() + "/determinism_ooc.csr";
  std::string error;
  ASSERT_TRUE(graph::WriteCsrFile(path, n, edges, 4096, &error)) << error;
  const std::size_t edge_bytes = edges.size() * sizeof(graph::Edge);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  const auto open = [&](std::size_t budget) {
    TieredStoreOptions options;
    options.memory_budget_bytes = budget;
    auto store = TieredStore::Open(path, {}, options, nullptr, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  };

  const auto reference_store = open(0);
  for (const NamedApp& named : AllApps()) {
    std::visit(
        [&](const auto& app) {
          const WalkResult reference = RunApp(*reference_store, cfg, app);
          EXPECT_GT(reference.total_steps, 0u) << named.name;

          for (const std::size_t budget :
               {std::size_t{0}, edge_bytes / 2, edge_bytes / 4}) {
            const auto store = open(budget);
            for (const std::size_t threads : {1uL, 4uL, 16uL}) {
              for (const bool pin : {false, true}) {
                util::PoolOptions options;
                options.num_threads = threads;
                options.pin_threads = pin;
                util::ThreadPool pool(options);
                SCOPED_TRACE(std::string(named.name) + " budget=" +
                             std::to_string(budget) + " threads=" +
                             std::to_string(threads) + " pin=" +
                             (pin ? "on" : "off"));
                const OocWalkResult ooc = RunOocApp(*store, cfg, app, &pool);
                EXPECT_TRUE(ooc.error.empty()) << ooc.error;
                ExpectIdentical(reference, ooc);
              }
            }
          }
        },
        named.app);
  }
  std::remove(path.c_str());
}

// The temporal row of the acceptance matrix: walks over a decaying store —
// threads {1, 4, 16} x drivers {engine, superstep, fused} — stay
// bit-identical to the serial engine reference, both before and after an
// AdvanceTime tick lands mid-run. The tick is an ordinary ApplyBatch, so
// every store (plain and sharded) rescales to identical bits.
TEST(DeterminismTest, TemporalMatrixAcrossThreadsAndDrivers) {
  util::Rng rng(13);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  auto edges = graph::ToWeightedEdges(csr, biases);
  for (graph::WeightedEdge& e : edges) {
    e.timestamp = static_cast<uint32_t>((e.src + e.dst) % 5);
  }

  core::BingoConfig config;
  config.pipeline.decay = 0.9;
  BingoStore store(graph::DynamicGraph::FromEdges(n, edges), config);
  PartitionedBingoStore sharded(edges, n, 4, config);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  const auto check_phase = [&](const std::string& phase) {
    SCOPED_TRACE(phase);
    const WalkResult reference = RunDeepWalk(store, cfg, nullptr);
    EXPECT_GT(reference.total_steps, 0u);
    ExpectIdentical(reference,
                    RunPartitionedApp(sharded, cfg, DeepWalkApp{}, nullptr));
    WalkResult fused_serial;
    RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                     std::span<WalkResult>(&fused_serial, 1), nullptr);
    ExpectIdentical(reference, fused_serial);
    for (const std::size_t threads : {1uL, 4uL, 16uL}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectIdentical(reference, RunDeepWalk(store, cfg, &pool));
      ExpectIdentical(reference,
                      RunPartitionedApp(sharded, cfg, DeepWalkApp{}, &pool));
      WalkResult fused;
      RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                       std::span<WalkResult>(&fused, 1), &pool);
      ExpectIdentical(reference, fused);
    }
  };

  check_phase("epoch 0");
  // The mid-run clock tick: a deterministic synthetic batch, applied to the
  // plain store and broadcast across the sharded store's partitions.
  store.ApplyBatch({graph::MakeAdvanceTime(5)}, nullptr);
  sharded.ApplyBatch({graph::MakeAdvanceTime(5)}, nullptr);
  check_phase("epoch 5");
}

// Metapath (typed / bipartite) walks across the same driver x thread grid:
// the stepper is step-aware (the eligible type is a function of the walk
// position), so this row proves all three drivers feed identical step
// indices — engine loop counter, superstep walker.len, fused lockstep step.
TEST(DeterminismTest, MetapathMatrixAcrossThreadsAndDrivers) {
  util::Rng rng(17);
  auto pairs = graph::GenerateRmat(8, 2400, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::VertexId n = 256;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams bias_params;
  const auto biases = graph::GenerateBiases(csr, bias_params, rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);

  const BingoStore store(graph::DynamicGraph::FromEdges(n, edges));
  const PartitionedBingoStore sharded(edges, n, 4);

  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;

  for (const MetapathParams& params :
       {MetapathParams{},                      // bipartite {0, 1}
        MetapathParams{3, {0, 1, 2, 1}}}) {    // longer cyclic pattern
    ASSERT_TRUE(params.Valid());
    SCOPED_TRACE("pattern size=" + std::to_string(params.pattern.size()));
    const WalkResult reference = RunMetapath(store, cfg, params, nullptr);
    EXPECT_GT(reference.total_steps, 0u);
    ExpectIdentical(reference, RunPartitionedApp(sharded, cfg,
                                                 MetapathApp{params}, nullptr));
    for (const std::size_t threads : {1uL, 4uL, 16uL}) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectIdentical(reference, RunMetapath(store, cfg, params, &pool));
      ExpectIdentical(reference, RunPartitionedApp(sharded, cfg,
                                                   MetapathApp{params}, &pool));
      WalkResult fused;
      RunFusedApp(store, std::span<const WalkConfig>(&cfg, 1),
                  MetapathApp{params}, std::span<WalkResult>(&fused, 1),
                  &pool);
      ExpectIdentical(reference, fused);
    }
  }
}

// The incremental walk corpus carries the same contract: corpus contents
// depend only on (seed, update sequence) — never on the repair thread
// count, and never on whether the corpus lived through a checkpoint/
// restore cycle mid-stream.
TEST(DeterminismTest, CorpusMatrixAcrossThreadsAndCheckpointRestore) {
  const uint64_t kSeed = 6;
  IncrementalWalkCorpus::Config config;
  config.walk_length = 16;

  // Shared update stream: 4 mixed batches, fixed ahead of the matrix.
  std::vector<graph::UpdateList> batches;
  {
    util::Rng rng(99);
    for (int round = 0; round < 4; ++round) {
      graph::UpdateList batch;
      for (int i = 0; i < 50; ++i) {
        const auto src = static_cast<graph::VertexId>(rng.NextBounded(256));
        const auto dst = static_cast<graph::VertexId>(rng.NextBounded(256));
        if (rng.NextBool(0.25)) {
          batch.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
        } else {
          batch.push_back({graph::Update::Kind::kInsert, src, dst,
                           1.0 + rng.NextBounded(16)});
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  const auto corpus_walks = [&](util::ThreadPool* pool,
                                bool checkpoint_mid_stream) {
    BingoStore store = TestStore(kSeed);
    IncrementalWalkCorpus corpus(store, config);
    corpus.Generate(store, pool);
    for (std::size_t round = 0; round < batches.size(); ++round) {
      corpus.ApplyUpdates(store, batches[round], pool);
      if (checkpoint_mid_stream && round == 1) {
        const std::string path = ::testing::TempDir() +
                                 "corpus_matrix_" +
                                 std::to_string(::getpid()) + ".walks";
        EXPECT_TRUE(corpus.SaveTo(path, /*wal_seq=*/round + 1));
        IncrementalWalkCorpus restored(store, config);
        EXPECT_TRUE(restored.LoadFrom(path).has_value());
        corpus = std::move(restored);
        std::remove(path.c_str());
      }
    }
    std::vector<std::vector<graph::VertexId>> walks;
    walks.reserve(corpus.NumWalks());
    for (uint64_t w = 0; w < corpus.NumWalks(); ++w) {
      walks.push_back(corpus.Walk(w));
    }
    return walks;
  };

  const auto reference = corpus_walks(nullptr, false);
  for (const int threads : {1, 4, 16}) {
    util::ThreadPool pool(threads);
    for (const bool restore : {false, true}) {
      EXPECT_EQ(reference, corpus_walks(&pool, restore))
          << threads << " threads, restore=" << restore;
    }
  }
}

TEST(DeterminismTest, SamplingDoesNotMutateStore) {
  // SampleNeighbor is const; a heavy concurrent read workload must leave
  // the structure byte-identical (checked via the exact audit).
  const BingoStore store = TestStore(5);
  util::ThreadPool pool(4);
  WalkConfig cfg;
  cfg.walk_length = 40;
  RunDeepWalk(store, cfg, &pool);
  RunNode2vec(store, cfg, {}, &pool);
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
}

}  // namespace
}  // namespace bingo::walk
