// Figure 13 + Table 4 reproduction.
//
// Fig 13: piecewise time of BS vs GA — the insert/delete step (graph +
// group mutation), the rebuild step (reclassification + inter-group alias
// reconstruction), and sampling (a DeepWalk pass) — per dataset, mixed
// updates.
//
// Table 4: group-kind conversion counts observed while ingesting the LJ
// stand-in's mixed stream (GA mode), as a ratio of all group classification
// checks — the paper reports every cell below 0.5%.

#include <array>
#include <cstdio>

#include "bench/common.h"
#include "src/core/bingo_store.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/walk/apps.h"

namespace bingo::bench {
namespace {

// An instrumented streaming store built from the library's public per-vertex
// pieces, so that mutation and rebuild can be timed separately (BingoStore
// fuses them inside one call).
class InstrumentedStore {
 public:
  InstrumentedStore(graph::DynamicGraph graph, bool adaptive)
      : graph_(std::move(graph)) {
    config_.adaptive.adaptive = adaptive;
    config_.conversion_stats = &conversions_;
    config_.pool = &graph_.Pool();  // as BingoStore does
    samplers_.resize(graph_.NumVertices());
    for (graph::VertexId v = 0; v < graph_.NumVertices(); ++v) {
      samplers_[v].SetConfig(&config_);
      samplers_[v].Build(graph_.Neighbors(v));
    }
  }
  ~InstrumentedStore() {
    for (core::VertexSampler& s : samplers_) {
      s.Release();
    }
  }
  InstrumentedStore(const InstrumentedStore&) = delete;
  InstrumentedStore& operator=(const InstrumentedStore&) = delete;

  void Apply(const graph::UpdateList& updates) {
    for (const graph::Update& u : updates) {
      if (u.kind == graph::Update::Kind::kInsert) {
        {
          util::ScopedAccumulator scope(mutate_);
          const uint32_t idx = graph_.Insert(u.src, u.dst, u.bias);
          samplers_[u.src].InsertEdge(graph_.Neighbors(u.src), idx);
        }
        util::ScopedAccumulator scope(rebuild_);
        samplers_[u.src].FinishUpdate(graph_.Neighbors(u.src));
      } else {
        uint32_t idx = 0;
        {
          util::ScopedAccumulator scope(mutate_);
          const auto found = graph_.FindEarliest(u.src, u.dst);
          if (!found.has_value()) {
            continue;
          }
          idx = *found;
          samplers_[u.src].RemoveEdge(graph_.Neighbors(u.src), idx);
          const auto result = graph_.SwapRemove(u.src, idx);
          if (result.moved) {
            samplers_[u.src].RenameIndex(result.moved_edge.bias,
                                         result.moved_from, result.moved_to);
          }
        }
        util::ScopedAccumulator scope(rebuild_);
        samplers_[u.src].FinishUpdate(graph_.Neighbors(u.src));
      }
    }
  }

  // Store surface for the walk apps (walk::SamplingStore).
  const graph::DynamicGraph& Graph() const { return graph_; }
  graph::VertexId NumVertices() const { return graph_.NumVertices(); }
  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
    const uint32_t idx = samplers_[v].SampleIndex(graph_.Neighbors(v), rng);
    return idx == core::VertexSampler::kNoNeighbor ? graph::kInvalidVertex
                                                   : graph_.NeighborAt(v, idx).dst;
  }

  double MutateSeconds() const { return mutate_.Seconds(); }
  double RebuildSeconds() const { return rebuild_.Seconds(); }
  const core::ConversionStats& Conversions() const { return conversions_; }

  std::array<uint64_t, 5> CountGroupKinds() const {
    std::array<uint64_t, 5> counts{};
    for (const auto& s : samplers_) {
      s.CountGroupKinds(counts);
    }
    return counts;
  }

 private:
  core::BingoConfig config_;
  core::ConversionStats conversions_;
  graph::DynamicGraph graph_;
  std::vector<core::VertexSampler> samplers_;
  util::TimeAccumulator mutate_;
  util::TimeAccumulator rebuild_;
};

}  // namespace
}  // namespace bingo::bench

int main() {
  using namespace bingo;
  using namespace bingo::bench;

  TuneAllocator();
  using core::GroupKind;

  util::ThreadPool pool;
  graph::BiasParams bias_params;
  const uint64_t batch = BenchBatch();
  const int rounds = BenchRounds();

  std::printf(
      "Figure 13: BS vs GA time breakdown (mixed updates + DeepWalk)\n\n");
  std::printf("%-5s %8s | %10s %10s %10s %9s | %10s %10s %10s %9s\n", "data",
              "", "BS:mut", "BS:rebuild", "BS:sample", "BS:total", "GA:mut",
              "GA:rebuild", "GA:sample", "GA:total");
  PrintRule(110);

  for (const auto& dataset : StandardDatasets()) {
    const auto workload = PrepareWorkload(dataset, graph::UpdateKind::kMixed,
                                          bias_params, 99, batch, rounds);
    double totals[2][3] = {};  // [bs/ga][mutate, rebuild, sample]
    for (const bool adaptive : {false, true}) {
      InstrumentedStore store(
          graph::DynamicGraph::FromEdges(workload.num_vertices,
                                         workload.initial_edges),
          adaptive);
      double sample_s = 0;
      for (const auto& b : workload.batches) {
        store.Apply(b);
        sample_s += TimeSec([&] {
          walk::WalkConfig cfg;
          cfg.walk_length = 80;
          cfg.num_walkers =
              std::max<uint64_t>(1, workload.num_vertices / WalkerDiv());
          walk::RunDeepWalk(store, cfg, &pool);
        });
      }
      totals[adaptive ? 1 : 0][0] = store.MutateSeconds();
      totals[adaptive ? 1 : 0][1] = store.RebuildSeconds();
      totals[adaptive ? 1 : 0][2] = sample_s;

      // Table 4 for the LJ stand-in in GA mode.
      if (adaptive && std::string(dataset.abbr) == "LJ") {
        std::printf("\nTable 4: group conversion counts (LJ stand-in, GA)\n");
        const auto kinds = store.CountGroupKinds();
        uint64_t total_groups = 0;
        for (uint64_t c : kinds) {
          total_groups += c;
        }
        const GroupKind order[] = {GroupKind::kDense, GroupKind::kRegular,
                                   GroupKind::kSparse, GroupKind::kOneElement};
        const char* names[] = {"Dense", "Regular", "Sparse", "One-elem"};
        std::printf("%-10s", "from\\to");
        for (const char* n : names) {
          std::printf(" %10s", n);
        }
        std::printf("\n");
        for (int i = 0; i < 4; ++i) {
          std::printf("%-10s", names[i]);
          for (int j = 0; j < 4; ++j) {
            if (i == j) {
              std::printf(" %10s", "-");
            } else {
              const double pct =
                  100.0 * static_cast<double>(
                              store.Conversions().Get(order[i], order[j])) /
                  static_cast<double>(total_groups);
              std::printf(" %9.3f%%", pct);
            }
          }
          std::printf("\n");
        }
        std::printf("\n");
      }
    }
    const auto sum = [](const double* t) { return t[0] + t[1] + t[2]; };
    std::printf("%-5s %8s | %10.3f %10.3f %10.3f %9.3f | %10.3f %10.3f %10.3f "
                "%9.3f\n",
                dataset.abbr, "", totals[0][0], totals[0][1], totals[0][2],
                sum(totals[0]), totals[1][0], totals[1][1], totals[1][2],
                sum(totals[1]));
  }
  std::printf(
      "\nexpected shape: GA total <= ~1.1x BS total (paper: GA is on average "
      "1.09x FASTER) with far less memory (Fig 11)\n");
  return 0;
}
