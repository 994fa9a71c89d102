// Walk-derived analytics (§1): the paper motivates random walks through
// applications that consume visit frequencies — personalized PageRank,
// SimRank vertex similarity, and Random Walk Domination ("launch many
// random walks and use the visit frequency of each vertex ... to derive
// PageRank value, vertex similarity, and influence").
//
// These helpers turn a store + walk engine into those end products.

#ifndef BINGO_SRC_WALK_ANALYTICS_H_
#define BINGO_SRC_WALK_ANALYTICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

// ----------------------------------------------------------- PPR queries --

struct PprQueryConfig {
  uint64_t num_walkers = 10000;
  double stop_probability = 1.0 / 80.0;
  uint32_t max_length = 1280;
  uint64_t seed = 42;
};

// Monte-Carlo personalized PageRank from a single source: visit
// frequencies of walks restarted at `source`, normalized to sum 1.
template <SamplingStore Store>
std::vector<double> PersonalizedPageRank(const Store& store,
                                         graph::VertexId source,
                                         const PprQueryConfig& config = {},
                                         util::ThreadPool* pool = nullptr);

// Top-k vertices of a score vector, largest first, excluding `exclude`.
std::vector<std::pair<graph::VertexId, double>> TopK(
    const std::vector<double>& scores, std::size_t k,
    graph::VertexId exclude = graph::kInvalidVertex);

// ------------------------------------------------------ SimRank estimate --

// Monte-Carlo SimRank s(a, b): the expected discounted first-meeting time
// of two independent walkers starting at a and b (Jeh & Widom's random
// surfer-pairs model, estimated by simulation with decay factor c).
template <SamplingStore Store>
double SimRankEstimate(const Store& store, graph::VertexId a, graph::VertexId b,
                       double decay = 0.8, uint64_t num_pairs = 20000,
                       uint32_t max_length = 16, uint64_t seed = 42);

// ------------------------------------------------- random walk domination --

// Greedy k-seed selection maximizing walk coverage (Li et al.'s random-walk
// domination, hit-and-cover form): repeatedly picks the vertex covering the
// most yet-uncovered walks from a corpus of short walks.
template <SamplingStore Store>
std::vector<graph::VertexId> RandomWalkDomination(const Store& store,
                                                  std::size_t k,
                                                  uint32_t walk_length = 8,
                                                  uint64_t seed = 42,
                                                  util::ThreadPool* pool = nullptr);

// ------------------------------------------------------- implementations --

template <SamplingStore Store>
std::vector<double> PersonalizedPageRank(const Store& store,
                                         graph::VertexId source,
                                         const PprQueryConfig& config,
                                         util::ThreadPool* pool) {
  if (config.num_walkers == 0) {
    // Zero walkers means an empty query here, unlike WalkConfig's
    // one-per-vertex default.
    return std::vector<double>(store.NumVertices(), 0.0);
  }
  // All walkers start at `source`: the engine's start-vertex override runs
  // the query on the same driver and lock-free merge path as whole-graph
  // workloads, so the walk loop (and its per-walker RNG streams) lives in
  // exactly one place — engine.h.
  WalkConfig cfg;
  cfg.num_walkers = config.num_walkers;
  cfg.walk_length = config.max_length;
  cfg.seed = config.seed;
  cfg.count_visits = true;
  cfg.start_vertex = source;
  internal::PprStepper<Store> stepper{store, config.stop_probability};
  const WalkResult result = RunWalks(store, cfg, stepper, pool);

  uint64_t total = 0;
  for (const uint32_t c : result.visit_counts) {
    total += c;
  }
  // Always one score per vertex, even when the engine ran no walks (e.g. an
  // out-of-range source leaves visit_counts empty).
  std::vector<double> scores(store.NumVertices(), 0.0);
  if (total > 0) {
    for (std::size_t v = 0; v < result.visit_counts.size(); ++v) {
      scores[v] = static_cast<double>(result.visit_counts[v]) /
                  static_cast<double>(total);
    }
  }
  return scores;
}

template <SamplingStore Store>
double SimRankEstimate(const Store& store, graph::VertexId a, graph::VertexId b,
                       double decay, uint64_t num_pairs, uint32_t max_length,
                       uint64_t seed) {
  if (a == b) {
    return 1.0;
  }
  double total = 0.0;
  for (uint64_t pair = 0; pair < num_pairs; ++pair) {
    util::Rng rng = util::Rng::ForStream(seed, pair);
    graph::VertexId x = a;
    graph::VertexId y = b;
    for (uint32_t t = 1; t <= max_length; ++t) {
      x = store.SampleNeighbor(x, rng);
      y = store.SampleNeighbor(y, rng);
      if (x == graph::kInvalidVertex || y == graph::kInvalidVertex) {
        break;
      }
      if (x == y) {
        // First meeting at time t contributes c^t.
        double contribution = 1.0;
        for (uint32_t i = 0; i < t; ++i) {
          contribution *= decay;
        }
        total += contribution;
        break;
      }
    }
  }
  return total / static_cast<double>(num_pairs);
}

template <SamplingStore Store>
std::vector<graph::VertexId> RandomWalkDomination(const Store& store,
                                                  std::size_t k,
                                                  uint32_t walk_length,
                                                  uint64_t seed,
                                                  util::ThreadPool* pool) {
  WalkConfig cfg;
  cfg.walk_length = walk_length;
  cfg.seed = seed;
  cfg.record_paths = true;
  const WalkResult corpus = RunDeepWalk(store, cfg, pool);

  // Derived from the corpus itself, so it can't desync from however the
  // engine resolved the walker count.
  const std::size_t num_walks =
      corpus.path_offsets.empty() ? 0 : corpus.path_offsets.size() - 1;
  // vertex -> walks it appears on.
  std::vector<std::vector<uint32_t>> covers(store.NumVertices());
  for (std::size_t w = 0; w < num_walks; ++w) {
    for (uint64_t i = corpus.path_offsets[w]; i < corpus.path_offsets[w + 1];
         ++i) {
      auto& bucket = covers[corpus.paths[i]];
      if (bucket.empty() || bucket.back() != static_cast<uint32_t>(w)) {
        bucket.push_back(static_cast<uint32_t>(w));
      }
    }
  }
  std::vector<bool> covered(num_walks, false);
  std::vector<graph::VertexId> seeds;
  seeds.reserve(k);
  for (std::size_t round = 0; round < k; ++round) {
    graph::VertexId best = graph::kInvalidVertex;
    std::size_t best_gain = 0;
    for (graph::VertexId v = 0; v < covers.size(); ++v) {
      std::size_t gain = 0;
      for (uint32_t w : covers[v]) {
        gain += covered[w] ? 0 : 1;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    if (best == graph::kInvalidVertex) {
      break;  // everything coverable is covered
    }
    for (uint32_t w : covers[best]) {
      covered[w] = true;
    }
    seeds.push_back(best);
  }
  return seeds;
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_ANALYTICS_H_
