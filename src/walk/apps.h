// The paper's random walk applications (§2.2, §6.1), store-agnostic:
//
//   DeepWalk       — biased first-order walks, fixed length (default 80).
//   node2vec       — second-order walks; the transition probability is
//                    modulated by f(w, v) in {1/p, 1, 1/q} depending on the
//                    distance between the previous vertex w and candidate v
//                    (Eq 1). Sampling uses KnightKing's approach, which the
//                    paper adopts (§7.3): draw from the static structure,
//                    then accept with probability f / f_max.
//   PPR            — walks with termination probability 1/80; the output is
//                    per-vertex visit frequencies.
//   SimpleSampling — unbiased uniform walks (the random_walk_simple_sampling
//                    kernel).
//
// Every application is written against the store concept (src/walk/store.h)
// and runs unchanged on BingoStore, the baseline stores, and
// PartitionedBingoStore. First-order apps need only SamplingStore; node2vec
// and uniform sampling probe adjacency and need AdjacencyStore.

#ifndef BINGO_SRC_WALK_APPS_H_
#define BINGO_SRC_WALK_APPS_H_

#include <algorithm>
#include <limits>
#include <span>
#include <variant>
#include <vector>

#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct Node2vecParams {
  double p = 0.5;  // return parameter
  double q = 2.0;  // in-out parameter
};

// Typed / metapath walks. Vertex types partition the id space modularly —
// TypeOf(v) = v % num_types, the same rule core::BiasPipeline uses for its
// type gate — and a walk follows a cyclic pattern of types: a walker's
// step s (0-based) must land on a vertex of type pattern[(s + 1) %
// pattern.size()], with the start conventionally occupying pattern[0].
// Two-mode bipartite walks (user–item) are the two-type metapath {0, 1}.
struct MetapathParams {
  uint32_t num_types = 2;
  std::vector<uint32_t> pattern = {0, 1};

  uint32_t TypeOf(graph::VertexId v) const {
    return num_types <= 1 ? 0 : static_cast<uint32_t>(v % num_types);
  }
  bool Valid() const {
    if (num_types == 0 || pattern.empty()) {
      return false;
    }
    return std::all_of(pattern.begin(), pattern.end(),
                       [&](uint32_t t) { return t < num_types; });
  }
};

namespace internal {

template <SamplingStore Store>
struct FirstOrderStepper {
  // Declares that Next is exactly one store.SampleNeighbor(cur, rng) —
  // no prev dependence, no extra variates — so the fused driver
  // (walk/fused.h) may resolve same-vertex walker groups through
  // SampleNeighborBatch without changing any walker's variate sequence.
  static constexpr bool kFirstOrder = true;
  const Store& store;
  graph::VertexId Next(graph::VertexId cur, graph::VertexId /*prev*/,
                       util::Rng& rng) const {
    return store.SampleNeighbor(cur, rng);
  }
  bool Terminate(util::Rng& /*rng*/) const { return false; }
};

template <SamplingStore Store>
struct PprStepper {
  // Next is one SampleNeighbor; the stop draw happens in Terminate, after
  // the step, so batched Next resolution keeps per-walker draw order.
  static constexpr bool kFirstOrder = true;
  const Store& store;
  double stop_probability;
  graph::VertexId Next(graph::VertexId cur, graph::VertexId /*prev*/,
                       util::Rng& rng) const {
    return store.SampleNeighbor(cur, rng);
  }
  bool Terminate(util::Rng& rng) const { return rng.NextBool(stop_probability); }
};

template <AdjacencyStore Store>
struct Node2vecStepper {
  // Second-order: Next's draw count depends on prev (rejection loop), so
  // the fused driver keeps it scalar per walker (prefetch still applies).
  static constexpr bool kFirstOrder = false;
  const Store& store;
  Node2vecParams params;
  double f_max;
  // Bounded retry count guards against pathological all-reject states
  // (e.g. p and q both huge on a vertex whose only neighbor is prev).
  static constexpr int kMaxTrials = 128;

  // f(prev, candidate) in {1/p, 1, 1/q} by distance (Eq 1).
  double BiasFactor(graph::VertexId prev, graph::VertexId candidate) const {
    if (candidate == prev) {
      return 1.0 / params.p;  // distance 0
    }
    if (store.HasEdge(prev, candidate)) {
      return 1.0;  // distance 1
    }
    return 1.0 / params.q;  // distance 2
  }

  graph::VertexId Next(graph::VertexId cur, graph::VertexId prev,
                       util::Rng& rng) const {
    if (prev == graph::kInvalidVertex) {
      return store.SampleNeighbor(cur, rng);  // first hop is first-order
    }
    for (int trial = 0; trial < kMaxTrials; ++trial) {
      const graph::VertexId candidate = store.SampleNeighbor(cur, rng);
      if (candidate == graph::kInvalidVertex) {
        return graph::kInvalidVertex;
      }
      if (rng.NextUnit() * f_max < BiasFactor(prev, candidate)) {
        return candidate;
      }
    }
    // All trials rejected (acceptance probability can be arbitrarily small
    // when p and q are huge). Killing the walker here would bias the corpus
    // toward truncated walks; instead pay one exact f-weighted draw over the
    // adjacency — the distribution the rejection loop was approximating.
    return ExactDraw(cur, prev, rng);
  }

  graph::VertexId ExactDraw(graph::VertexId cur, graph::VertexId prev,
                            util::Rng& rng) const {
    const std::span<const graph::Edge> adj = store.NeighborsOf(cur);
    double total = 0.0;
    for (const graph::Edge& e : adj) {
      total += e.bias * BiasFactor(prev, e.dst);
    }
    if (!(total > 0.0)) {
      return graph::kInvalidVertex;  // no out-edges (or zero-weight ones)
    }
    double draw = rng.NextUnit() * total;
    for (const graph::Edge& e : adj) {
      draw -= e.bias * BiasFactor(prev, e.dst);
      if (draw < 0.0) {
        return e.dst;
      }
    }
    return adj.back().dst;  // float round-off: clamp to the last cell
  }

  bool Terminate(util::Rng& /*rng*/) const { return false; }
};

template <AdjacencyStore Store>
struct MetapathStepper {
  // Step-aware (Next takes the step index): the eligible target type is a
  // function of the walk position, so the draw is an exact bias-weighted
  // scan over the type-matching neighbors — like node2vec's ExactDraw, it
  // stays scalar in the fused driver but gains the layout and prefetching.
  static constexpr bool kFirstOrder = false;
  const Store& store;
  MetapathParams params;

  graph::VertexId Next(graph::VertexId cur, graph::VertexId /*prev*/,
                       uint32_t step, util::Rng& rng) const {
    const uint32_t want =
        params.pattern[(step + 1) % params.pattern.size()];
    const std::span<const graph::Edge> adj = store.NeighborsOf(cur);
    double total = 0.0;
    for (const graph::Edge& e : adj) {
      if (params.TypeOf(e.dst) == want) {
        total += e.bias;
      }
    }
    if (!(total > 0.0)) {
      return graph::kInvalidVertex;  // no eligible neighbor: walker retires
    }
    double draw = rng.NextUnit() * total;
    graph::VertexId last = graph::kInvalidVertex;
    for (const graph::Edge& e : adj) {
      if (params.TypeOf(e.dst) != want) {
        continue;
      }
      last = e.dst;
      draw -= e.bias;
      if (draw < 0.0) {
        return e.dst;
      }
    }
    return last;  // float round-off: clamp to the last eligible cell
  }

  bool Terminate(util::Rng& /*rng*/) const { return false; }
};

template <AdjacencyStore Store>
struct UniformStepper {
  static constexpr bool kFirstOrder = false;
  const Store& store;
  graph::VertexId Next(graph::VertexId cur, graph::VertexId /*prev*/,
                       util::Rng& rng) const {
    const auto adj = store.NeighborsOf(cur);
    if (adj.empty()) {
      return graph::kInvalidVertex;
    }
    return adj[rng.NextBounded(adj.size())].dst;
  }
  bool Terminate(util::Rng& /*rng*/) const { return false; }
};

}  // namespace internal

// The paper parameterizes PPR by stop probability (expected length 1/p);
// the 16x cap only guards the geometric tail. Saturates rather than wraps:
// a caller-supplied length near 2^32 must not collapse the cap to ~0.
inline uint32_t PprCappedWalkLength(uint32_t walk_length) {
  const uint32_t base = std::max<uint32_t>(walk_length, 1);
  return base > std::numeric_limits<uint32_t>::max() / 16
             ? std::numeric_limits<uint32_t>::max()
             : base * 16;
}

// --- app descriptors ---------------------------------------------------------
//
// One per application: its parameters, its config normalization
// (Normalize), and the stepper it drives over a store (StepperFor). Every
// driver takes a descriptor through one entry point — RunApp (engine.h),
// RunPartitionedApp (partitioned.h), RunFusedApp (fused.h), RunOocApp
// (ooc.h) — so each app's normalization is written once and every app runs
// on every driver.

struct DeepWalkApp {
  WalkConfig Normalize(WalkConfig cfg) const { return cfg; }
  template <SamplingStore Store>
  internal::FirstOrderStepper<Store> StepperFor(const Store& store) const {
    return {store};
  }
};

struct Node2vecApp {
  Node2vecParams params;
  WalkConfig Normalize(WalkConfig cfg) const { return cfg; }
  template <AdjacencyStore Store>
  internal::Node2vecStepper<Store> StepperFor(const Store& store) const {
    // The rejection bound f_max = max f(·,·).
    return {store, params, std::max({1.0 / params.p, 1.0, 1.0 / params.q})};
  }
};

// PPR outputs visit frequencies, over walks capped at PprCappedWalkLength.
struct PprApp {
  double stop_probability = 1.0 / 80.0;
  WalkConfig Normalize(WalkConfig cfg) const {
    cfg.count_visits = true;
    cfg.walk_length = PprCappedWalkLength(cfg.walk_length);
    return cfg;
  }
  template <SamplingStore Store>
  internal::PprStepper<Store> StepperFor(const Store& store) const {
    return {store, stop_probability};
  }
};

struct SimpleSamplingApp {
  WalkConfig Normalize(WalkConfig cfg) const { return cfg; }
  template <AdjacencyStore Store>
  internal::UniformStepper<Store> StepperFor(const Store& store) const {
    return {store};
  }
};

// Metapath-constrained walks (two-mode bipartite with the default {0, 1}
// pattern): exact per-step draws over the type-matching neighbors.
struct MetapathApp {
  MetapathParams params;
  WalkConfig Normalize(WalkConfig cfg) const { return cfg; }
  template <AdjacencyStore Store>
  internal::MetapathStepper<Store> StepperFor(const Store& store) const {
    return {store, params};
  }
};

// Any one app, chosen at run time (the CLI): std::visit hands the held
// descriptor to a driver's entry point.
using AnyWalkApp = std::variant<DeepWalkApp, Node2vecApp, PprApp,
                                SimpleSamplingApp, MetapathApp>;

// --- engine entry points (the public API) ------------------------------------

template <SamplingStore Store>
WalkResult RunDeepWalk(const Store& store, const WalkConfig& cfg,
                       util::ThreadPool* pool = nullptr) {
  return RunApp(store, cfg, DeepWalkApp{}, pool);
}

template <AdjacencyStore Store>
WalkResult RunNode2vec(const Store& store, const WalkConfig& cfg,
                       const Node2vecParams& params = {},
                       util::ThreadPool* pool = nullptr) {
  return RunApp(store, cfg, Node2vecApp{params}, pool);
}

template <SamplingStore Store>
WalkResult RunPpr(const Store& store, const WalkConfig& cfg,
                  double stop_probability = 1.0 / 80.0,
                  util::ThreadPool* pool = nullptr) {
  return RunApp(store, cfg, PprApp{stop_probability}, pool);
}

template <AdjacencyStore Store>
WalkResult RunSimpleSampling(const Store& store, const WalkConfig& cfg,
                             util::ThreadPool* pool = nullptr) {
  return RunApp(store, cfg, SimpleSamplingApp{}, pool);
}

template <AdjacencyStore Store>
WalkResult RunMetapath(const Store& store, const WalkConfig& cfg,
                       const MetapathParams& params = {},
                       util::ThreadPool* pool = nullptr) {
  return RunApp(store, cfg, MetapathApp{params}, pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_APPS_H_
