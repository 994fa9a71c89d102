#include "src/graph/generators.h"

#include <algorithm>
#include <cassert>

namespace bingo::graph {

EdgePairList GenerateRmat(int scale, uint64_t num_edges, util::Rng& rng,
                          const RmatParams& params) {
  assert(scale >= 1 && scale <= 31);
  EdgePairList edges;
  edges.reserve(num_edges);
  const VertexId n = VertexId{1} << scale;
  for (uint64_t e = 0; e < num_edges; ++e) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int level = 0; level < scale; ++level) {
      // Perturb quadrant probabilities per level (standard R-MAT smoothing).
      const double jitter = 1.0 + params.noise * (rng.NextUnit() - 0.5);
      const double a = params.a * jitter;
      const double b = params.b * jitter;
      const double c = params.c * jitter;
      const double d = 1.0 - params.a - params.b - params.c;
      const double total = a + b + c + d;
      const double r = rng.NextUnit() * total;
      src <<= 1;
      dst <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        dst |= 1;
      } else if (r < a + b + c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    edges.push_back(EdgePair{src % n, dst % n});
  }
  return edges;
}

EdgePairList GenerateUniform(VertexId num_vertices, uint64_t num_edges,
                             util::Rng& rng) {
  EdgePairList edges;
  edges.reserve(num_edges);
  for (uint64_t e = 0; e < num_edges; ++e) {
    edges.push_back(EdgePair{static_cast<VertexId>(rng.NextBounded(num_vertices)),
                             static_cast<VertexId>(rng.NextBounded(num_vertices))});
  }
  return edges;
}

EdgePairList GenerateRing(VertexId num_vertices, uint32_t k) {
  EdgePairList edges;
  edges.reserve(static_cast<uint64_t>(num_vertices) * k);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (uint32_t i = 1; i <= k; ++i) {
      edges.push_back(EdgePair{v, static_cast<VertexId>((v + i) % num_vertices)});
    }
  }
  return edges;
}

void MakeUndirected(EdgePairList& edges) {
  const std::size_t original = edges.size();
  edges.reserve(original * 2);
  for (std::size_t i = 0; i < original; ++i) {
    edges.push_back(EdgePair{edges[i].dst, edges[i].src});
  }
}

void Canonicalize(EdgePairList& edges) {
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const EdgePair& e) { return e.src == e.dst; }),
              edges.end());
  std::sort(edges.begin(), edges.end(), [](const EdgePair& x, const EdgePair& y) {
    return x.src != y.src ? x.src < y.src : x.dst < y.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const EdgePair& x, const EdgePair& y) {
                            return x.src == y.src && x.dst == y.dst;
                          }),
              edges.end());
}

}  // namespace bingo::graph
