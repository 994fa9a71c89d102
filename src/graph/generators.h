// Synthetic graph generators (substitution S2 in DESIGN.md).
//
// The paper evaluates on five public power-law graphs (SNAP/Konect). In this
// offline environment the bench datasets are generated with R-MAT using the
// Graph500 parameters, which reproduces the skewed degree distributions that
// drive the paper's group composition and baseline O(d) behaviours.

#ifndef BINGO_SRC_GRAPH_GENERATORS_H_
#define BINGO_SRC_GRAPH_GENERATORS_H_

#include <cstdint>

#include "src/graph/types.h"
#include "src/util/rng.h"

namespace bingo::graph {

struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  // d = 1 - a - b - c
  double noise = 0.1;  // per-level parameter perturbation, avoids exact grids
};

// R-MAT with 2^scale vertices and `num_edges` directed edges. `scale` must
// be in [1, 31]: the vertex count has to fit the 32-bit VertexId.
EdgePairList GenerateRmat(int scale, uint64_t num_edges, util::Rng& rng,
                          const RmatParams& params = {});

// Erdős–Rényi G(n, m): m uniformly random directed edges.
EdgePairList GenerateUniform(VertexId num_vertices, uint64_t num_edges,
                             util::Rng& rng);

// Ring lattice where each vertex connects to its k successors; deterministic
// and useful for tests that need known degrees.
EdgePairList GenerateRing(VertexId num_vertices, uint32_t k);

// Appends the reverse of every edge (undirected expansion).
void MakeUndirected(EdgePairList& edges);

// Removes self loops and exact duplicates, in place.
void Canonicalize(EdgePairList& edges);

}  // namespace bingo::graph

#endif  // BINGO_SRC_GRAPH_GENERATORS_H_
