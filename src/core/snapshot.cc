#include "src/core/snapshot.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "src/graph/io.h"
#include "src/util/serial.h"

namespace bingo::core {

namespace {

using util::AppendPod;
using util::ReadPod;

constexpr uint64_t kSnapshotMagic = 0x42494e474f534e50ULL;  // "BINGOSNP"
constexpr uint32_t kSnapshotVersion = 3;
// magic, version, reserved, fingerprint, vertices, edges, wal_seq,
// logical_epoch (then the header CRC, see graph::WriteEdgeFile)
constexpr std::size_t kSnapshotHeaderFieldBytes =
    8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;

}  // namespace

uint64_t ConfigFingerprint(const BingoConfig& config) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(config.adaptive.adaptive ? 1 : 0);
  mix(std::bit_cast<uint64_t>(config.adaptive.alpha_percent));
  mix(std::bit_cast<uint64_t>(config.adaptive.beta_percent));
  mix(std::bit_cast<uint64_t>(config.lambda));
  mix(static_cast<uint64_t>(config.decimal_policy));
  // The bias pipeline's static parameters shape every stored bias; the
  // logical epoch is mutable state (snapshot header), deliberately absent.
  mix(PipelineFingerprint(config.pipeline));
  return h;
}

graph::WeightedEdgeList CanonicalEdgeList(const graph::DynamicGraph& g) {
  graph::WeightedEdgeList edges;
  edges.reserve(g.NumEdges());
  const auto by_timestamp = [](const graph::WeightedEdge& a,
                               const graph::WeightedEdge& b) {
    return a.timestamp < b.timestamp;
  };
  for (graph::VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto first = static_cast<std::ptrdiff_t>(edges.size());
    for (const graph::Edge& e : g.Neighbors(v)) {
      edges.push_back(graph::WeightedEdge{v, e.dst, e.bias, e.timestamp});
    }
    // Timestamp order: the adjacency array's index order is not timestamp
    // order after swap-with-tail deletions, and the duplicate-edge deletion
    // rule keys on per-vertex insertion order. Stable: epoch-stamped
    // duplicates can share a timestamp, and ties must keep the adjacency
    // order (the same (timestamp, index) order the duplicate-deletion rule
    // consults). Most vertices are already ordered and skip the sort.
    if (!std::is_sorted(edges.begin() + first, edges.end(), by_timestamp)) {
      std::stable_sort(edges.begin() + first, edges.end(), by_timestamp);
    }
  }
  return edges;
}

bool SaveGraphSnapshot(const graph::DynamicGraph& g, const BingoConfig& config,
                       const std::string& path, uint64_t wal_seq,
                       uint64_t* bytes_written) {
  return SaveEdgeSnapshot(CanonicalEdgeList(g), g.NumVertices(), config, path,
                          wal_seq, bytes_written);
}

bool SaveEdgeSnapshot(const graph::WeightedEdgeList& edges,
                      graph::VertexId num_vertices, const BingoConfig& config,
                      const std::string& path, uint64_t wal_seq,
                      uint64_t* bytes_written) {
  std::string header;
  AppendPod(header, kSnapshotMagic);
  AppendPod(header, kSnapshotVersion);
  AppendPod(header, uint32_t{0});  // reserved
  AppendPod(header, ConfigFingerprint(config));
  AppendPod(header, static_cast<uint64_t>(num_vertices));
  AppendPod(header, static_cast<uint64_t>(edges.size()));
  AppendPod(header, wal_seq);
  AppendPod(header, static_cast<uint64_t>(config.logical_epoch));
  return graph::WriteEdgeFile(path, std::move(header), edges, bytes_written);
}

bool SaveSnapshot(const BingoStore& store, const std::string& path,
                  uint64_t wal_seq) {
  return SaveGraphSnapshot(store.Graph(), store.Config(), path, wal_seq);
}

bool LoadSnapshotEdges(const std::string& path, graph::WeightedEdgeList& edges,
                       SnapshotInfo* info) {
  SnapshotInfo parsed;
  edges.clear();
  const bool ok = StreamSnapshotEdges(
      path, &parsed, [&](std::span<const graph::WeightedEdge> records) {
        // ReadEdgeFile checks the count against the file size
        // before the first records arrive.
        if (edges.empty()) {
          edges.reserve(parsed.num_edges);
        }
        edges.insert(edges.end(), records.begin(), records.end());
        return true;
      });
  if (ok && info != nullptr) {
    *info = parsed;
  }
  return ok;
}

bool StreamSnapshotEdges(const std::string& path, SnapshotInfo* info,
                         const graph::EdgeChunkFn& fn) {
  const auto parse = [info](std::string_view fields, uint64_t& count,
                            graph::VertexId& id_bound) {
    SnapshotInfo parsed;
    std::size_t offset = 0;
    uint64_t magic = 0;
    uint32_t reserved = 0;
    uint64_t num_vertices = 0;
    if (!ReadPod(fields, offset, magic) ||
        !ReadPod(fields, offset, parsed.version) ||
        !ReadPod(fields, offset, reserved) ||
        !ReadPod(fields, offset, parsed.config_fingerprint) ||
        !ReadPod(fields, offset, num_vertices) ||
        !ReadPod(fields, offset, parsed.num_edges) ||
        !ReadPod(fields, offset, parsed.wal_seq) ||
        !ReadPod(fields, offset, parsed.logical_epoch) ||
        magic != kSnapshotMagic || parsed.version != kSnapshotVersion ||
        num_vertices > graph::kInvalidVertex) {
      return false;
    }
    parsed.num_vertices = static_cast<graph::VertexId>(num_vertices);
    if (info != nullptr) {
      *info = parsed;  // callers get counts up front for pre-sizing
    }
    count = parsed.num_edges;
    id_bound = parsed.num_vertices;
    return true;
  };
  return graph::ReadEdgeFile(path, kSnapshotHeaderFieldBytes, parse, fn);
}

std::unique_ptr<BingoStore> LoadSnapshot(const std::string& path,
                                         BingoConfig config,
                                         graph::VertexId num_vertices,
                                         util::ThreadPool* pool) {
  graph::WeightedEdgeList edges;
  SnapshotInfo info;
  if (!LoadSnapshotEdges(path, edges, &info) ||
      info.config_fingerprint != ConfigFingerprint(config)) {
    return nullptr;  // different config => different sampling structures
  }
  // Temporal state rides in the header, not the fingerprint: resume the
  // logical clock where the snapshot left it so decay composition matches.
  config.logical_epoch = static_cast<uint32_t>(info.logical_epoch);
  return std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(std::max(num_vertices, info.num_vertices),
                                     edges),
      config, pool);
}

}  // namespace bingo::core
