#include "src/core/snapshot.h"

#include <algorithm>
#include <bit>
#include <fstream>

#include "src/graph/io.h"
#include "src/util/checksum.h"
#include "src/util/fileio.h"
#include "src/util/serial.h"

namespace bingo::core {

namespace {

using util::AppendPod;
using util::ReadPod;

constexpr uint64_t kSnapshotMagic = 0x42494e474f534e50ULL;  // "BINGOSNP"
// v3 adds the logical epoch to the header and the timestamp to each edge
// record; v2 files (no temporal state) still load with epoch/timestamps 0.
constexpr uint32_t kSnapshotVersion = 3;
// magic, version, reserved, fingerprint, vertices, edges, wal_seq, crc
constexpr std::size_t kSnapshotHeaderBytesV2 = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4;
// ... plus logical_epoch u64 before the crc
constexpr std::size_t kSnapshotHeaderBytesV3 = kSnapshotHeaderBytesV2 + 8;

// v2 edge record: {src u32, dst u32, bias f64} — the pre-timestamp
// WeightedEdge layout, serialized raw. The in-memory struct has grown past
// it, so v2 decoding goes through this packed mirror.
struct PackedEdgeV2 {
  graph::VertexId src;
  graph::VertexId dst;
  double bias;
};
static_assert(sizeof(PackedEdgeV2) == 16,
              "v2 record layout must stay 16 bytes");
// v3 edge record: {src u32, dst u32, timestamp u32, bias f64}, packed
// field-wise to 20 bytes (the in-memory struct carries padding).
constexpr std::size_t kEdgeRecordBytesV3 = 4 + 4 + 4 + 8;

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
  util::AtomicFileWriter writer(path);
  if (!writer.ok()) {
    return false;
  }
  std::string header;
  AppendPod(header, kSnapshotMagic);
  AppendPod(header, kSnapshotVersion);
  AppendPod(header, uint32_t{0});  // reserved
  AppendPod(header, ConfigFingerprint(config));
  AppendPod(header, static_cast<uint64_t>(num_vertices));
  AppendPod(header, static_cast<uint64_t>(edges.size()));
  AppendPod(header, wal_seq);
  AppendPod(header, static_cast<uint64_t>(config.logical_epoch));
  AppendPod(header, util::Crc32c(header.data(), header.size()));
  if (!writer.Write(header.data(), header.size())) {
    return false;
  }
  // Packed 20-byte records, serialized field-wise in 1 MiB chunks with a
  // streaming CRC (the in-memory struct's padding never reaches disk).
  uint32_t payload_crc = 0;
  std::string chunk;
  for (const graph::WeightedEdge& e : edges) {
    AppendPod(chunk, e.src);
    AppendPod(chunk, e.dst);
    AppendPod(chunk, e.timestamp);
    AppendPod(chunk, e.bias);
    if (chunk.size() >= (1u << 20)) {
      payload_crc = util::Crc32c(chunk.data(), chunk.size(), payload_crc);
      if (!writer.Write(chunk.data(), chunk.size())) {
        return false;
      }
      chunk.clear();
    }
  }
  if (!chunk.empty()) {
    payload_crc = util::Crc32c(chunk.data(), chunk.size(), payload_crc);
    if (!writer.Write(chunk.data(), chunk.size())) {
      return false;
    }
  }
  if (!writer.Write(&payload_crc, sizeof(payload_crc))) {
    return false;
  }
  if (!writer.Commit()) {
    return false;
  }
  if (bytes_written != nullptr) {
    *bytes_written = writer.bytes_written();
  }
  return true;
}

bool SaveSnapshot(const BingoStore& store, const std::string& path,
                  uint64_t wal_seq) {
  return SaveGraphSnapshot(store.Graph(), store.Config(), path, wal_seq);
}

bool LoadSnapshotEdges(const std::string& path, graph::WeightedEdgeList& edges,
                       SnapshotInfo* info) {
  // Stream the edge section straight into the vector (this is the cold-
  // recovery path; no second whole-file buffer).
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  std::string header(static_cast<std::size_t>(std::min<uint64_t>(
                         file_size, kSnapshotHeaderBytesV3)),
                     '\0');
  in.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (!in) {
    return false;
  }
  SnapshotInfo parsed;
  std::size_t offset = 0;
  uint64_t magic = 0;
  if (!ReadPod(header, offset, magic)) {
    return false;
  }
  if (magic != kSnapshotMagic) {
    // Legacy snapshots were plain binary edge lists (graph/io.h format).
    if (!graph::LoadWeightedEdgesBinary(path, edges)) {
      return false;
    }
    parsed.version = 1;
    parsed.num_vertices = graph::ImpliedVertexCount(edges);
    parsed.num_edges = edges.size();
    if (info != nullptr) {
      *info = parsed;
    }
    return true;
  }

  uint32_t reserved = 0;
  uint64_t num_vertices = 0;
  uint32_t header_crc = 0;
  if (!ReadPod(header, offset, parsed.version) ||
      !ReadPod(header, offset, reserved) ||
      !ReadPod(header, offset, parsed.config_fingerprint) ||
      !ReadPod(header, offset, num_vertices) ||
      !ReadPod(header, offset, parsed.num_edges) ||
      !ReadPod(header, offset, parsed.wal_seq)) {
    return false;
  }
  if (parsed.version >= 3 && !ReadPod(header, offset, parsed.logical_epoch)) {
    return false;
  }
  const std::size_t crc_span = offset;
  if (!ReadPod(header, offset, header_crc) || parsed.version < 2 ||
      parsed.version > kSnapshotVersion ||
      header_crc != util::Crc32c(header.data(), crc_span) ||
      num_vertices > graph::kInvalidVertex) {
    return false;
  }
  parsed.num_vertices = static_cast<graph::VertexId>(num_vertices);

  // Untrusted count: bound it by the bytes actually present before
  // allocating anything.
  const std::size_t payload_offset = parsed.version >= 3
                                         ? kSnapshotHeaderBytesV3
                                         : kSnapshotHeaderBytesV2;
  const std::size_t record_bytes =
      parsed.version >= 3 ? kEdgeRecordBytesV3 : sizeof(PackedEdgeV2);
  if (file_size < payload_offset) {
    return false;
  }
  const uint64_t remaining = file_size - payload_offset;
  if (parsed.num_edges > remaining / record_bytes) {
    return false;
  }
  const std::size_t payload_bytes =
      static_cast<std::size_t>(parsed.num_edges) * record_bytes;
  std::string payload(payload_bytes, '\0');
  in.seekg(static_cast<std::streamoff>(payload_offset));
  in.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  uint32_t payload_crc = 0;
  in.read(reinterpret_cast<char*>(&payload_crc), sizeof(payload_crc));
  if (!in || payload_crc != util::Crc32c(payload.data(), payload.size())) {
    return false;
  }
  // Decode the packed records field-wise (the CRC above covers the packed
  // bytes; the in-memory struct's padding never touches disk).
  edges.clear();
  edges.reserve(parsed.num_edges);
  std::size_t pos = 0;
  for (uint64_t i = 0; i < parsed.num_edges; ++i) {
    graph::WeightedEdge e{};
    ReadPod(payload, pos, e.src);
    ReadPod(payload, pos, e.dst);
    if (parsed.version >= 3) {
      ReadPod(payload, pos, e.timestamp);
    }
    ReadPod(payload, pos, e.bias);
    edges.push_back(e);
  }
  if (info != nullptr) {
    *info = parsed;
  }
  return true;
}

bool StreamSnapshotEdges(
    const std::string& path, SnapshotInfo* info,
    const std::function<bool(const graph::WeightedEdge&)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kSnapshotHeaderBytesV2) {
    return false;
  }
  in.seekg(0, std::ios::beg);
  std::string header(static_cast<std::size_t>(std::min<uint64_t>(
                         file_size, kSnapshotHeaderBytesV3)),
                     '\0');
  in.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (!in) {
    return false;
  }
  SnapshotInfo parsed;
  std::size_t offset = 0;
  uint64_t magic = 0;
  uint32_t reserved = 0;
  uint64_t num_vertices = 0;
  uint32_t header_crc = 0;
  if (!ReadPod(header, offset, magic) || magic != kSnapshotMagic ||
      !ReadPod(header, offset, parsed.version) ||
      !ReadPod(header, offset, reserved) ||
      !ReadPod(header, offset, parsed.config_fingerprint) ||
      !ReadPod(header, offset, num_vertices) ||
      !ReadPod(header, offset, parsed.num_edges) ||
      !ReadPod(header, offset, parsed.wal_seq)) {
    return false;  // legacy v1 files (no magic) are not streamable
  }
  if (parsed.version >= 3 && !ReadPod(header, offset, parsed.logical_epoch)) {
    return false;
  }
  const std::size_t crc_span = offset;
  if (!ReadPod(header, offset, header_crc) || parsed.version < 2 ||
      parsed.version > kSnapshotVersion ||
      header_crc != util::Crc32c(header.data(), crc_span) ||
      num_vertices > graph::kInvalidVertex) {
    return false;
  }
  parsed.num_vertices = static_cast<graph::VertexId>(num_vertices);

  const std::size_t payload_offset = parsed.version >= 3
                                         ? kSnapshotHeaderBytesV3
                                         : kSnapshotHeaderBytesV2;
  const std::size_t record_bytes =
      parsed.version >= 3 ? kEdgeRecordBytesV3 : sizeof(PackedEdgeV2);
  if (file_size < payload_offset) {
    return false;
  }
  if (parsed.num_edges > (file_size - payload_offset) / record_bytes) {
    return false;
  }
  if (info != nullptr) {
    *info = parsed;  // callers get counts up front for pre-sizing
  }

  // Stream whole records in ~1 MiB chunks with a running CRC; the stored
  // payload CRC is checked after the final chunk.
  in.seekg(static_cast<std::streamoff>(payload_offset));
  const std::size_t records_per_chunk =
      std::max<std::size_t>(1, (1u << 20) / record_bytes);
  std::string chunk;
  uint32_t payload_crc = 0;
  uint64_t remaining = parsed.num_edges;
  while (remaining > 0) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<uint64_t>(remaining, records_per_chunk));
    chunk.resize(take * record_bytes);
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    if (!in) {
      return false;
    }
    payload_crc = util::Crc32c(chunk.data(), chunk.size(), payload_crc);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < take; ++i) {
      graph::WeightedEdge e{};
      ReadPod(chunk, pos, e.src);
      ReadPod(chunk, pos, e.dst);
      if (parsed.version >= 3) {
        ReadPod(chunk, pos, e.timestamp);
      }
      ReadPod(chunk, pos, e.bias);
      if (!fn(e)) {
        return false;
      }
    }
    remaining -= take;
  }
  uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  return static_cast<bool>(in) && stored_crc == payload_crc;
}

std::unique_ptr<BingoStore> LoadSnapshot(const std::string& path,
                                         BingoConfig config,
                                         graph::VertexId num_vertices,
                                         util::ThreadPool* pool) {
  graph::WeightedEdgeList edges;
  SnapshotInfo info;
  if (!LoadSnapshotEdges(path, edges, &info)) {
    return nullptr;
  }
  if (info.version >= 2 &&
      info.config_fingerprint != ConfigFingerprint(config)) {
    return nullptr;  // different config => different sampling structures
  }
  // Temporal state rides in the header, not the fingerprint: resume the
  // logical clock where the snapshot left it so decay composition matches.
  config.logical_epoch = static_cast<uint32_t>(info.logical_epoch);
  const graph::VertexId n = std::max(
      {num_vertices, info.num_vertices, graph::ImpliedVertexCount(edges)});
  return std::make_unique<BingoStore>(graph::DynamicGraph::FromEdges(n, edges),
                                      config, pool);
}

}  // namespace bingo::core
