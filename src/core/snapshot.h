// Store persistence: checkpoint a BingoStore's graph to disk and rebuild
// the store from it.
//
// The sampling structures are derived state (Theorem 4.1 makes them a pure
// function of the adjacency + config), so a snapshot is exactly the
// weighted edge multiset; loading rebuilds groups and alias tables in
// O(E·K) — the same cost as the initial bulk load.
//
// Snapshots are written in the *canonical edge order*: vertex-major, each
// vertex's out-edges stably sorted by timestamp. Bulk load preserves the
// stored timestamps, so per-vertex (timestamp, order) — exactly what the
// duplicate-edge deletion rule (§5.2) and the temporal decay pipeline
// consult — survives the round trip, and rebuilding from the same snapshot
// is fully deterministic: two loads of one snapshot produce bit-identical
// stores, walks included. The WAL-backed service layer (walk/service.h)
// leans on exactly this to make crash recovery reproduce the live store bit
// for bit.
//
// On-disk format: a graph::WriteEdgeFile edge file (graph/io.h) whose
// checksummed header carries the format version, a fingerprint of the BingoConfig the store was built with (a
// snapshot restored under a different config would imply different sampling
// structures), the true vertex count (trailing isolated vertices survive
// the round trip), the edge count, the WAL sequence number the snapshot
// covers, and the logical decay epoch; then the packed 20-byte edge records
// {src, dst, timestamp, bias} with their own CRC. Files are written
// atomically (temp + fsync + rename), so a crash mid-save never destroys
// the previous good snapshot. Version 3 is the only supported version:
// files of older versions are rejected, as are records whose ids reach
// the header's vertex count or whose bias is negative or not finite.

#ifndef BINGO_SRC_CORE_SNAPSHOT_H_
#define BINGO_SRC_CORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "src/core/bingo_store.h"
#include "src/graph/io.h"

namespace bingo::core {

// Parsed snapshot header.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t config_fingerprint = 0;
  graph::VertexId num_vertices = 0;
  uint64_t num_edges = 0;
  // Updates up to and including this WAL sequence number are folded into
  // the snapshot; recovery replays only records with seq > wal_seq.
  uint64_t wal_seq = 0;
  // Logical decay epoch at save time. Mutable temporal state: carried in the header, excluded from the fingerprint.
  uint64_t logical_epoch = 0;
};

// Stable hash of the config knobs that shape sampling structures. Stored in
// the header and checked on load: restoring under a different config is an
// error, not a silent behavior change.
uint64_t ConfigFingerprint(const BingoConfig& config);

// The canonical edge list of a graph: vertex-major, per-vertex in insertion
// timestamp order — the order snapshots persist and rebuilds replay.
graph::WeightedEdgeList CanonicalEdgeList(const graph::DynamicGraph& g);

// Writes `edges` as the snapshot of a `num_vertices`-vertex graph at `path`
// (atomically), in the order given: pass CanonicalEdgeList(g) to persist
// g. On success `*bytes_written` (if given) receives the file size.
bool SaveEdgeSnapshot(const graph::WeightedEdgeList& edges,
                      graph::VertexId num_vertices, const BingoConfig& config,
                      const std::string& path, uint64_t wal_seq = 0,
                      uint64_t* bytes_written = nullptr);

// Writes `g`'s live edges as a snapshot at `path`: SaveEdgeSnapshot over
// CanonicalEdgeList(g).
bool SaveGraphSnapshot(const graph::DynamicGraph& g, const BingoConfig& config,
                       const std::string& path, uint64_t wal_seq = 0,
                       uint64_t* bytes_written = nullptr);

// Convenience wrapper over SaveGraphSnapshot.
bool SaveSnapshot(const BingoStore& store, const std::string& path,
                  uint64_t wal_seq = 0);

// Reads the edge section (and header) without building a store. Returns
// false on missing, corrupt or retired-version files.
bool LoadSnapshotEdges(const std::string& path, graph::WeightedEdgeList& edges,
                       SnapshotInfo* info = nullptr);

// Streams the edge section of a snapshot one decoded chunk at a time —
// O(chunk) memory instead of materializing the whole edge list — in the
// canonical vertex-major order the file stores. `*info` (if given) is
// filled from the header before the first chunk. `fn` returning false
// aborts the stream (and the call returns false). The payload CRC is
// verified after the last record, so on a false return the caller must
// discard whatever `fn` accumulated: the delivered records are tentative
// until the call returns true.
bool StreamSnapshotEdges(const std::string& path, SnapshotInfo* info,
                         const graph::EdgeChunkFn& fn);

// Rebuilds a store from a snapshot. Returns nullptr on I/O failure, on a
// corrupt file, or when the snapshot's config fingerprint does not match
// `config`. `num_vertices` overrides the vertex count when larger than the
// header's (0 = the header's count).
std::unique_ptr<BingoStore> LoadSnapshot(const std::string& path,
                                         BingoConfig config = {},
                                         graph::VertexId num_vertices = 0,
                                         util::ThreadPool* pool = nullptr);

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_SNAPSHOT_H_
