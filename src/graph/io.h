// Edge-list persistence so generated datasets and update streams can be
// saved and replayed across runs, plus the one edge-record codec every
// binary edge file shares (io binary files here, store snapshots in
// core/snapshot.h).
//
// Binary files are written in a checksummed frame (below) and saved
// atomically: the bytes land in a temp file that is fsync'd and renamed
// over the target, so a crash mid-save never destroys the previous good
// file. Loads validate the on-disk edge count against the actual file size
// before allocating, and verify header + payload CRCs. The binary edge
// list is format version 3 ("BINGOED3"); files of older versions
// ("BINGOEDG", "BINGOED2") are rejected.

#ifndef BINGO_SRC_GRAPH_IO_H_
#define BINGO_SRC_GRAPH_IO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "src/graph/types.h"

namespace bingo::graph {

// Text format: one "src dst bias" line per edge. Lines beginning with '#'
// or '%' are comments (SNAP / Konect conventions). The bias column is
// optional (default 1.0), but when present it must parse completely as a
// finite, non-negative number — "1 2 abc" is a corrupt record, not a
// bias-1 edge, and the load fails. So does an id of kInvalidVertex.
bool SaveWeightedEdgesText(const std::string& path, const WeightedEdgeList& edges);
bool LoadWeightedEdgesText(const std::string& path, WeightedEdgeList& edges);

// Binary format: an edge file (below) whose header fields are magic,
// version, reserved u32 and the edge count.
bool SaveWeightedEdgesBinary(const std::string& path, const WeightedEdgeList& edges);
bool LoadWeightedEdgesBinary(const std::string& path, WeightedEdgeList& edges);

// Number of vertices implied by an edge list (max id + 1).
VertexId ImpliedVertexCount(const WeightedEdgeList& edges);

// Edge file, little-endian:
//   header   format-specific fixed-size fields, then their CRC32C (u32)
//   records  packed 20-byte {src u32, dst u32, timestamp u32, bias f64}
//   trailer  CRC32C of the record bytes (u32)
// WriteEdgeFile and ReadEdgeFile are the one encoder and the one decoder
// of the record.

// Atomically writes `header_fields` and their CRC, then `edges` as
// records, then the payload CRC, in one chunked pass. On success
// `*bytes_written` (if given) receives the file size.
bool WriteEdgeFile(const std::string& path, std::string header_fields,
                   const WeightedEdgeList& edges,
                   uint64_t* bytes_written = nullptr);

// Parses CRC-checked header fields: sets the record count and the
// exclusive bound on vertex ids, or returns false to reject the file.
using EdgeHeaderParser = std::function<bool(
    std::string_view fields, uint64_t& count, VertexId& id_bound)>;

// Receives the records of one decoded chunk, in file order; returning
// false aborts the stream.
using EdgeChunkFn = std::function<bool(std::span<const WeightedEdge>)>;

// Streams the records of the edge file at `path`, whose header fields span
// `header_field_bytes`, to `fn` in file order, one decoded chunk (up to
// ~1 MiB of records) per call. The count `parse` returns is checked
// against the file size before anything is allocated; every record's src
// and dst must be below `id_bound` and its bias finite and non-negative
// before its chunk is handed over; the payload CRC is checked after the
// last record. On a false return the caller must discard whatever `fn`
// accumulated.
bool ReadEdgeFile(const std::string& path, std::size_t header_field_bytes,
                  const EdgeHeaderParser& parse, const EdgeChunkFn& fn);

}  // namespace bingo::graph

#endif  // BINGO_SRC_GRAPH_IO_H_
