#include "src/graph/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/util/checksum.h"
#include "src/util/fileio.h"
#include "src/util/serial.h"

namespace bingo::graph {

namespace {

using util::AppendPod;
using util::ReadPod;

constexpr uint64_t kMagic = 0x42494e474f454433ULL;  // "BINGOED3"
constexpr uint32_t kFormatVersion = 3;
// magic, version, reserved, count
constexpr std::size_t kHeaderFieldBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kRecordBytes = 4 + 4 + 4 + 8;
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

// A bias that can never have been produced by a valid save: corrupt record.
bool ValidBias(double bias) { return std::isfinite(bias) && bias >= 0.0; }

}  // namespace

bool SaveWeightedEdgesText(const std::string& path, const WeightedEdgeList& edges) {
  util::AtomicFileWriter writer(path);
  if (!writer.ok()) {
    return false;
  }
  std::string chunk = "# bingo weighted edge list: src dst bias\n";
  for (const WeightedEdge& e : edges) {
    std::ostringstream line;
    line << e.src << ' ' << e.dst << ' ' << e.bias << '\n';
    chunk += line.str();
    if (chunk.size() >= (1u << 20)) {
      if (!writer.Write(chunk.data(), chunk.size())) {
        return false;
      }
      chunk.clear();
    }
  }
  if (!chunk.empty() && !writer.Write(chunk.data(), chunk.size())) {
    return false;
  }
  return writer.Commit();
}

bool LoadWeightedEdgesText(const std::string& path, WeightedEdgeList& edges) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  edges.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      continue;
    }
    std::istringstream ss(line);
    WeightedEdge e{0, 0, 1.0};
    if (!(ss >> e.src >> e.dst) || e.src == kInvalidVertex ||
        e.dst == kInvalidVertex) {
      return false;
    }
    ss >> std::ws;
    if (!ss.eof()) {
      // Third column present: it must parse fully as a valid bias.
      if (!(ss >> e.bias) || !ValidBias(e.bias)) {
        return false;
      }
      ss >> std::ws;
      if (!ss.eof()) {
        return false;  // trailing garbage after the bias
      }
    }
    edges.push_back(e);
  }
  return true;
}

bool SaveWeightedEdgesBinary(const std::string& path, const WeightedEdgeList& edges) {
  std::string header;
  AppendPod(header, kMagic);
  AppendPod(header, kFormatVersion);
  AppendPod(header, uint32_t{0});  // reserved
  AppendPod(header, static_cast<uint64_t>(edges.size()));
  return WriteEdgeFile(path, std::move(header), edges);
}

bool LoadWeightedEdgesBinary(const std::string& path, WeightedEdgeList& edges) {
  edges.clear();
  uint64_t count = 0;
  const auto parse = [&count](std::string_view fields, uint64_t& n,
                              VertexId& id_bound) {
    std::size_t offset = 0;
    uint64_t magic = 0;
    uint32_t version = 0;
    uint32_t reserved = 0;
    id_bound = kInvalidVertex;
    if (!ReadPod(fields, offset, magic) || !ReadPod(fields, offset, version) ||
        !ReadPod(fields, offset, reserved) || !ReadPod(fields, offset, n)) {
      return false;
    }
    count = n;
    return magic == kMagic && version == kFormatVersion;
  };
  return ReadEdgeFile(path, kHeaderFieldBytes, parse,
                      [&](std::span<const WeightedEdge> records) {
                        // ReadEdgeFile checks the count against the file size
                        // before the first records arrive.
                        if (edges.empty()) {
                          edges.reserve(count);
                        }
                        edges.insert(edges.end(), records.begin(),
                                     records.end());
                        return true;
                      });
}

VertexId ImpliedVertexCount(const WeightedEdgeList& edges) {
  VertexId max_id = 0;
  for (const WeightedEdge& e : edges) {
    max_id = std::max({max_id, e.src, e.dst});
  }
  return edges.empty() ? 0 : max_id + 1;
}

bool WriteEdgeFile(const std::string& path, std::string header_fields,
                   const WeightedEdgeList& edges, uint64_t* bytes_written) {
  util::AtomicFileWriter writer(path);
  if (!writer.ok()) {
    return false;
  }
  AppendPod(header_fields,
            util::Crc32c(header_fields.data(), header_fields.size()));
  if (!writer.Write(header_fields.data(), header_fields.size())) {
    return false;
  }
  // Serialize field-wise in 1 MiB chunks, accumulating the payload CRC over
  // the packed byte stream (the in-memory struct's padding never reaches
  // disk).
  uint32_t payload_crc = 0;
  std::string chunk;
  for (const WeightedEdge& e : edges) {
    AppendPod(chunk, e.src);
    AppendPod(chunk, e.dst);
    AppendPod(chunk, e.timestamp);
    AppendPod(chunk, e.bias);
    if (chunk.size() >= kChunkBytes) {
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
  if (!writer.Write(&payload_crc, sizeof(payload_crc)) || !writer.Commit()) {
    return false;
  }
  if (bytes_written != nullptr) {
    *bytes_written = writer.bytes_written();
  }
  return true;
}

bool ReadEdgeFile(const std::string& path, std::size_t header_field_bytes,
                  const EdgeHeaderParser& parse, const EdgeChunkFn& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  const std::size_t header_bytes = header_field_bytes + sizeof(uint32_t);
  if (!in || file_size < header_bytes) {
    return false;
  }
  std::string header(header_bytes, '\0');
  in.read(header.data(), static_cast<std::streamsize>(header_bytes));
  std::size_t offset = header_field_bytes;
  uint32_t header_crc = 0;
  uint64_t count = 0;
  VertexId id_bound = 0;
  if (!in || !ReadPod(header, offset, header_crc) ||
      header_crc != util::Crc32c(header.data(), header_field_bytes) ||
      !parse(std::string_view(header).substr(0, header_field_bytes), count,
             id_bound)) {
    return false;
  }
  // The on-disk count is untrusted: bound it by the bytes actually present
  // before allocating, so a corrupt count cannot demand a multi-GB buffer.
  if (count > (file_size - header_bytes) / kRecordBytes) {
    return false;
  }
  // Stream whole records in ~1 MiB chunks with a running CRC, decoding and
  // validating each chunk before handing it over; the stored payload CRC is
  // checked after the final chunk.
  std::string chunk;
  std::vector<WeightedEdge> decoded;
  uint32_t payload_crc = 0;
  for (uint64_t remaining = count; remaining > 0;) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<uint64_t>(remaining, kChunkBytes / kRecordBytes));
    chunk.resize(take * kRecordBytes);
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    if (!in) {
      return false;
    }
    payload_crc = util::Crc32c(chunk.data(), chunk.size(), payload_crc);
    decoded.resize(take);
    std::size_t pos = 0;
    for (WeightedEdge& e : decoded) {
      ReadPod(chunk, pos, e.src);
      ReadPod(chunk, pos, e.dst);
      ReadPod(chunk, pos, e.timestamp);
      ReadPod(chunk, pos, e.bias);
      if (e.src >= id_bound || e.dst >= id_bound || !ValidBias(e.bias)) {
        return false;
      }
    }
    if (!fn(decoded)) {
      return false;
    }
    remaining -= take;
  }
  uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  return static_cast<bool>(in) && stored_crc == payload_crc;
}

}  // namespace bingo::graph
