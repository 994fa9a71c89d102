#include "src/walk/incremental.h"

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/util/checksum.h"
#include "src/util/fileio.h"
#include "src/util/serial.h"

namespace bingo::walk {

// The corpus is a header template; keep the common BingoStore instantiation
// compiled once here.
template class IncrementalWalkCorpusT<core::BingoStore>;

namespace {

// Corpus checkpoint format v1:
//   u64 magic | u32 version | WalkCorpusMeta fields | u64 total_vertices
//   | u32 header_crc | payload | u32 payload_crc
// payload = per walk: u32 len, then len * u32 vertex ids.
// Counts are validated against the file size before any allocation (the
// same untrusted-resize rule as graph::ReadEdgeFile).
constexpr uint64_t kCorpusMagic = 0x73656B6C57474E42ull;  // "BNGWlkes"
constexpr uint32_t kCorpusVersion = 1;

void SetError(std::string* error, const char* msg) {
  if (error != nullptr) {
    *error = msg;
  }
}

}  // namespace

bool SaveWalkCorpusFile(const std::string& path, const WalkCorpusMeta& meta,
                        const std::vector<std::vector<graph::VertexId>>& walks,
                        uint64_t* bytes_written, std::string* error) {
  uint64_t total_vertices = 0;
  for (const auto& walk : walks) {
    total_vertices += walk.size();
  }

  std::string header;
  util::AppendPod(header, kCorpusMagic);
  util::AppendPod(header, kCorpusVersion);
  util::AppendPod(header, meta.wal_seq);
  util::AppendPod(header, meta.repair_epoch);
  util::AppendPod(header, meta.seed);
  util::AppendPod(header, static_cast<uint64_t>(walks.size()));
  util::AppendPod(header, meta.walk_length);
  util::AppendPod(header, total_vertices);
  util::AppendPod(header, util::Crc32c(header.data(), header.size()));

  std::string payload;
  payload.reserve(walks.size() * sizeof(uint32_t) +
                  total_vertices * sizeof(graph::VertexId));
  for (const auto& walk : walks) {
    util::AppendPod(payload, static_cast<uint32_t>(walk.size()));
    for (const graph::VertexId v : walk) {
      util::AppendPod(payload, v);
    }
  }
  const uint32_t payload_crc = util::Crc32c(payload.data(), payload.size());

  util::AtomicFileWriter writer(path);
  if (!writer.ok() || !writer.Write(header.data(), header.size()) ||
      !writer.Write(payload.data(), payload.size()) ||
      !writer.Write(&payload_crc, sizeof(payload_crc)) || !writer.Commit()) {
    SetError(error, "corpus checkpoint write failed");
    return false;
  }
  if (bytes_written != nullptr) {
    *bytes_written = writer.bytes_written();
  }
  return true;
}

bool LoadWalkCorpusFile(const std::string& path, WalkCorpusMeta* meta,
                        std::vector<std::vector<graph::VertexId>>* walks,
                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "corpus checkpoint missing or unreadable");
    return false;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t offset = 0;

  uint64_t magic = 0;
  uint32_t version = 0;
  WalkCorpusMeta parsed;
  uint64_t num_walks = 0;
  uint64_t total_vertices = 0;
  uint32_t header_crc = 0;
  if (!util::ReadPod(data, offset, magic) ||
      !util::ReadPod(data, offset, version) ||
      !util::ReadPod(data, offset, parsed.wal_seq) ||
      !util::ReadPod(data, offset, parsed.repair_epoch) ||
      !util::ReadPod(data, offset, parsed.seed) ||
      !util::ReadPod(data, offset, num_walks) ||
      !util::ReadPod(data, offset, parsed.walk_length) ||
      !util::ReadPod(data, offset, total_vertices)) {
    SetError(error, "corpus checkpoint truncated header");
    return false;
  }
  const std::size_t crc_covered = offset;
  if (!util::ReadPod(data, offset, header_crc)) {
    SetError(error, "corpus checkpoint truncated header");
    return false;
  }
  if (magic != kCorpusMagic || version != kCorpusVersion) {
    SetError(error, "corpus checkpoint bad magic/version");
    return false;
  }
  if (header_crc != util::Crc32c(data.data(), crc_covered)) {
    SetError(error, "corpus checkpoint header checksum mismatch");
    return false;
  }
  parsed.num_walks = num_walks;

  // Counts vs file size, before any resize. The per-item byte costs bound
  // the counts by the file size, which also keeps the product below.
  if (num_walks > data.size() / sizeof(uint32_t) ||
      total_vertices > data.size() / sizeof(graph::VertexId)) {
    SetError(error, "corpus checkpoint size mismatch");
    return false;
  }
  const uint64_t payload_bytes =
      num_walks * sizeof(uint32_t) + total_vertices * sizeof(graph::VertexId);
  if (data.size() - offset != payload_bytes + sizeof(uint32_t)) {
    SetError(error, "corpus checkpoint size mismatch");
    return false;
  }
  const uint32_t payload_crc_expected = util::Crc32c(
      data.data() + offset, static_cast<std::size_t>(payload_bytes));

  std::vector<std::vector<graph::VertexId>> parsed_walks;
  parsed_walks.resize(static_cast<std::size_t>(num_walks));
  uint64_t remaining = total_vertices;
  for (auto& walk : parsed_walks) {
    uint32_t len = 0;
    if (!util::ReadPod(data, offset, len) || len > remaining) {
      SetError(error, "corpus checkpoint corrupt walk length");
      return false;
    }
    remaining -= len;
    walk.resize(len);
    for (uint32_t i = 0; i < len; ++i) {
      if (!util::ReadPod(data, offset, walk[i])) {
        SetError(error, "corpus checkpoint truncated payload");
        return false;
      }
    }
  }
  if (remaining != 0) {
    SetError(error, "corpus checkpoint vertex count mismatch");
    return false;
  }
  uint32_t payload_crc = 0;
  if (!util::ReadPod(data, offset, payload_crc) ||
      payload_crc != payload_crc_expected) {
    SetError(error, "corpus checkpoint payload checksum mismatch");
    return false;
  }

  *meta = parsed;
  *walks = std::move(parsed_walks);
  return true;
}

}  // namespace bingo::walk
