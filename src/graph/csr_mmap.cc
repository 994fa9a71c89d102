#include "src/graph/csr_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/util/checksum.h"
#include "src/util/fileio.h"
#include "src/util/serial.h"

namespace bingo::graph {

namespace {

using util::AppendPod;
using util::ReadPod;

constexpr uint64_t kCsrMagic = 0x42494e474f435231ULL;  // "BINGOCR1"
constexpr uint32_t kCsrVersion = 1;
constexpr std::size_t kCsrHeaderBytes = 64;
// Bytes covered by header_crc: everything before it, index_crc included.
constexpr std::size_t kCsrHeaderCrcSpan = kCsrHeaderBytes - 4;
constexpr std::size_t kCsrIoChunk = 1u << 20;

uint64_t PadTo16(uint64_t bytes) { return (bytes + 15) & ~uint64_t{15}; }

uint64_t RawIndexBytes(uint64_t num_vertices, uint64_t num_blocks) {
  return 8 * (num_vertices + 1) + 8 * num_vertices + 4 * (num_blocks + 1) +
         4 * num_blocks;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

CsrFileWriter::CsrFileWriter(std::string path, VertexId num_vertices,
                             uint64_t block_bytes_target)
    : path_(std::move(path)),
      side_path_(path_ + ".edges.tmp"),
      num_vertices_(num_vertices),
      block_bytes_target_(std::max<uint64_t>(block_bytes_target, sizeof(Edge))),
      degrees_(num_vertices, 0),
      totals_(num_vertices, 0.0) {
  side_ = std::fopen(side_path_.c_str(), "wb");
  ok_ = side_ != nullptr;
}

CsrFileWriter::~CsrFileWriter() {
  if (side_ != nullptr) {
    std::fclose(side_);
    side_ = nullptr;
  }
  if (!finished_) {
    std::remove(side_path_.c_str());
  }
}

void CsrFileWriter::Fail(std::string* error, const std::string& message) {
  ok_ = false;
  SetError(error, "csr writer: " + message);
}

bool CsrFileWriter::Append(VertexId src, const Edge& edge) {
  if (!ok_ || finished_) {
    ok_ = false;
    return false;
  }
  if (src >= num_vertices_ || src < last_src_) {
    ok_ = false;  // out of range, or not vertex-major
    return false;
  }
  last_src_ = src;
  if (std::fwrite(&edge, sizeof(Edge), 1, side_) != 1) {
    ok_ = false;
    return false;
  }
  degrees_[src]++;
  totals_[src] += edge.bias;
  ++num_edges_;
  return true;
}

bool CsrFileWriter::Finish(std::string* error) {
  if (finished_) {
    SetError(error, "csr writer: Finish called twice");
    return false;
  }
  finished_ = true;
  if (!ok_ || side_ == nullptr) {
    Fail(error, "append failed or side file unavailable");
    std::remove(side_path_.c_str());
    return false;
  }
  const bool side_ok = std::fclose(side_) == 0;
  side_ = nullptr;
  if (!side_ok) {
    Fail(error, "flushing side file failed");
    std::remove(side_path_.c_str());
    return false;
  }

  std::vector<uint64_t> offsets(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    offsets[v + 1] = offsets[v] + degrees_[v];
  }

  // Greedy block formation: consecutive vertices until the block's payload
  // reaches the target; every block holds at least one vertex.
  std::vector<VertexId> block_first;
  if (num_vertices_ > 0) {
    block_first.push_back(0);
    uint64_t acc = 0;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      acc += degrees_[v] * sizeof(Edge);
      if (acc >= block_bytes_target_ && v + 1 < num_vertices_) {
        block_first.push_back(v + 1);
        acc = 0;
      }
    }
    block_first.push_back(num_vertices_);
  }
  const uint64_t num_blocks =
      block_first.empty() ? 0 : block_first.size() - 1;

  // Second (and only re-)pass over the edge bytes: per-block CRCs.
  std::vector<uint32_t> block_crc(static_cast<std::size_t>(num_blocks), 0);
  std::FILE* side = std::fopen(side_path_.c_str(), "rb");
  if (side == nullptr) {
    Fail(error, "reopening side file failed");
    std::remove(side_path_.c_str());
    return false;
  }
  std::string chunk;
  bool crc_ok = true;
  for (uint64_t b = 0; b < num_blocks && crc_ok; ++b) {
    uint64_t remaining =
        (offsets[block_first[b + 1]] - offsets[block_first[b]]) * sizeof(Edge);
    uint32_t crc = 0;
    while (remaining > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<uint64_t>(remaining, kCsrIoChunk));
      chunk.resize(want);
      if (std::fread(chunk.data(), 1, want, side) != want) {
        crc_ok = false;
        break;
      }
      crc = util::Crc32c(chunk.data(), want, crc);
      remaining -= want;
    }
    block_crc[b] = crc;
  }
  if (!crc_ok) {
    std::fclose(side);
    Fail(error, "side file shorter than appended edge count");
    std::remove(side_path_.c_str());
    return false;
  }

  std::string index;
  index.reserve(static_cast<std::size_t>(
      PadTo16(RawIndexBytes(num_vertices_, num_blocks))));
  index.append(reinterpret_cast<const char*>(offsets.data()),
               offsets.size() * sizeof(uint64_t));
  index.append(reinterpret_cast<const char*>(totals_.data()),
               totals_.size() * sizeof(double));
  index.append(reinterpret_cast<const char*>(block_first.data()),
               block_first.size() * sizeof(VertexId));
  index.append(reinterpret_cast<const char*>(block_crc.data()),
               block_crc.size() * sizeof(uint32_t));
  index.resize(static_cast<std::size_t>(PadTo16(index.size())), '\0');
  const uint32_t index_crc = util::Crc32c(index.data(), index.size());

  std::string header;
  AppendPod(header, kCsrMagic);
  AppendPod(header, kCsrVersion);
  AppendPod(header, uint32_t{0});  // reserved
  AppendPod(header, static_cast<uint64_t>(num_vertices_));
  AppendPod(header, num_edges_);
  AppendPod(header, block_bytes_target_);
  AppendPod(header, num_blocks);
  AppendPod(header, static_cast<uint64_t>(index.size()));
  AppendPod(header, index_crc);
  AppendPod(header, util::Crc32c(header.data(), header.size()));

  util::AtomicFileWriter writer(path_);
  bool write_ok = writer.ok() && writer.Write(header.data(), header.size()) &&
                  writer.Write(index.data(), index.size());
  if (write_ok && std::fseek(side, 0, SEEK_SET) != 0) {
    write_ok = false;
  }
  uint64_t copied = 0;
  const uint64_t edge_bytes = num_edges_ * sizeof(Edge);
  while (write_ok && copied < edge_bytes) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<uint64_t>(edge_bytes - copied, kCsrIoChunk));
    chunk.resize(want);
    if (std::fread(chunk.data(), 1, want, side) != want ||
        !writer.Write(chunk.data(), want)) {
      write_ok = false;
      break;
    }
    copied += want;
  }
  std::fclose(side);
  if (!write_ok || !writer.Commit()) {
    Fail(error, "writing the container failed");
    std::remove(side_path_.c_str());
    return false;
  }
  std::remove(side_path_.c_str());
  return true;
}

bool WriteCsrFile(const std::string& path, VertexId num_vertices,
                  const WeightedEdgeList& edges, uint64_t block_bytes_target,
                  std::string* error) {
  const auto fail = [error] {
    SetError(error, "csr writer: append failed (vertex out of range?)");
    return false;
  };
  // The writer takes edges vertex-major. Input already in that order (the
  // canonical lists every caller passes) streams straight through;
  // otherwise a stable counting sort by src builds the order, keeping each
  // vertex's edges in input order.
  std::vector<const WeightedEdge*> order;
  if (!std::is_sorted(edges.begin(), edges.end(),
                      [](const WeightedEdge& a, const WeightedEdge& b) {
                        return a.src < b.src;
                      })) {
    std::vector<uint64_t> next(static_cast<std::size_t>(num_vertices) + 1, 0);
    for (const WeightedEdge& e : edges) {
      if (e.src >= num_vertices) {
        return fail();
      }
      ++next[e.src + 1];
    }
    for (VertexId v = 0; v < num_vertices; ++v) {
      next[v + 1] += next[v];
    }
    order.resize(edges.size());
    for (const WeightedEdge& e : edges) {
      order[next[e.src]++] = &e;
    }
  }
  CsrFileWriter writer(path, num_vertices, block_bytes_target);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const WeightedEdge& e = order.empty() ? edges[i] : *order[i];
    if (!writer.Append(e.src, Edge{e.dst, e.timestamp, e.bias})) {
      return fail();
    }
  }
  return writer.Finish(error);
}

CsrMmap::~CsrMmap() { Close(); }

CsrMmap::CsrMmap(CsrMmap&& other) noexcept { *this = std::move(other); }

CsrMmap& CsrMmap::operator=(CsrMmap&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    num_vertices_ = std::exchange(other.num_vertices_, 0);
    num_edges_ = std::exchange(other.num_edges_, 0);
    num_blocks_ = std::exchange(other.num_blocks_, 0);
    block_bytes_target_ = std::exchange(other.block_bytes_target_, 0);
    edge_section_offset_ = std::exchange(other.edge_section_offset_, 0);
    offsets_ = std::move(other.offsets_);
    totals_ = std::move(other.totals_);
    block_first_ = std::move(other.block_first_);
    block_crc_ = std::move(other.block_crc_);
  }
  return *this;
}

void CsrMmap::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t CsrMmap::IndexBytes() const {
  return offsets_.size() * sizeof(uint64_t) + totals_.size() * sizeof(double) +
         block_first_.size() * sizeof(VertexId) +
         block_crc_.size() * sizeof(uint32_t);
}

uint32_t CsrMmap::BlockOfVertex(VertexId v) const {
  // block_first_ is strictly increasing with front 0 and back V, so the
  // predecessor of the first entry > v is v's block.
  const auto it =
      std::upper_bound(block_first_.begin(), block_first_.end(), v);
  return static_cast<uint32_t>((it - block_first_.begin()) - 1);
}

bool CsrMmap::Open(const std::string& path, CsrMmap* out, std::string* error) {
  CsrMmap csr;
  csr.path_ = path;
  csr.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (csr.fd_ < 0) {
    SetError(error, "csr open: cannot open " + path);
    return false;
  }
  struct stat st {};
  if (::fstat(csr.fd_, &st) != 0 || st.st_size < 0) {
    SetError(error, "csr open: fstat failed");
    return false;
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kCsrHeaderBytes) {
    SetError(error, "csr open: file smaller than the header");
    return false;
  }

  std::string header(kCsrHeaderBytes, '\0');
  if (::pread(csr.fd_, header.data(), header.size(), 0) !=
      static_cast<ssize_t>(header.size())) {
    SetError(error, "csr open: short header read");
    return false;
  }
  std::size_t off = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t num_vertices = 0;
  uint64_t index_bytes = 0;
  uint32_t index_crc = 0;
  uint32_t header_crc = 0;
  if (!ReadPod(header, off, magic) || !ReadPod(header, off, version) ||
      !ReadPod(header, off, reserved) || !ReadPod(header, off, num_vertices) ||
      !ReadPod(header, off, csr.num_edges_) ||
      !ReadPod(header, off, csr.block_bytes_target_) ||
      !ReadPod(header, off, csr.num_blocks_) ||
      !ReadPod(header, off, index_bytes) || !ReadPod(header, off, index_crc) ||
      !ReadPod(header, off, header_crc)) {
    SetError(error, "csr open: truncated header");
    return false;
  }
  if (magic != kCsrMagic) {
    SetError(error, "csr open: bad magic (not a CSR container)");
    return false;
  }
  if (version != kCsrVersion) {
    SetError(error, "csr open: unsupported version");
    return false;
  }
  if (header_crc != util::Crc32c(header.data(), kCsrHeaderCrcSpan)) {
    SetError(error, "csr open: header checksum mismatch");
    return false;
  }
  if (num_vertices > 0xFFFFFFFFull) {
    SetError(error, "csr open: vertex count exceeds the 32-bit id space");
    return false;
  }
  csr.num_vertices_ = static_cast<VertexId>(num_vertices);
  if (num_vertices == 0 ? (csr.num_blocks_ != 0 || csr.num_edges_ != 0)
                        : (csr.num_blocks_ == 0 ||
                           csr.num_blocks_ > num_vertices)) {
    SetError(error, "csr open: implausible block count");
    return false;
  }
  if (csr.num_edges_ > (uint64_t{1} << 58)) {
    SetError(error, "csr open: implausible edge count");
    return false;
  }
  if (index_bytes != PadTo16(RawIndexBytes(num_vertices, csr.num_blocks_))) {
    SetError(error, "csr open: index size does not match the header counts");
    return false;
  }
  csr.edge_section_offset_ = kCsrHeaderBytes + index_bytes;
  if (file_size !=
      csr.edge_section_offset_ + csr.num_edges_ * sizeof(Edge)) {
    SetError(error, "csr open: file size does not match the header "
                    "(truncated or corrupt container)");
    return false;
  }

  std::string index(static_cast<std::size_t>(index_bytes), '\0');
  uint64_t got = 0;
  while (got < index_bytes) {
    const ssize_t n = ::pread(csr.fd_, index.data() + got,
                              static_cast<std::size_t>(index_bytes - got),
                              static_cast<off_t>(kCsrHeaderBytes + got));
    if (n <= 0) {
      SetError(error, "csr open: short index read");
      return false;
    }
    got += static_cast<uint64_t>(n);
  }
  if (index_crc != util::Crc32c(index.data(), index.size())) {
    SetError(error, "csr open: index checksum mismatch");
    return false;
  }

  // Copies the next index table into `table`. An empty table is skipped:
  // its data() may be null, which memcpy must not receive even for 0 bytes.
  const char* p = index.data();
  const auto read_table = [&p](auto& table) {
    const std::size_t bytes = table.size() * sizeof(table[0]);
    if (bytes != 0) {
      std::memcpy(table.data(), p, bytes);
      p += bytes;
    }
  };
  csr.offsets_.resize(static_cast<std::size_t>(num_vertices) + 1);
  read_table(csr.offsets_);
  csr.totals_.resize(static_cast<std::size_t>(num_vertices));
  read_table(csr.totals_);
  csr.block_first_.resize(static_cast<std::size_t>(csr.num_blocks_) +
                          (csr.num_blocks_ > 0 ? 1 : 0));
  read_table(csr.block_first_);
  csr.block_crc_.resize(static_cast<std::size_t>(csr.num_blocks_));
  read_table(csr.block_crc_);

  if (csr.offsets_.front() != 0 || csr.offsets_.back() != csr.num_edges_ ||
      !std::is_sorted(csr.offsets_.begin(), csr.offsets_.end())) {
    SetError(error, "csr open: offset table is not a valid CSR");
    return false;
  }
  if (csr.num_blocks_ > 0) {
    bool table_ok = csr.block_first_.front() == 0 &&
                    csr.block_first_.back() == csr.num_vertices_;
    for (std::size_t b = 0; table_ok && b + 1 < csr.block_first_.size(); ++b) {
      table_ok = csr.block_first_[b] < csr.block_first_[b + 1];
    }
    if (!table_ok) {
      SetError(error, "csr open: block table is not a partition of the "
                      "vertex range");
      return false;
    }
  }
  *out = std::move(csr);
  return true;
}

bool CsrMmap::MapBlock(uint32_t b, bool verify_crc, CsrMapHandle* handle,
                       const Edge** edges, std::string* error) const {
  *handle = CsrMapHandle{};
  *edges = nullptr;
  if (b >= num_blocks_ || fd_ < 0) {
    SetError(error, "csr map: block out of range");
    return false;
  }
  const uint64_t payload = BlockPayloadBytes(b);
  if (payload == 0) {
    return true;  // empty block: nothing to map
  }
  const uint64_t file_off =
      edge_section_offset_ + BlockFirstEdge(b) * sizeof(Edge);
  static const uint64_t kPage =
      static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t aligned = file_off & ~(kPage - 1);
  const std::size_t slop = static_cast<std::size_t>(file_off - aligned);
  const std::size_t length = slop + static_cast<std::size_t>(payload);
  void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd_,  // bingo-lint: allow(bare-allocation) -- the mmap arena itself: block residency is the point of the out-of-core tier; pages are returned via Unmap on eviction
                      static_cast<off_t>(aligned));
  if (addr == MAP_FAILED) {
    SetError(error, "csr map: mmap failed");
    return false;
  }
  const Edge* first =
      reinterpret_cast<const Edge*>(static_cast<const char*>(addr) + slop);
  if (verify_crc &&
      util::Crc32c(first, static_cast<std::size_t>(payload)) !=
          block_crc_[b]) {
    ::munmap(addr, length);
    SetError(error, "csr map: block checksum mismatch");
    return false;
  }
  handle->addr = addr;
  handle->length = length;
  *edges = first;
  return true;
}

void CsrMmap::Unmap(const CsrMapHandle& handle) {
  if (handle.addr != nullptr) {
    ::munmap(handle.addr, handle.length);
  }
}

bool CsrMmap::ReadEdges(uint64_t first_edge, uint64_t count, Edge* out) const {
  if (fd_ < 0 || first_edge > num_edges_ || count > num_edges_ - first_edge) {
    return false;
  }
  uint64_t done = 0;
  const uint64_t base = edge_section_offset_ + first_edge * sizeof(Edge);
  const uint64_t total = count * sizeof(Edge);
  char* dst = reinterpret_cast<char*>(out);
  while (done < total) {
    const ssize_t n = ::pread(fd_, dst + done,
                              static_cast<std::size_t>(total - done),
                              static_cast<off_t>(base + done));
    if (n <= 0) {
      return false;
    }
    done += static_cast<uint64_t>(n);
  }
  return true;
}

}  // namespace bingo::graph
