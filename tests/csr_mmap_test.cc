// Tests for the on-disk CSR container (src/graph/csr_mmap): write/read
// roundtrip, and — the persistence-critical half — that corrupt, truncated,
// or fabricated containers fail Open/MapBlock with a clean error, never a
// SIGBUS or an unbounded allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/graph/csr_mmap.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "src/util/serial.h"

namespace bingo::graph {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

WeightedEdgeList RmatEdges(uint64_t seed, int scale, uint64_t edges) {
  util::Rng rng(seed);
  auto pairs = GenerateRmat(scale, edges, rng);
  Canonicalize(pairs);
  WeightedEdgeList out;
  out.reserve(pairs.size());
  uint32_t ts = 0;
  for (const auto& [src, dst] : pairs) {
    WeightedEdge e;
    e.src = src;
    e.dst = dst;
    e.bias = 1.0 + (ts % 7);
    e.timestamp = ts++;
    out.push_back(e);
  }
  return out;
}

// Writes a small multi-block container and returns its edges.
WeightedEdgeList WriteSample(const std::string& path,
                             uint64_t block_bytes = 4096) {
  const WeightedEdgeList edges = RmatEdges(7, 9, 6000);
  const VertexId n = std::max<VertexId>(512, ImpliedVertexCount(edges));
  std::string error;
  EXPECT_TRUE(WriteCsrFile(path, n, edges, block_bytes, &error)) << error;
  return edges;
}

void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5a;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(CsrMmapTest, RoundTripPreservesDegreesTotalsAndEdges) {
  const std::string path = TempPath("csr_roundtrip.bin");
  const WeightedEdgeList edges = WriteSample(path);

  CsrMmap csr;
  std::string error;
  ASSERT_TRUE(CsrMmap::Open(path, &csr, &error)) << error;
  EXPECT_EQ(csr.NumEdges(), edges.size());
  EXPECT_GT(csr.NumBlocks(), 1u);  // multi-block at a 4 KiB target

  // Degrees and bias totals match an independent tally.
  std::vector<uint64_t> degree(csr.NumVertices(), 0);
  std::vector<double> total(csr.NumVertices(), 0.0);
  for (const WeightedEdge& e : edges) {
    degree[e.src]++;
    total[e.src] += e.bias;
  }
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    EXPECT_EQ(csr.Degree(v), degree[v]) << "vertex " << v;
    EXPECT_DOUBLE_EQ(csr.TotalBias(v), total[v]) << "vertex " << v;
  }

  // The block table partitions the vertex range, and every mapped block's
  // records agree with a pread of the same range.
  uint64_t mapped_edges = 0;
  for (uint32_t b = 0; b < csr.NumBlocks(); ++b) {
    EXPECT_EQ(csr.BlockFirstEdge(b), csr.EdgeOffset(csr.BlockFirstVertex(b)));
    CsrMapHandle handle;
    const Edge* block = nullptr;
    ASSERT_TRUE(csr.MapBlock(b, /*verify_crc=*/true, &handle, &block, &error))
        << error;
    const uint64_t count = csr.BlockEdgeCount(b);
    std::vector<Edge> via_pread(count);
    ASSERT_TRUE(csr.ReadEdges(csr.BlockFirstEdge(b), count, via_pread.data()));
    for (uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(block[i].dst, via_pread[i].dst);
      EXPECT_EQ(block[i].bias, via_pread[i].bias);
    }
    mapped_edges += count;
    CsrMmap::Unmap(handle);
  }
  EXPECT_EQ(mapped_edges, edges.size());
  std::remove(path.c_str());
}

TEST(CsrMmapTest, WriterRejectsNonVertexMajorAppends) {
  const std::string path = TempPath("csr_order.bin");
  CsrFileWriter writer(path, 8);
  ASSERT_TRUE(writer.Append(3, Edge{1, 0, 1.0}));
  EXPECT_FALSE(writer.Append(2, Edge{0, 0, 1.0}));  // src decreased
  EXPECT_FALSE(writer.Append(9, Edge{0, 0, 1.0}));  // out of range
  std::string error;
  EXPECT_FALSE(writer.Finish(&error));
  EXPECT_FALSE(std::filesystem::exists(path));  // nothing committed
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Input that is not vertex-major is ordered by a stable sort on src: the
// container is byte-identical to the one written from the sorted list, so
// each vertex keeps its edges in input order. A source out of range fails
// without leaving a file behind.
TEST(CsrMmapTest, UnorderedInputWritesTheSortedContainer) {
  const WeightedEdgeList sorted = RmatEdges(11, 9, 6000);
  const VertexId n = std::max<VertexId>(512, ImpliedVertexCount(sorted));
  WeightedEdgeList shuffled = sorted;
  std::stable_sort(shuffled.begin(), shuffled.end(),
                   [](const WeightedEdge& a, const WeightedEdge& b) {
                     return a.src % 7 < b.src % 7 ||
                            (a.src % 7 == b.src % 7 && a.src > b.src);
                   });
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(),
                              [](const WeightedEdge& a, const WeightedEdge& b) {
                                return a.src < b.src;
                              }));
  const std::string sorted_path = TempPath("csr_sorted_input.bin");
  const std::string shuffled_path = TempPath("csr_shuffled_input.bin");
  std::string error;
  ASSERT_TRUE(WriteCsrFile(sorted_path, n, sorted, 4096, &error)) << error;
  ASSERT_TRUE(WriteCsrFile(shuffled_path, n, shuffled, 4096, &error)) << error;
  EXPECT_EQ(FileBytes(shuffled_path), FileBytes(sorted_path));

  const std::string bad_path = TempPath("csr_bad_src.bin");
  std::remove(bad_path.c_str());
  shuffled.back().src = n;
  EXPECT_FALSE(WriteCsrFile(bad_path, n, shuffled, 4096, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(bad_path));
  std::remove(sorted_path.c_str());
  std::remove(shuffled_path.c_str());
}

TEST(CsrMmapTest, CorruptHeaderFieldsFailCleanly) {
  const std::string path = TempPath("csr_header.bin");
  WriteSample(path);
  CsrMmap csr;
  std::string error;

  // Magic, version, and an arbitrary header count: every flip must be
  // caught (magic/version by their own checks, counts by the header CRC).
  for (const std::uint64_t offset : {0ull, 8ull, 16ull, 24ull, 60ull}) {
    WriteSample(path);
    FlipByte(path, offset);
    error.clear();
    EXPECT_FALSE(CsrMmap::Open(path, &csr, &error)) << "offset " << offset;
    EXPECT_FALSE(error.empty());
  }
  std::remove(path.c_str());
}

TEST(CsrMmapTest, CorruptIndexAndBlockPayloadFailCleanly) {
  const std::string path = TempPath("csr_payload.bin");
  WriteSample(path);
  CsrMmap csr;
  std::string error;

  // Index section (offsets/totals/block table): index CRC refuses Open.
  FlipByte(path, 64 + 128);
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  EXPECT_NE(error.find("index"), std::string::npos) << error;

  // Edge payload: Open succeeds (the index is intact), but mapping the
  // damaged block under verify_crc reports a checksum mismatch — and
  // mapping with verification off still never faults.
  WriteSample(path);
  ASSERT_TRUE(CsrMmap::Open(path, &csr, &error)) << error;
  const uint64_t file_size = std::filesystem::file_size(path);
  FlipByte(path, file_size - sizeof(Edge) / 2);  // inside the last block
  const uint32_t last = csr.NumBlocks() - 1;
  CsrMapHandle handle;
  const Edge* block = nullptr;
  EXPECT_FALSE(csr.MapBlock(last, /*verify_crc=*/true, &handle, &block,
                            &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  ASSERT_TRUE(csr.MapBlock(last, /*verify_crc=*/false, &handle, &block,
                           &error))
      << error;
  // Touches every record (must not SIGBUS); the volatile store keeps the
  // sum, and so every read, from being optimized away.
  uint32_t sum = 0;
  for (uint64_t i = 0; i < csr.BlockEdgeCount(last); ++i) {
    sum += block[i].dst;
  }
  volatile uint32_t sink = sum;
  static_cast<void>(sink);
  CsrMmap::Unmap(handle);
  std::remove(path.c_str());
}

TEST(CsrMmapTest, EveryTruncationLengthFailsOpenCleanly) {
  const std::string path = TempPath("csr_truncate.bin");
  WriteSample(path);
  const uint64_t full = std::filesystem::file_size(path);
  // A dense sweep near the interesting boundaries (header edge, index edge)
  // plus coarse steps through the payload. Open validates the exact file
  // size against the header, so a short map can never be constructed.
  std::vector<uint64_t> lengths = {0, 1, 16, 63, 64, 65, 100};
  for (uint64_t len = 128; len < full; len += full / 37 + 1) {
    lengths.push_back(len);
  }
  lengths.push_back(full - 1);
  for (const uint64_t len : lengths) {
    WriteSample(path);
    std::filesystem::resize_file(path, len);
    CsrMmap csr;
    std::string error;
    EXPECT_FALSE(CsrMmap::Open(path, &csr, &error)) << "length " << len;
    EXPECT_FALSE(error.empty()) << "length " << len;
  }
  std::remove(path.c_str());
}

// A header whose CRCs are valid but whose counts are absurd must be
// rejected by the plausibility checks, not trusted into a giant allocation
// or an out-of-bounds map.
TEST(CsrMmapTest, FabricatedHeaderWithValidCrcIsRejected) {
  const std::string path = TempPath("csr_fabricated.bin");
  const auto craft = [&](uint64_t num_vertices, uint64_t num_edges,
                         uint64_t num_blocks, uint64_t index_bytes) {
    std::string header;
    util::AppendPod(header, uint64_t{0x42494e474f435231ULL});  // magic
    util::AppendPod(header, uint32_t{1});                      // version
    util::AppendPod(header, uint32_t{0});                      // reserved
    util::AppendPod(header, num_vertices);
    util::AppendPod(header, num_edges);
    util::AppendPod(header, uint64_t{4096});  // block target
    util::AppendPod(header, num_blocks);
    util::AppendPod(header, index_bytes);
    util::AppendPod(header, uint32_t{0});  // index crc (index is absent)
    util::AppendPod(header, util::Crc32c(header.data(), header.size()));
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(header.data(), static_cast<std::streamoff>(header.size()));
  };
  CsrMmap csr;
  std::string error;

  craft(/*vertices=*/1ull << 40, 10, 1, 64);  // vertex id overflow
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  craft(16, /*edges=*/1ull << 60, 1, 64);  // implausible edge count
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  craft(16, 10, /*blocks=*/17, 64);  // more blocks than vertices
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  craft(16, 10, 1, /*index_bytes=*/1ull << 50);  // index larger than disk
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  // Consistent-looking index size (PadTo16(8*17 + 8*16 + 4*2 + 4*1) = 288)
  // but the index and edge sections are missing: the exact file-size check
  // refuses it before anything is read or mapped.
  craft(16, 10, 1, 288);
  EXPECT_FALSE(CsrMmap::Open(path, &csr, &error));
  std::remove(path.c_str());
}

TEST(CsrMmapTest, EmptyGraphContainerRoundTrips) {
  const std::string path = TempPath("csr_empty.bin");
  std::string error;
  ASSERT_TRUE(WriteCsrFile(path, 0, {}, 4096, &error)) << error;
  CsrMmap csr;
  ASSERT_TRUE(CsrMmap::Open(path, &csr, &error)) << error;
  EXPECT_EQ(csr.NumVertices(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
  EXPECT_EQ(csr.NumBlocks(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bingo::graph
