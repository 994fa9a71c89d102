#include "src/walk/sharded_service.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/util/fileio.h"

namespace bingo::walk {

namespace {
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "bingo-sharded-wal v1";
}  // namespace

bool WriteShardedWalManifest(const std::string& dir, int num_shards) {
  util::AtomicFileWriter writer(dir + "/" + kManifestName);
  if (!writer.ok()) {
    return false;
  }
  std::ostringstream body;
  body << kManifestHeader << "\nshards " << num_shards << "\n";
  const std::string text = body.str();
  return writer.Write(text.data(), text.size()) && writer.Commit();
}

bool ReadShardedWalManifest(const std::string& dir, int& num_shards) {
  std::ifstream in(dir + "/" + kManifestName);
  if (!in) {
    return false;
  }
  std::string header;
  std::string key;
  if (!std::getline(in, header) || header != kManifestHeader ||
      !(in >> key >> num_shards) || key != "shards" || num_shards <= 0) {
    return false;
  }
  return true;
}

std::string ShardWalDir(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard);
}

std::unique_ptr<ShardedWalkService> RecoverShardedWalkService(
    const std::string& dir, core::BingoConfig config,
    graph::VertexId num_vertices, util::ThreadPool* build_pool,
    util::ThreadPool* update_pool, WalPersistenceOptions options,
    RecoveryReport* report) {
  RecoveryReport total;
  const auto fail = [&]() -> std::unique_ptr<ShardedWalkService> {
    if (report != nullptr) {
      *report = total;
    }
    return nullptr;
  };
  int num_shards = 0;
  if (!ReadShardedWalManifest(dir, num_shards)) {
    return fail();
  }
  std::vector<std::unique_ptr<WalkService>> shards;
  shards.reserve(static_cast<std::size_t>(num_shards));
  // One pool for every shard, as MakeShardedWalkService builds them.
  const auto memory = std::make_shared<util::MemoryPool>();
  for (int s = 0; s < num_shards; ++s) {
    RecoveryReport shard_report;
    auto shard = RecoverWalkService(ShardWalDir(dir, s), config, num_vertices,
                                    build_pool, update_pool, options,
                                    &shard_report, {}, memory);
    if (shard == nullptr) {
      return fail();
    }
    total.base_edges += shard_report.base_edges;
    total.base_wal_seq += shard_report.base_wal_seq;
    total.wal_records_replayed += shard_report.wal_records_replayed;
    total.wal_updates_replayed += shard_report.wal_updates_replayed;
    total.wal_tail_truncated =
        total.wal_tail_truncated || shard_report.wal_tail_truncated;
    total.num_vertices = std::max(total.num_vertices, shard_report.num_vertices);
    shards.push_back(std::move(shard));
  }
  auto service =
      std::make_unique<ShardedWalkService>(std::move(shards), update_pool);
  service->AdoptWalDir(dir, options);
  total.ok = true;
  if (report != nullptr) {
    *report = total;
  }
  return service;
}

// The composite snapshot is a first-class store view: the store-generic
// engine and apps walk it like any backend.
static_assert(SamplingStore<ShardedWalkService::Snapshot>);
static_assert(AdjacencyStore<ShardedWalkService::Snapshot>);

template class ShardedWalkServiceT<core::BingoStore>;

std::unique_ptr<ShardedWalkService> MakeShardedWalkService(
    const graph::WeightedEdgeList& edges, graph::VertexId num_vertices,
    int num_shards, core::BingoConfig config, util::ThreadPool* build_pool,
    util::ThreadPool* update_pool) {
  // Route once; each shard's factory reads its slice. Shard stores span
  // the full vertex-id space so
  // vertex ids need no translation — exactly PartitionedBingoStore's
  // layout, which keeps per-vertex samplers bit-identical to the
  // whole-graph store's.
  auto per_shard = std::make_shared<std::vector<graph::WeightedEdgeList>>(
      static_cast<std::size_t>(num_shards));
  for (const graph::WeightedEdge& e : edges) {
    (*per_shard)[e.src % num_shards].push_back(e);
  }
  // The shards draw from one pool: a batch applies to them one after
  // another, so what one shard's new version superseded is the next
  // shard's copy space.
  const auto memory = std::make_shared<util::MemoryPool>();
  const auto factory = [per_shard, num_vertices, config, build_pool,
                        memory](int shard) {
    return std::make_unique<core::BingoStore>(
        graph::DynamicGraph::FromEdges(num_vertices, (*per_shard)[shard],
                                       memory),
        config, build_pool);
  };
  return std::make_unique<ShardedWalkService>(num_shards, factory, update_pool);
}

}  // namespace bingo::walk
