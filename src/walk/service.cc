#include "src/walk/service.h"

#include <algorithm>

#include "src/graph/dynamic_graph.h"

namespace bingo::walk {

static_assert(VersionedStore<core::BingoStore> &&
              AdjacencyStore<core::BingoStore>);

template class WalkServiceT<core::BingoStore>;

std::unique_ptr<WalkService> MakeWalkService(
    const graph::WeightedEdgeList& edges, graph::VertexId num_vertices,
    core::BingoConfig config, util::ThreadPool* build_pool,
    util::ThreadPool* update_pool) {
  return std::make_unique<WalkService>(
      std::make_unique<core::BingoStore>(
          graph::DynamicGraph::FromEdges(num_vertices, edges), config,
          build_pool),
      update_pool);
}

std::unique_ptr<WalkService> RecoverWalkService(
    const std::string& dir, core::BingoConfig config,
    graph::VertexId num_vertices, util::ThreadPool* build_pool,
    util::ThreadPool* update_pool, WalPersistenceOptions options,
    RecoveryReport* report, RecoveryBatchHook batch_hook,
    std::shared_ptr<util::MemoryPool> memory) {
  RecoveryReport local;
  const auto fail = [&]() -> std::unique_ptr<WalkService> {
    if (report != nullptr) {
      *report = local;
    }
    return nullptr;
  };

  graph::WeightedEdgeList edges;
  core::SnapshotInfo info;
  if (!core::LoadSnapshotEdges(dir + "/base.snapshot", edges, &info) ||
      info.config_fingerprint != core::ConfigFingerprint(config)) {
    return fail();
  }
  // Resume the decay clock where the snapshot left it; WAL replay then
  // re-applies any AdvanceTime ticks journaled after the checkpoint.
  config.logical_epoch = static_cast<uint32_t>(info.logical_epoch);
  const graph::VertexId n = std::max(num_vertices, info.num_vertices);
  local.base_edges = edges.size();
  local.base_wal_seq = info.wal_seq;
  local.num_vertices = n;

  auto service = std::make_unique<WalkService>(
      std::make_unique<core::BingoStore>(
          graph::DynamicGraph::FromEdges(n, edges, std::move(memory)), config,
          build_pool),
      update_pool);
  edges = {};

  // Replay the journaled suffix, on the build pool: replay is part of
  // building the store. Journaling is not armed yet, so the replayed
  // batches are applied without being re-appended. No snapshot is alive
  // between batches (a hook releases the ones it takes), so each batch is
  // applied in place.
  const std::string wal_path = dir + "/wal.log";
  const core::WalReplayResult replay = core::ReplayWal(
      wal_path, info.wal_seq,
      [&](uint64_t seq, const graph::UpdateList& batch) {
        service->ApplyBatch(batch, build_pool);
        if (batch_hook) {
          batch_hook(seq, batch, *service);
        }
      });
  const core::WalOptions wal_options{options.fsync_on_commit};
  std::unique_ptr<core::WalWriter> wal;
  if (!replay.opened || (replay.header_torn && !replay.header_ok)) {
    // Missing WAL, or one torn before its header completed (a crash during
    // AttachWal/compaction): the base alone is the durable state. Start a
    // fresh segment at its sequence number.
    wal = core::WalWriter::Create(wal_path, info.wal_seq, wal_options);
  } else if (!replay.header_ok) {
    return fail();  // a full header that fails validation is corruption
  } else if (replay.last_seq < info.wal_seq) {
    // Pre-compaction segment fully covered by the base (crash between the
    // base and WAL renames): supersede it.
    wal = core::WalWriter::Create(wal_path, info.wal_seq, wal_options);
  } else {
    wal = core::WalWriter::OpenForAppend(wal_path, replay, wal_options);
  }
  if (wal == nullptr) {
    return fail();
  }
  local.wal_records_replayed = replay.records_replayed;
  local.wal_updates_replayed = replay.updates_replayed;
  local.wal_tail_truncated = replay.truncated_tail;
  service->AdoptWal(std::move(wal), dir, options, replay.updates_replayed);
  local.ok = true;
  if (report != nullptr) {
    *report = local;
  }
  return service;
}

}  // namespace bingo::walk
