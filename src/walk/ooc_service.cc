#include "src/walk/ooc_service.h"

#include <span>
#include <utility>

#include "src/core/wal.h"
#include "src/graph/types.h"

namespace bingo::walk {

static_assert(VersionedStore<TieredStore>);

template class WalkServiceT<TieredStore>;

bool BuildCsrFromSnapshot(const std::string& snapshot_path,
                          const std::string& csr_path, uint64_t block_bytes,
                          core::SnapshotInfo* info, std::string* error) {
  core::SnapshotInfo local_info;
  core::SnapshotInfo* out_info = info != nullptr ? info : &local_info;
  // One streamed pass, O(chunk) resident. StreamSnapshotEdges fills the
  // header before the first chunk, so the writer (which needs the vertex
  // count) is constructed lazily inside the callback.
  std::unique_ptr<graph::CsrFileWriter> writer;
  const bool streamed = core::StreamSnapshotEdges(
      snapshot_path, out_info,
      [&](std::span<const graph::WeightedEdge> records) {
        if (writer == nullptr) {
          writer = std::make_unique<graph::CsrFileWriter>(
              csr_path, out_info->num_vertices, block_bytes);
        }
        for (const graph::WeightedEdge& e : records) {
          graph::Edge edge;
          edge.dst = e.dst;
          edge.timestamp = e.timestamp;
          edge.bias = e.bias;
          if (!writer->ok() || !writer->Append(e.src, edge)) {
            return false;
          }
        }
        return true;
      });
  if (!streamed) {
    writer.reset();  // abandon the tentative side file
    if (error != nullptr) {
      *error = "build-csr: snapshot unreadable or corrupt: " + snapshot_path;
    }
    return false;
  }
  if (writer == nullptr) {  // edge-free snapshot
    writer = std::make_unique<graph::CsrFileWriter>(
        csr_path, out_info->num_vertices, block_bytes);
  }
  return writer->Finish(error);
}

std::unique_ptr<OocWalkService> MakeOocWalkService(
    const std::string& csr_path, core::BingoConfig config,
    TieredStoreOptions options, util::ThreadPool* build_pool,
    util::ThreadPool* update_pool, std::string* error) {
  auto store =
      TieredStore::Open(csr_path, config, options, build_pool, error);
  if (store == nullptr) {
    return nullptr;
  }
  return std::make_unique<OocWalkService>(std::move(store), update_pool);
}

std::unique_ptr<OocWalkService> RecoverOocWalkService(
    const std::string& dir, core::BingoConfig config, OocServiceOptions options,
    util::ThreadPool* build_pool, util::ThreadPool* update_pool,
    RecoveryReport* report, std::string* error) {
  RecoveryReport local;
  const auto fail = [&]() -> std::unique_ptr<OocWalkService> {
    if (report != nullptr) {
      *report = local;
    }
    return nullptr;
  };

  core::SnapshotInfo info;
  if (!BuildCsrFromSnapshot(dir + "/base.snapshot", dir + "/base.csr",
                            options.csr_block_bytes, &info, error)) {
    return fail();
  }
  if (info.config_fingerprint != core::ConfigFingerprint(config)) {
    if (error != nullptr) {
      *error = "recover: base snapshot fingerprint does not match config";
    }
    return fail();
  }
  // Resume the decay clock where the snapshot left it (with the identity
  // pipeline the tier requires, this is bookkeeping only).
  config.logical_epoch = static_cast<uint32_t>(info.logical_epoch);
  local.base_edges = info.num_edges;
  local.base_wal_seq = info.wal_seq;
  local.num_vertices = info.num_vertices;

  auto service = MakeOocWalkService(dir + "/base.csr", config, options.store,
                                    build_pool, update_pool, error);
  if (service == nullptr) {
    return fail();
  }

  // Replay the journaled suffix on the build pool; each batch promotes the
  // base vertices it touches, exactly as live updates would. Journaling is
  // not armed yet.
  const std::string wal_path = dir + "/wal.log";
  const core::WalReplayResult replay = core::ReplayWal(
      wal_path, info.wal_seq,
      [&](uint64_t /*seq*/, const graph::UpdateList& batch) {
        service->ApplyBatch(batch, build_pool);
      });
  // The same decision tree as the in-memory RecoverWalkService: a missing
  // or pre-header-torn WAL, or one fully covered by the base, is superseded
  // by a fresh segment; a complete-but-invalid header is corruption.
  const core::WalOptions wal_options{options.wal.fsync_on_commit};
  std::unique_ptr<core::WalWriter> wal;
  if (!replay.opened || (replay.header_torn && !replay.header_ok)) {
    wal = core::WalWriter::Create(wal_path, info.wal_seq, wal_options);
  } else if (!replay.header_ok) {
    if (error != nullptr) {
      *error = "recover: wal header is corrupt: " + wal_path;
    }
    return fail();
  } else if (replay.last_seq < info.wal_seq) {
    wal = core::WalWriter::Create(wal_path, info.wal_seq, wal_options);
  } else {
    wal = core::WalWriter::OpenForAppend(wal_path, replay, wal_options);
  }
  if (wal == nullptr) {
    if (error != nullptr) {
      *error = "recover: could not re-arm the wal: " + wal_path;
    }
    return fail();
  }
  local.wal_records_replayed = replay.records_replayed;
  local.wal_updates_replayed = replay.updates_replayed;
  local.wal_tail_truncated = replay.truncated_tail;
  service->AdoptWal(std::move(wal), dir, options.wal,
                    replay.updates_replayed);
  local.ok = true;
  if (report != nullptr) {
    *report = local;
  }
  return service;
}

}  // namespace bingo::walk
