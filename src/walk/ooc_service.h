// Out-of-core walk service: WalkServiceT over the tiered store, plus
// streamed recovery.
//
// The service machinery (one copy-on-write store, snapshot epochs, WAL
// journaling) is store-generic; this unit instantiates it for TieredStore
// and supplies the out-of-core recovery path. TieredStore is not
// CheckpointableStore — its base tier lives in the CSR file, not a
// DynamicGraph — so AttachWal/Checkpoint compile out; durability for an
// OOC service means: the CSR file + the WAL (adopted via AdoptWal, so
// post-recovery batches keep journaling and a later in-memory service can
// recover the combined state).
//
// Streamed recovery is the memory headline: BuildCsrFromSnapshot converts
// dir/base.snapshot into the on-disk CSR container record by record
// (core::StreamSnapshotEdges — O(1) resident, never a materialized edge
// list), then one TieredStore mounts it with a block-cache budget. Peak
// recovery RSS is O(index + budget), not O(E) — bench/bench_ooc.cc
// measures the gap against full-snapshot materialization.

#ifndef BINGO_SRC_WALK_OOC_SERVICE_H_
#define BINGO_SRC_WALK_OOC_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/snapshot.h"
#include "src/graph/csr_mmap.h"
#include "src/util/thread_pool.h"
#include "src/walk/ooc_store.h"
#include "src/walk/service.h"

namespace bingo::walk {

// The TieredStore instantiation is compiled once in ooc_service.cc.
extern template class WalkServiceT<TieredStore>;

using OocWalkService = WalkServiceT<TieredStore>;

struct OocServiceOptions {
  TieredStoreOptions store;  // cache budget + CRC policy
  // Block size target when recovery builds the CSR container.
  uint64_t csr_block_bytes = graph::kDefaultCsrBlockBytes;
  WalPersistenceOptions wal;
};

// Streams `snapshot_path` record by record (O(1) memory) into a CSR
// container at `csr_path`, written atomically; a snapshot that fails to
// stream (corrupt, truncated, retired version) fails the build. `*info` (optional) receives the snapshot header.
bool BuildCsrFromSnapshot(const std::string& snapshot_path,
                          const std::string& csr_path, uint64_t block_bytes,
                          core::SnapshotInfo* info = nullptr,
                          std::string* error = nullptr);

// Builds an OOC service over an existing CSR container. Returns nullptr
// with `*error` set when the container does not open.
std::unique_ptr<OocWalkService> MakeOocWalkService(
    const std::string& csr_path, core::BingoConfig config = {},
    TieredStoreOptions options = {}, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr, std::string* error = nullptr);

// Rebuilds an OOC service from a durability directory written by an
// in-memory service's AttachWal/Checkpoint: streams dir/base.snapshot into
// dir/base.csr, mounts one tiered store under the configured budget,
// replays the longest valid prefix of dir/wal.log past the base's sequence
// number (promoting touched vertices exactly as live updates would), and
// adopts the WAL so journaling resumes. Walks on the recovered service are
// bit-identical to any other TieredStore walk of the same history. Returns
// nullptr when the base is missing/corrupt, the WAL header is corrupt, or
// `config` does not match the base's fingerprint.
std::unique_ptr<OocWalkService> RecoverOocWalkService(
    const std::string& dir, core::BingoConfig config = {},
    OocServiceOptions options = {}, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr, RecoveryReport* report = nullptr,
    std::string* error = nullptr);

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_OOC_SERVICE_H_
