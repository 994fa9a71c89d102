// Append-only write-ahead log for update batches.
//
// Durability in this codebase follows the paper's Theorem 4.1: sampling
// structures are a pure function of the adjacency (+ config), so the
// durable state is exactly the edge multiset — a base snapshot
// (core/snapshot.h) plus the stream of ApplyBatch update batches applied
// since it. The WAL journals that stream: one framed, CRC'd record per
// batch, appended before the batch mutates the store, so a crash loses at
// most the batches whose records never reached the file (none, with
// fsync_on_commit).
//
// File layout (little-endian):
//   file header   magic, version, start_seq, header CRC
//   record*       record magic, seq, payload bytes, payload CRC,
//                 header CRC, payload
// Payload: update count, then packed updates
// {kind u8, src u32, dst u32, timestamp u32, bias f64}. Version 2 is the
// only supported version: a file with any other version in a CRC-valid
// header is refused like a corrupt header (header_ok stays false).
//
// Record sequence numbers are contiguous: the first record after the header
// carries start_seq + 1. Replay delivers exactly the longest prefix of
// complete, checksummed, contiguous records and reports where it stopped —
// a torn tail (crash mid-append) truncates cleanly instead of corrupting
// recovery, and OpenForAppend resumes writing from that point.

#ifndef BINGO_SRC_CORE_WAL_H_
#define BINGO_SRC_CORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/graph/types.h"

namespace bingo::core {

struct WalOptions {
  // fsync after every Append: a true return means the record is on disk.
  // Off, durability is deferred to Sync() / Checkpoint (group commit).
  bool fsync_on_commit = false;
};

// Outcome of scanning a WAL file. `valid_bytes` is the byte length of the
// header plus every complete record — the prefix OpenForAppend keeps.
struct WalReplayResult {
  bool opened = false;      // file existed and was readable
  bool header_ok = false;   // file header present, magic/version/CRC valid
  bool header_torn = false;  // file shorter than a header (crash mid-create);
                             // distinct from a full-but-corrupt header
  uint64_t start_seq = 0;  // from the file header
  uint64_t last_seq = 0;   // seq of the last complete record (start_seq if none)
  uint64_t records = 0;    // complete records decoded
  uint64_t records_replayed = 0;  // records delivered (seq > after_seq)
  uint64_t updates_replayed = 0;
  bool truncated_tail = false;  // stopped at an incomplete/corrupt record
  uint64_t valid_bytes = 0;
};

// Scans `path` and invokes `fn(seq, batch)` for every complete record with
// seq > after_seq, in order. Stops at the first incomplete or corrupt
// record (prefix rule). `fn` may be null to just probe the file.
WalReplayResult ReplayWal(
    const std::string& path, uint64_t after_seq,
    const std::function<void(uint64_t seq, const graph::UpdateList& batch)>& fn);

class WalWriter {
 public:
  // Starts a fresh WAL at `path` (truncating any existing file) whose first
  // record will carry start_seq + 1. The header is written and fsync'd
  // before this returns. Nullptr on I/O failure.
  static std::unique_ptr<WalWriter> Create(const std::string& path,
                                           uint64_t start_seq,
                                           WalOptions options = {});

  // Resumes an existing WAL after a ReplayWal scan: truncates the file to
  // `replay.valid_bytes` (dropping a torn tail) and appends from
  // replay.last_seq. Nullptr on I/O failure or if the scan found no valid
  // header.
  static std::unique_ptr<WalWriter> OpenForAppend(const std::string& path,
                                                  const WalReplayResult& replay,
                                                  WalOptions options = {});

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Journals one batch as the next record. False on I/O failure, after
  // which the writer is poisoned (every later Append fails too).
  bool Append(const graph::UpdateList& updates);

  // fsyncs everything appended so far.
  bool Sync();

  uint64_t StartSeq() const { return start_seq_; }
  uint64_t LastSeq() const { return last_seq_; }
  uint64_t BytesWritten() const { return bytes_; }  // current file length

 private:
  WalWriter(int fd, uint64_t start_seq, uint64_t last_seq, uint64_t bytes,
            WalOptions options);

  int fd_ = -1;
  bool ok_ = true;
  uint64_t start_seq_ = 0;
  uint64_t last_seq_ = 0;
  uint64_t bytes_ = 0;
  WalOptions options_;
};

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_WAL_H_
