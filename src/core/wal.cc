#include "src/core/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/util/checksum.h"
#include "src/util/serial.h"

namespace bingo::core {

namespace {

using util::AppendPod;
using util::ReadPod;

constexpr uint64_t kFileMagic = 0x42494e474f57414cULL;  // "BINGOWAL"
constexpr uint32_t kFileVersion = 2;
constexpr uint32_t kRecordMagic = 0x4c415257u;  // "WRAL"

// file header: magic u64, version u32, reserved u32, start_seq u64, crc u32
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8 + 4;
// record header: magic u32, payload_bytes u32, seq u64, payload_crc u32,
// header_crc u32
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 4 + 4;
// payload: count u32, then one packed update per entry
constexpr std::size_t kUpdateBytes = 1 + 4 + 4 + 4 + 8;

bool WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string EncodeFileHeader(uint64_t start_seq) {
  std::string header;
  AppendPod(header, kFileMagic);
  AppendPod(header, kFileVersion);
  AppendPod(header, uint32_t{0});  // reserved
  AppendPod(header, start_seq);
  AppendPod(header, util::Crc32c(header.data(), header.size()));
  return header;
}

std::string EncodePayload(const graph::UpdateList& updates) {
  std::string payload;
  payload.reserve(4 + updates.size() * kUpdateBytes);
  AppendPod(payload, static_cast<uint32_t>(updates.size()));
  for (const graph::Update& u : updates) {
    AppendPod(payload, static_cast<uint8_t>(u.kind));
    AppendPod(payload, u.src);
    AppendPod(payload, u.dst);
    AppendPod(payload, u.timestamp);
    AppendPod(payload, u.bias);
  }
  return payload;
}

// False = corrupt payload (treated like a torn record: replay stops).
bool DecodePayload(std::string_view payload, graph::UpdateList& updates) {
  std::size_t offset = 0;
  uint32_t count = 0;
  if (!ReadPod(payload, offset, count) ||
      payload.size() - offset != count * kUpdateBytes) {
    return false;
  }
  constexpr auto kMaxKind =
      static_cast<uint8_t>(graph::Update::Kind::kAdvanceTime);
  updates.clear();
  updates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind = 0;
    graph::Update u;
    ReadPod(payload, offset, kind);
    ReadPod(payload, offset, u.src);
    ReadPod(payload, offset, u.dst);
    ReadPod(payload, offset, u.timestamp);
    ReadPod(payload, offset, u.bias);
    if (kind > kMaxKind || !std::isfinite(u.bias)) {
      return false;
    }
    u.kind = static_cast<graph::Update::Kind>(kind);
    updates.push_back(u);
  }
  return true;
}

}  // namespace

WalReplayResult ReplayWal(
    const std::string& path, uint64_t after_seq,
    const std::function<void(uint64_t, const graph::UpdateList&)>& fn) {
  WalReplayResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return result;
  }
  result.opened = true;
  const std::string data = std::move(buffer).str();

  std::size_t offset = 0;
  {
    uint64_t magic = 0;
    uint32_t version = 0;
    uint32_t reserved = 0;
    uint32_t crc = 0;
    if (!ReadPod(data, offset, magic) || !ReadPod(data, offset, version) ||
        !ReadPod(data, offset, reserved) ||
        !ReadPod(data, offset, result.start_seq)) {
      result.header_torn = true;  // shorter than a header: crash mid-create
      result.start_seq = 0;
      return result;
    }
    const std::size_t crc_span = offset;
    if (!ReadPod(data, offset, crc)) {
      result.header_torn = true;
      result.start_seq = 0;
      return result;
    }
    if (magic != kFileMagic || version != kFileVersion ||
        crc != util::Crc32c(data.data(), crc_span)) {
      result.start_seq = 0;
      return result;  // full header present but invalid or retired: refuse
    }
  }
  result.header_ok = true;
  result.last_seq = result.start_seq;
  result.valid_bytes = kFileHeaderBytes;

  graph::UpdateList batch;
  while (offset < data.size()) {
    const std::size_t record_start = offset;
    uint32_t magic = 0;
    uint32_t payload_bytes = 0;
    uint64_t seq = 0;
    uint32_t payload_crc = 0;
    uint32_t header_crc = 0;
    if (!ReadPod(data, offset, magic) || !ReadPod(data, offset, payload_bytes) ||
        !ReadPod(data, offset, seq) || !ReadPod(data, offset, payload_crc)) {
      result.truncated_tail = true;
      break;
    }
    const std::size_t crc_span = offset - record_start;
    if (!ReadPod(data, offset, header_crc) || magic != kRecordMagic ||
        header_crc != util::Crc32c(data.data() + record_start, crc_span) ||
        seq != result.last_seq + 1) {
      result.truncated_tail = true;
      break;
    }
    if (data.size() - offset < payload_bytes) {
      result.truncated_tail = true;
      break;
    }
    const std::string_view payload(data.data() + offset, payload_bytes);
    offset += payload_bytes;
    if (payload_crc != util::Crc32c(payload.data(), payload.size()) ||
        !DecodePayload(payload, batch)) {
      result.truncated_tail = true;
      break;
    }
    result.last_seq = seq;
    ++result.records;
    result.valid_bytes = offset;
    if (seq > after_seq) {
      ++result.records_replayed;
      result.updates_replayed += batch.size();
      if (fn) {
        fn(seq, batch);
      }
    }
  }
  return result;
}

WalWriter::WalWriter(int fd, uint64_t start_seq, uint64_t last_seq,
                     uint64_t bytes, WalOptions options)
    : fd_(fd),
      start_seq_(start_seq),
      last_seq_(last_seq),
      bytes_(bytes),
      options_(options) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::unique_ptr<WalWriter> WalWriter::Create(const std::string& path,
                                             uint64_t start_seq,
                                             WalOptions options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return nullptr;
  }
  const std::string header = EncodeFileHeader(start_seq);
  if (!WriteAll(fd, header.data(), header.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, start_seq, start_seq, header.size(), options));
}

std::unique_ptr<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                                    const WalReplayResult& replay,
                                                    WalOptions options) {
  if (!replay.header_ok) {
    return nullptr;
  }
  // Drop the torn tail so the next record lands on a clean boundary.
  if (::truncate(path.c_str(), static_cast<off_t>(replay.valid_bytes)) != 0) {
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return nullptr;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      fd, replay.start_seq, replay.last_seq, replay.valid_bytes, options));
}

bool WalWriter::Append(const graph::UpdateList& updates) {
  if (!ok_ || fd_ < 0) {
    return false;
  }
  if (updates.size() > (UINT32_MAX - 4) / kUpdateBytes) {
    // The frame's payload length is 32-bit; a wrapped length could never
    // replay. Refuse (and poison) instead of journaling garbage.
    ok_ = false;
    return false;
  }
  const std::string payload = EncodePayload(updates);
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  AppendPod(record, kRecordMagic);
  AppendPod(record, static_cast<uint32_t>(payload.size()));
  AppendPod(record, last_seq_ + 1);
  AppendPod(record, util::Crc32c(payload.data(), payload.size()));
  AppendPod(record, util::Crc32c(record.data(), record.size()));
  record += payload;
  if (!WriteAll(fd_, record.data(), record.size())) {
    ok_ = false;
    return false;
  }
  bytes_ += record.size();
  ++last_seq_;
  if (options_.fsync_on_commit && ::fsync(fd_) != 0) {
    ok_ = false;
    return false;
  }
  return true;
}

bool WalWriter::Sync() {
  if (!ok_ || fd_ < 0) {
    return false;
  }
  if (::fsync(fd_) != 0) {
    ok_ = false;
    return false;
  }
  return true;
}

}  // namespace bingo::core
