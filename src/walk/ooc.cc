#include "src/walk/ooc.h"

#include <cstdio>

namespace bingo::walk {

WalkerSpill::WalkerSpill(std::string dir, uint32_t num_blocks)
    : dir_(std::move(dir)), counts_(num_blocks, 0) {}

WalkerSpill::~WalkerSpill() {
  for (uint32_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] > 0) {
      std::remove(PathFor(b).c_str());
    }
  }
}

std::string WalkerSpill::PathFor(uint32_t block) const {
  return dir_ + "/park-" + std::to_string(block) + ".bin";
}

bool WalkerSpill::Spill(uint32_t block, const Walker* walkers,
                        std::size_t count) {
  if (dir_.empty() || count == 0) {
    return false;
  }
  std::FILE* f = std::fopen(PathFor(block).c_str(), "ab");
  if (f == nullptr) {
    return false;
  }
  const std::size_t written = std::fwrite(walkers, sizeof(Walker), count, f);
  const bool ok = std::fclose(f) == 0 && written == count;
  if (ok) {
    counts_[block] += count;
  }
  return ok;
}

bool WalkerSpill::Drain(uint32_t block, std::vector<Walker>& out) {
  const uint64_t count = counts_[block];
  if (count == 0) {
    return true;
  }
  const std::string path = PathFor(block);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(count));
  const std::size_t read =
      std::fread(out.data() + base, sizeof(Walker),
                 static_cast<std::size_t>(count), f);
  std::fclose(f);
  std::remove(path.c_str());
  counts_[block] = 0;
  if (read != count) {
    out.resize(base + read);
    return false;
  }
  return true;
}

}  // namespace bingo::walk
