// Shared store-surface types.
//
// Every sampler store backend — BingoStore, the alias/ITS/rejection
// baseline stores, and PartitionedBingoStore — reports batched updates and
// memory consumption through these types, so the walk layer (engine, apps,
// analytics, WalkService, CLI, benchmarks) can treat backends
// interchangeably. See src/walk/store.h for the full store concept.

#ifndef BINGO_SRC_CORE_STORE_TYPES_H_
#define BINGO_SRC_CORE_STORE_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace bingo::core {

struct BatchResult {
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t skipped_deletes = 0;  // delete requests with no surviving match

  BatchResult& operator+=(const BatchResult& other) {
    inserted += other.inserted;
    deleted += other.deleted;
    skipped_deletes += other.skipped_deletes;
    return *this;
  }
  friend bool operator==(const BatchResult& a, const BatchResult& b) {
    return a.inserted == b.inserted && a.deleted == b.deleted &&
           a.skipped_deletes == b.skipped_deletes;
  }
};

struct StoreMemoryStats {
  std::size_t graph_bytes = 0;
  std::size_t sampler_fixed_bytes = 0;    // per-vertex sampler objects
  std::size_t sampler_dynamic_bytes = 0;  // heap payload behind them
  // Superseded copy-on-write versions still held for pinned views.
  std::size_t retired_bytes = 0;

  std::size_t SamplerBytes() const {
    return sampler_fixed_bytes + sampler_dynamic_bytes;
  }
  std::size_t TotalBytes() const {
    return graph_bytes + SamplerBytes() + retired_bytes;
  }

  StoreMemoryStats& operator+=(const StoreMemoryStats& other) {
    graph_bytes += other.graph_bytes;
    sampler_fixed_bytes += other.sampler_fixed_bytes;
    sampler_dynamic_bytes += other.sampler_dynamic_bytes;
    retired_bytes += other.retired_bytes;
    return *this;
  }
};

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_STORE_TYPES_H_
