#include "src/core/vertex_sampler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <new>
#include <sstream>

#include "src/sampling/batch_kernels.h"
#include "src/util/bitops.h"

namespace bingo::core {

VertexMemoryBreakdown& VertexMemoryBreakdown::operator+=(
    const VertexMemoryBreakdown& other) {
  for (std::size_t i = 0; i < group_bytes.size(); ++i) {
    group_bytes[i] += other.group_bytes[i];
  }
  header_bytes += other.header_bytes;
  decimal_bytes += other.decimal_bytes;
  alias_bytes += other.alias_bytes;
  return *this;
}

// ------------------------------------------------------------------ Block --

// The per-vertex block: this 16-byte header, then prob[num_slots],
// alias[num_slots], slot_radix[num_slots], padding to 8 bytes,
// groups[num_groups], and the DecimalGroup when has_decimal. Sizes are
// exact; every change to the set of headers reallocates (Reshape).
struct VertexSampler::Block {
  uint64_t present;    // bit k set: groups() holds the header of 2^k
  uint8_t num_groups;  // popcount(present)
  uint8_t num_slots;   // num_groups + has_decimal: one alias slot each
  bool has_decimal;
  uint8_t reserved[5];

  // Bytes an alias slot occupies: prob, alias and slot-map entries.
  static constexpr std::size_t kSlotBytes =
      sizeof(double) + sizeof(uint32_t) + sizeof(int8_t);

  static std::size_t GroupsOffset(std::size_t slots) {
    constexpr std::size_t kAlign = alignof(RadixGroup);
    return (sizeof(Block) + slots * kSlotBytes + kAlign - 1) / kAlign * kAlign;
  }
  static std::size_t Bytes(std::size_t groups, bool decimal) {
    return GroupsOffset(groups + (decimal ? 1 : 0)) +
           groups * sizeof(RadixGroup) + (decimal ? sizeof(DecimalGroup) : 0);
  }

  double* Prob() { return reinterpret_cast<double*>(this + 1); }
  const double* Prob() const { return reinterpret_cast<const double*>(this + 1); }
  uint32_t* Alias() { return reinterpret_cast<uint32_t*>(Prob() + num_slots); }
  const uint32_t* Alias() const {
    return reinterpret_cast<const uint32_t*>(Prob() + num_slots);
  }
  // Slot -> radix position k of the group behind it; kDecimalGroupId for
  // the decimal slot. Slot s < num_groups is always groups()[s].
  int8_t* SlotRadix() { return reinterpret_cast<int8_t*>(Alias() + num_slots); }
  const int8_t* SlotRadix() const {
    return reinterpret_cast<const int8_t*>(Alias() + num_slots);
  }
  RadixGroup* Groups() {
    return reinterpret_cast<RadixGroup*>(reinterpret_cast<char*>(this) +
                                         GroupsOffset(num_slots));
  }
  const RadixGroup* Groups() const {
    return reinterpret_cast<const RadixGroup*>(
        reinterpret_cast<const char*>(this) + GroupsOffset(num_slots));
  }
  DecimalGroup* Decimal() {
    return reinterpret_cast<DecimalGroup*>(Groups() + num_groups);
  }
  const DecimalGroup* Decimal() const {
    return reinterpret_cast<const DecimalGroup*>(Groups() + num_groups);
  }

  std::span<const double> ProbSpan() const { return {Prob(), num_slots}; }
  std::span<const uint32_t> AliasSpan() const { return {Alias(), num_slots}; }

  // Index into Groups() of radix position k (present or not).
  int IndexOf(int k) const {
    return util::Popcount(present & ((uint64_t{1} << k) - 1));
  }
};

static_assert(alignof(DecimalGroup) <= alignof(RadixGroup));

VertexSampler VertexSampler::Clone() const {
  VertexSampler copy(config_);
  if (block_ == nullptr) {
    return copy;
  }
  const Block& from = *block_;
  util::MemoryPool& pool = Pool();
  auto* fresh = static_cast<Block*>(
      pool.Allocate(Block::Bytes(from.num_groups, from.has_decimal)));
  // Header, alias table and slot map are plain bytes; the groups and the
  // decimal group deep-copy their payloads.
  std::memcpy(static_cast<void*>(fresh), &from,
              Block::GroupsOffset(from.num_slots));
  for (int g = 0; g < from.num_groups; ++g) {
    new (fresh->Groups() + g) RadixGroup(from.Groups()[g].Clone(pool));
  }
  if (from.has_decimal) {
    new (fresh->Decimal()) DecimalGroup(from.Decimal()->Clone(pool));
  }
  copy.block_ = fresh;
  return copy;
}

void VertexSampler::Release() {
  if (block_ == nullptr) {
    return;
  }
  util::MemoryPool& pool = Pool();
  RadixGroup* groups = block_->Groups();
  for (int g = 0; g < block_->num_groups; ++g) {
    groups[g].Clear(pool);
  }
  if (block_->has_decimal) {
    block_->Decimal()->Clear(pool);
  }
  pool.Deallocate(block_, Block::Bytes(block_->num_groups, block_->has_decimal));
  block_ = nullptr;
}

void VertexSampler::Reshape(uint64_t present, bool decimal) {
  static_assert(sizeof(Block) == 16);
  if (present == 0 && !decimal) {
    Release();
    return;
  }
  util::MemoryPool& pool = Pool();
  const int num_groups = util::Popcount(present);
  Block* fresh = new (pool.Allocate(Block::Bytes(num_groups, decimal)))
      Block{present, static_cast<uint8_t>(num_groups),
            static_cast<uint8_t>(num_groups + (decimal ? 1 : 0)), decimal, {}};

  // Headers are trivially copyable handles: surviving ones move over as
  // bytes, dropped ones are empty and own no payload.
  Block* old = block_;
  const uint64_t old_present = old != nullptr ? old->present : 0;
  const RadixGroup* from = old != nullptr ? old->Groups() : nullptr;
  RadixGroup* to = fresh->Groups();
  util::ForEachSetBit(present | old_present, [&](int k) {
    const bool in_old = (old_present >> k) & 1;
    if ((present >> k) & 1) {
      new (to++) RadixGroup(in_old ? *from : RadixGroup());
    }
    if (in_old) {
      assert(((present >> k) & 1) || from->Empty());
      ++from;
    }
  });
  const bool old_decimal = old != nullptr && old->has_decimal;
  if (decimal) {
    new (fresh->Decimal()) DecimalGroup(
        old_decimal ? *old->Decimal() : DecimalGroup(config_->decimal_policy));
  }
  assert(!old_decimal || decimal || old->Decimal()->Empty());
  if (old != nullptr) {
    pool.Deallocate(old, Block::Bytes(old->num_groups, old->has_decimal));
  }
  block_ = fresh;
}

RadixGroup& VertexSampler::GroupFor(int k) {
  assert(block_ != nullptr && ((block_->present >> k) & 1));
  return block_->Groups()[block_->IndexOf(k)];
}

const RadixGroup* VertexSampler::GroupAt(int k) const {
  if (block_ == nullptr || k < 0 || k >= 64 || !((block_->present >> k) & 1)) {
    return nullptr;
  }
  return &block_->Groups()[block_->IndexOf(k)];
}

const DecimalGroup& VertexSampler::Decimal() const {
  static const DecimalGroup kNoDecimal;
  return block_ != nullptr && block_->has_decimal ? *block_->Decimal()
                                                  : kNoDecimal;
}

// ---------------------------------------------------------------- updates --

void VertexSampler::Build(std::span<const graph::Edge> adj) {
  assert(config_ != nullptr);
  Release();
  const uint32_t degree = static_cast<uint32_t>(adj.size());

  // Pass 1: split every bias once, counting members per radix position.
  static thread_local std::vector<BiasParts> parts;
  parts.resize(degree);
  std::array<uint32_t, 64> counts{};
  uint64_t present = 0;
  uint32_t decimal_members = 0;
  uint32_t decimal_extent = 0;
  for (uint32_t idx = 0; idx < degree; ++idx) {
    parts[idx] = Split(adj[idx].bias);
    present |= parts[idx].int_bits;
    util::ForEachSetBit(parts[idx].int_bits, [&](int k) { ++counts[k]; });
    if (parts[idx].dec_fixed != 0) {
      ++decimal_members;
      decimal_extent = idx + 1;
    }
  }
  const bool decimal = decimal_members > 0;
  Reshape(present, decimal);
  if (block_ == nullptr) {
    return;  // no out-weight: no block
  }

  // Pass 2: counting-sort the members by radix position (adjacency order
  // within each), then build each group directly in its classified
  // representation (avoids insert-then-convert churn).
  std::array<uint32_t, 64> cursor{};
  uint32_t total = 0;
  util::ForEachSetBit(present, [&](int k) {
    cursor[k] = total;
    total += counts[k];
  });
  static thread_local std::vector<uint32_t> members;
  members.resize(total);
  util::MemoryPool& pool = Pool();
  DecimalGroup* decimal_group = decimal ? block_->Decimal() : nullptr;
  if (decimal) {
    decimal_group->Reserve(decimal_members, decimal_extent, pool);
  }
  for (uint32_t idx = 0; idx < degree; ++idx) {
    util::ForEachSetBit(parts[idx].int_bits,
                        [&](int k) { members[cursor[k]++] = idx; });
    if (parts[idx].dec_fixed != 0) {
      decimal_group->Insert(idx, parts[idx].dec_fixed, pool);
    }
  }
  RadixGroup* group = block_->Groups();
  uint32_t begin = 0;
  util::ForEachSetBit(present, [&](int k) {
    const GroupKind kind = ClassifyGroup(counts[k], degree, config_->adaptive);
    (group++)->RebuildAs(
        kind, std::span<const uint32_t>(members).subspan(begin, counts[k]),
        degree, pool);
    begin += counts[k];
  });
  RebuildInterGroupAlias();
}

void VertexSampler::InsertEdge(std::span<const graph::Edge> adj, uint32_t idx) {
  const BiasParts parts = Split(adj[idx].bias);
  const uint32_t degree = static_cast<uint32_t>(adj.size());
  const uint64_t present = block_ != nullptr ? block_->present : 0;
  const bool decimal = block_ != nullptr && block_->has_decimal;
  const bool to_decimal = parts.dec_fixed != 0;
  if ((parts.int_bits & ~present) != 0 || (to_decimal && !decimal)) {
    Reshape(present | parts.int_bits, decimal || to_decimal);
  }
  util::ForEachSetBit(parts.int_bits,
                      [&](int k) { GroupFor(k).Insert(idx, degree, Pool()); });
  if (to_decimal) {
    block_->Decimal()->Insert(idx, parts.dec_fixed, Pool());
  }
}

void VertexSampler::RemoveEdge(std::span<const graph::Edge> adj, uint32_t idx) {
  const BiasParts parts = Split(adj[idx].bias);
  util::ForEachSetBit(parts.int_bits,
                      [&](int k) { GroupFor(k).Remove(idx, Pool()); });
  if (parts.dec_fixed != 0) {
    block_->Decimal()->Remove(idx, Pool());
  }
}

void VertexSampler::RenameIndex(double moved_bias, uint32_t from, uint32_t to) {
  const BiasParts parts = Split(moved_bias);
  util::ForEachSetBit(parts.int_bits,
                      [&](int k) { GroupFor(k).Rename(from, to, Pool()); });
  if (parts.dec_fixed != 0) {
    block_->Decimal()->Rename(from, to, Pool());
  }
}

void VertexSampler::RemoveEdgesBatch(std::span<const graph::Edge> adj,
                                     std::span<const uint32_t> idxs) {
  // Bucket the victims by radix group, then run one two-phase
  // delete-and-swap per affected group (Fig 10b).
  std::vector<std::vector<uint32_t>> per_group;
  for (uint32_t idx : idxs) {
    const BiasParts parts = Split(adj[idx].bias);
    util::ForEachSetBit(parts.int_bits, [&](int k) {
      if (static_cast<int>(per_group.size()) <= k) {
        per_group.resize(k + 1);
      }
      per_group[static_cast<std::size_t>(k)].push_back(idx);
    });
    if (parts.dec_fixed != 0) {
      block_->Decimal()->Remove(idx, Pool());
    }
  }
  for (int k = 0; k < static_cast<int>(per_group.size()); ++k) {
    const auto& victims = per_group[static_cast<std::size_t>(k)];
    if (!victims.empty()) {
      GroupFor(k).BatchRemove(victims, Pool());
    }
  }
}

void VertexSampler::FinishUpdate(std::span<const graph::Edge> adj) {
  if (block_ == nullptr) {
    return;  // no weight before or after: nothing to rebuild
  }
  // BS mode also reclassifies: Insert() may have escalated an empty group
  // through the one-element representation, and BS requires every
  // non-empty group to be regular.
  ReclassifyGroups(adj);
  // Pack out the groups (and the decimal group) that emptied.
  uint64_t live = 0;
  const RadixGroup* group = block_->Groups();
  util::ForEachSetBit(block_->present, [&](int k) {
    if (!(group++)->Empty()) {
      live |= uint64_t{1} << k;
    }
  });
  const bool decimal = block_->has_decimal && !block_->Decimal()->Empty();
  if (live != block_->present || decimal != block_->has_decimal) {
    Reshape(live, decimal);
  }
  if (block_ != nullptr) {
    RebuildInterGroupAlias();
  }
}

std::vector<uint32_t> VertexSampler::ScanMembers(std::span<const graph::Edge> adj,
                                                 int k) const {
  std::vector<uint32_t> members;
  for (uint32_t idx = 0; idx < adj.size(); ++idx) {
    const BiasParts parts = Split(adj[idx].bias);
    if ((parts.int_bits >> k) & 1ULL) {
      members.push_back(idx);
    }
  }
  return members;
}

void VertexSampler::ReclassifyGroups(std::span<const graph::Edge> adj) {
  const uint32_t degree = static_cast<uint32_t>(adj.size());
  RadixGroup* groups = block_->Groups();
  util::ForEachSetBit(block_->present, [&](int k) {
    RadixGroup& group = *groups++;
    const GroupKind current = group.Kind();
    const GroupKind target =
        ClassifyGroup(group.Count(), degree, config_->adaptive);
    if (current == target) {
      return;
    }
    // Conversion accounting (Table 4) only makes sense for the adaptive
    // representation; BS conversions are representation plumbing.
    if (config_->conversion_stats != nullptr && config_->adaptive.adaptive) {
      config_->conversion_stats->Record(current, target);
    }
    if (target == GroupKind::kEmpty) {
      group.Clear(Pool());
      return;
    }
    std::vector<uint32_t> members;
    if (current == GroupKind::kDense) {
      members = ScanMembers(adj, k);
    } else {
      group.CollectMembers(members);
    }
    group.RebuildAs(target, members, degree, Pool());
  });
}

void VertexSampler::RebuildInterGroupAlias() {
  // Runs on every update; scratch is thread-local to avoid per-call heap
  // traffic. Requires every present group to be non-empty (Build and
  // FinishUpdate pack the empty ones out first).
  static thread_local std::vector<double> weights;
  weights.clear();
  Block& block = *block_;
  const RadixGroup* groups = block.Groups();
  int8_t* slot_radix = block.SlotRadix();
  std::size_t slot = 0;
  util::ForEachSetBit(block.present, [&](int k) {
    assert(!groups[slot].Empty());
    weights.push_back(GroupWeight(k, groups[slot].Count()));
    slot_radix[slot++] = static_cast<int8_t>(k);
  });
  if (block.has_decimal) {
    weights.push_back(std::ldexp(
        static_cast<double>(block.Decimal()->TotalFixed()), -kDecimalBits));
    slot_radix[slot++] = kDecimalGroupId;
  }
  sampling::AliasTable::BuildInto(
      weights, std::span<double>(block.Prob(), block.num_slots),
      std::span<uint32_t>(block.Alias(), block.num_slots));
}

// --------------------------------------------------------------- sampling --

uint32_t VertexSampler::SampleIndex(std::span<const graph::Edge> adj,
                                    util::Rng& rng) const {
  const Block* block = block_;
  if (block == nullptr) {
    return kNoNeighbor;
  }
  // Degree-1 vertices (the bulk of a power-law graph) have exactly one
  // possible outcome; skip both sampling stages.
  if (adj.size() == 1) {
    return 0;
  }
  // Stage (i): inter-group alias sampling. A single-group space needs no
  // alias draw.
  const uint32_t slot =
      block->num_slots == 1
          ? 0
          : sampling::AliasTable::SampleFrom(block->ProbSpan(),
                                             block->AliasSpan(), rng);
  if (slot == block->num_groups) {
    return block->Decimal()->Sample(rng);
  }
  const RadixGroup& group = block->Groups()[slot];
  // Stage (ii): uniform intra-group pick.
  if (group.Kind() == GroupKind::kDense) {
    // Rejection on the adjacency array (§5.1): accept a uniformly-drawn
    // neighbor iff its bias has bit k set; acceptance ratio > alpha%.
    const int k = block->SlotRadix()[slot];
    for (;;) {
      const uint32_t idx = static_cast<uint32_t>(rng.NextBounded(adj.size()));
      const BiasParts parts = Split(adj[idx].bias);
      if ((parts.int_bits >> k) & 1ULL) {
        return idx;
      }
    }
  }
  return group.PickUniform(rng);
}

void VertexSampler::SampleIndexBatch(std::span<const graph::Edge> adj,
                                     util::Rng* const* rngs, std::size_t n,
                                     uint32_t* out) const {
  // The early-outs mirror SampleIndex exactly: neither consumes a variate.
  const Block* block = block_;
  if (block == nullptr) {
    std::fill_n(out, n, kNoNeighbor);
    return;
  }
  if (adj.size() == 1) {
    std::fill_n(out, n, 0u);
    return;
  }
  const uint32_t decimal_slot = block->num_groups;
  const DecimalGroup* decimal = block->has_decimal ? block->Decimal() : nullptr;
  const RadixGroup* groups = block->Groups();
  const int8_t* slot_radix = block->SlotRadix();
  constexpr std::size_t kTile = 64;
  uint32_t slots[kTile];
  uint32_t pending[kTile];  // tile-local walker indices still in rejection
  uint32_t cand[kTile];
  double cand_bias[kTile];
  uint64_t cand_bits[kTile];
  for (std::size_t begin = 0; begin < n; begin += kTile) {
    const std::size_t count = std::min(kTile, n - begin);
    // Stage (i): inter-group alias draw, lane-batched. A single-group
    // space draws nothing — same skip as SampleIndex.
    if (block->num_slots == 1) {
      std::fill_n(slots, count, 0u);
    } else {
      sampling::AliasTable::SampleBatchFrom(block->ProbSpan(),
                                            block->AliasSpan(), rngs + begin,
                                            count, slots);
    }
    // Stage (ii): decimal and list-backed groups finish per walker (their
    // follow-up draws come from that walker's own stream, in SampleIndex's
    // order); dense groups queue for the batched rejection rounds.
    std::size_t num_pending = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (slots[i] == decimal_slot) {
        out[begin + i] = decimal->Sample(*rngs[begin + i]);
        continue;
      }
      const RadixGroup& group = groups[slots[i]];
      if (group.Kind() == GroupKind::kDense) {
        pending[num_pending++] = static_cast<uint32_t>(i);
        continue;
      }
      out[begin + i] = group.PickUniform(*rngs[begin + i]);
    }
    // Dense rejection (§5.1) in rounds: each round every still-rejected
    // walker draws one candidate from its own stream — the same candidate
    // sequence the scalar loop draws — and all bit tests resolve as one
    // SplitBiasIntBatch lane pass. Dense groups guarantee acceptance
    // probability > alpha%, so rounds drain geometrically.
    while (num_pending > 0) {
      for (std::size_t p = 0; p < num_pending; ++p) {
        const std::size_t i = pending[p];
        cand[p] =
            static_cast<uint32_t>(rngs[begin + i]->NextBounded(adj.size()));
        cand_bias[p] = adj[cand[p]].bias;
      }
      sampling::SplitBiasIntBatch(cand_bias, num_pending, config_->lambda,
                                  cand_bits);
      std::size_t still = 0;
      for (std::size_t p = 0; p < num_pending; ++p) {
        const std::size_t i = pending[p];
        const int k = slot_radix[slots[i]];
        if ((cand_bits[p] >> k) & 1ULL) {
          out[begin + i] = cand[p];
        } else {
          pending[still++] = pending[p];
        }
      }
      num_pending = still;
    }
  }
}

// ---------------------------------------------------------- introspection --

std::vector<double> VertexSampler::ImpliedDistribution(
    std::span<const graph::Edge> adj) const {
  std::vector<double> probs(adj.size(), 0.0);
  if (block_ == nullptr) {
    return probs;
  }
  const Block& block = *block_;
  const std::vector<double> slot_probs =
      sampling::AliasTable::ImpliedProbabilitiesOf(block.ProbSpan(),
                                                   block.AliasSpan());
  for (std::size_t slot = 0; slot < block.num_slots; ++slot) {
    const double p_group = slot_probs[slot];
    if (slot == block.num_groups) {
      const DecimalGroup& decimal = *block.Decimal();
      std::vector<std::pair<uint32_t, uint32_t>> members;
      decimal.CollectMembers(members);
      const double total = static_cast<double>(decimal.TotalFixed());
      for (const auto& [idx, dec] : members) {
        probs[idx] += p_group * static_cast<double>(dec) / total;
      }
      continue;
    }
    const RadixGroup& group = block.Groups()[slot];
    std::vector<uint32_t> members;
    if (group.Kind() == GroupKind::kDense) {
      members = ScanMembers(adj, block.SlotRadix()[slot]);
    } else {
      group.CollectMembers(members);
    }
    const double share = p_group / static_cast<double>(members.size());
    for (uint32_t idx : members) {
      probs[idx] += share;
    }
  }
  return probs;
}

std::string VertexSampler::CheckInvariants(std::span<const graph::Edge> adj) const {
  const uint32_t degree = static_cast<uint32_t>(adj.size());
  const DecimalGroup& decimal = Decimal();
  // Ground truth: per-k membership recomputed from the adjacency.
  std::vector<std::vector<uint32_t>> expected;
  uint64_t expected_decimal_total = 0;
  uint32_t expected_decimal_count = 0;
  for (uint32_t idx = 0; idx < degree; ++idx) {
    const BiasParts parts = Split(adj[idx].bias);
    util::ForEachSetBit(parts.int_bits, [&](int k) {
      if (static_cast<int>(expected.size()) <= k) {
        expected.resize(k + 1);
      }
      expected[static_cast<std::size_t>(k)].push_back(idx);
    });
    if (parts.dec_fixed != 0) {
      expected_decimal_total += parts.dec_fixed;
      ++expected_decimal_count;
      if (!decimal.Contains(idx) || decimal.DecOf(idx) != parts.dec_fixed) {
        return "decimal group missing or wrong weight for index " +
               std::to_string(idx);
      }
    }
  }
  if (decimal.TotalFixed() != expected_decimal_total ||
      decimal.Count() != expected_decimal_count) {
    return "decimal group aggregate mismatch";
  }
  if (const std::string err = decimal.CheckInvariants(); !err.empty()) {
    return err;
  }
  if (block_ == nullptr) {
    return expected.empty() ? std::string{}
                            : "vertex with radix weight has no block";
  }
  const Block& block = *block_;
  if (block.present == 0 && !block.has_decimal) {
    return "block held by a vertex without weight";
  }
  if (block.has_decimal) {
    if (decimal.Empty()) {
      return "empty decimal group kept in the block";
    }
    if (decimal.GetPolicy() != config_->decimal_policy) {
      return "decimal group policy differs from the configured one";
    }
  }

  for (int k = 0; k < 64; ++k) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const RadixGroup* group = GroupAt(k);
    if (group != nullptr && group->Empty()) {
      return "group 2^" + std::to_string(k) + " is empty but not packed out";
    }
    const uint64_t want = uk < expected.size() ? expected[uk].size() : 0;
    const uint64_t have = group != nullptr ? group->Count() : 0;
    if (want != have) {
      return "group 2^" + std::to_string(k) + " count mismatch: want " +
             std::to_string(want) + " have " + std::to_string(have);
    }
    if (have == 0) {
      continue;
    }
    const GroupKind want_kind =
        ClassifyGroup(have, degree, config_->adaptive);
    if (group->Kind() != want_kind) {
      return "group 2^" + std::to_string(k) + " kind mismatch: want " +
             std::string(ToString(want_kind)) + " have " +
             std::string(ToString(group->Kind()));
    }
    if (const std::string err = group->CheckInvariants(); !err.empty()) {
      return "group 2^" + std::to_string(k) + ": " + err;
    }
    if (group->Kind() != GroupKind::kDense) {
      for (uint32_t idx : expected[uk]) {
        if (!group->Contains(idx)) {
          return "group 2^" + std::to_string(k) + " missing member " +
                 std::to_string(idx);
        }
      }
    }
  }

  // The alias table must cover exactly the non-empty groups, in ascending
  // radix order, then the decimal group.
  const int num_groups = util::Popcount(block.present);
  if (block.num_groups != num_groups ||
      block.num_slots != num_groups + (block.has_decimal ? 1 : 0)) {
    return "inter-group alias table stale";
  }
  std::size_t slot = 0;
  bool slot_map_ok = true;
  util::ForEachSetBit(block.present, [&](int k) {
    slot_map_ok = slot_map_ok && block.SlotRadix()[slot++] == k;
  });
  if (block.has_decimal) {
    slot_map_ok = slot_map_ok && block.SlotRadix()[slot] == kDecimalGroupId;
  }
  if (!slot_map_ok) {
    return "alias slot map out of order";
  }
  return {};
}

VertexMemoryBreakdown VertexSampler::MemoryBreakdown() const {
  VertexMemoryBreakdown breakdown;
  if (block_ == nullptr) {
    return breakdown;
  }
  // Every block at the pool size class it takes; a block's slack is
  // counted with its headers.
  const auto pooled = util::MemoryPool::ClassSize;
  const Block& block = *block_;
  breakdown.alias_bytes = block.num_slots * Block::kSlotBytes;
  breakdown.header_bytes =
      pooled(Block::Bytes(block.num_groups, block.has_decimal)) -
      breakdown.alias_bytes;
  for (int g = 0; g < block.num_groups; ++g) {
    const RadixGroup& group = block.Groups()[g];
    breakdown.group_bytes[static_cast<int>(group.Kind())] +=
        pooled(group.MemoryBytes());
  }
  if (block.has_decimal) {
    breakdown.decimal_bytes = pooled(block.Decimal()->MemoryBytes());
  }
  return breakdown;
}

void VertexSampler::CountGroupKinds(std::array<uint64_t, 5>& counts) const {
  if (block_ == nullptr) {
    return;
  }
  for (int g = 0; g < block_->num_groups; ++g) {
    ++counts[static_cast<int>(block_->Groups()[g].Kind())];
  }
}

int VertexSampler::NumActiveGroups() const {
  return block_ == nullptr ? 0 : block_->num_groups;
}

}  // namespace bingo::core
