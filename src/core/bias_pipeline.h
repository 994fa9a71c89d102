// The composable bias pipeline: effective bias as a product of factors.
//
//   effective(e) = static_weight(e)
//                  x Decay(logical_now - e.timestamp)
//                  x TypeGate(type(src), type(dst))
//
// The pipeline composes the factors into ONE scalar at batch-apply time, so
// the radix bucketing, the decimal group, and every sampler backend keep
// factorizing a single per-edge bias and stay untouched at their cores: a
// stored Edge.bias IS the effective bias under the store's current logical
// epoch.
//
// Time is LOGICAL: the epoch only advances through an explicit
// graph::MakeAdvanceTime update flowing through ApplyBatch, never through a
// wall clock (bingo_lint rule wall-clock-time enforces this in src/core and
// src/walk). That keeps stores pure functions of (initial edges, applied
// updates): the same batch sequence — clock ticks included — replays to the
// same bits on every store, shard layout, and recovery path.
//
// Decay model: an edge of age `a` epochs carries factor decay^min(a, H)
// where H is an optional horizon (0 = unbounded). Advancing the epoch from
// t0 to t1 multiplies each stored bias by decay^(age(t1) - age(t0)) — an
// incremental rescale whose multiply sequence is identical on every replay,
// so recovered stores stay bit-identical. DecayPow is deterministic binary
// exponentiation (no std::pow; libm results vary across platforms).
//
// Caveat (documented in README "Temporal, typed, and bipartite walks"):
// with a horizon, an AdvanceTime batch changes per-vertex distributions, so
// incremental walk corpora would need whole-corpus repairs; horizonless
// decay multiplies every edge of a vertex by the same factor and preserves
// all distributions, which is why the walk index only supports H = 0.

#ifndef BINGO_SRC_CORE_BIAS_PIPELINE_H_
#define BINGO_SRC_CORE_BIAS_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"

namespace bingo::core {

// decay^k by binary exponentiation: a fixed, platform-independent multiply
// sequence for a given k (determinism contract).
inline double DecayPow(double decay, uint64_t k) {
  double result = 1.0;
  double base = decay;
  while (k > 0) {
    if ((k & 1) != 0) {
      result *= base;
    }
    base *= base;
    k >>= 1;
  }
  return result;
}

struct BiasPipeline {
  // Per-epoch retention factor in (0, 1]; 1.0 = decay off.
  double decay = 1.0;
  // Age cap in epochs; 0 = unbounded. With a horizon, an edge older than H
  // epochs stops decaying (factor floors at decay^H).
  uint32_t horizon = 0;
  // Vertex types: type(v) = v % num_types (<= 1 = untyped). The modular
  // assignment keeps the type table implicit — no per-vertex storage, and
  // sharding by v % num_shards stays independent of typing.
  uint32_t num_types = 1;
  // Row-major num_types x num_types multiplier on (type(src), type(dst));
  // empty = all-pass. A 0 entry forbids the edge class outright: the store
  // composes a 0 effective bias, which every sampler treats as structurally
  // unreachable (SplitBias(0) has no parts).
  std::vector<double> gate;

  bool DecayActive() const { return decay != 1.0; }
  bool GateActive() const { return num_types > 1 && !gate.empty(); }
  bool Active() const { return DecayActive() || GateActive(); }

  uint32_t TypeOf(graph::VertexId v) const {
    return num_types <= 1 ? 0 : v % num_types;
  }

  double Gate(graph::VertexId src, graph::VertexId dst) const {
    if (!GateActive()) {
      return 1.0;
    }
    return gate[static_cast<std::size_t>(TypeOf(src)) * num_types +
                TypeOf(dst)];
  }

  // Decayed age of an edge stamped `timestamp`, observed at `epoch`.
  // Future-stamped edges (timestamp > epoch) have age 0.
  uint64_t AgeAt(uint64_t epoch, uint32_t timestamp) const {
    const uint64_t age = epoch > timestamp ? epoch - timestamp : 0;
    return horizon != 0 && age > horizon ? horizon : age;
  }

  double DecayFactor(uint64_t epoch, uint32_t timestamp) const {
    if (!DecayActive()) {
      return 1.0;
    }
    return DecayPow(decay, AgeAt(epoch, timestamp));
  }

  // The factor a stored (already-composed) bias picks up when the epoch
  // advances old_epoch -> new_epoch. 1.0 exactly when nothing changes.
  double RescaleFactor(uint64_t old_epoch, uint64_t new_epoch,
                       uint32_t timestamp) const {
    if (!DecayActive()) {
      return 1.0;
    }
    const uint64_t k =
        AgeAt(new_epoch, timestamp) - AgeAt(old_epoch, timestamp);
    return k == 0 ? 1.0 : DecayPow(decay, k);
  }

  // Full composition for a fresh insert at `epoch`.
  double Compose(graph::VertexId src, graph::VertexId dst, double static_bias,
                 uint32_t timestamp, uint64_t epoch) const {
    return static_bias * DecayFactor(epoch, timestamp) * Gate(src, dst);
  }
};

// FNV-1a over the pipeline's STATIC parameters, mixed into the snapshot
// config fingerprint. The logical epoch is mutable state carried in the
// snapshot header, not part of the fingerprint.
inline uint64_t PipelineFingerprint(const BiasPipeline& pipeline) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix64 = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&mix64](double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix64(bits);
  };
  mix_double(pipeline.decay);
  mix64(pipeline.horizon);
  mix64(pipeline.num_types);
  mix64(pipeline.gate.size());
  for (const double g : pipeline.gate) {
    mix_double(g);
  }
  return h;
}

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_BIAS_PIPELINE_H_
