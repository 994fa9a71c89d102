// Sampling-kernel microbenchmark: scalar per-walker draws vs the SoA batch
// kernels (src/sampling/batch_kernels.h) behind the fused walk driver.
//
// For each sampler — alias table, ITS, the Bingo vertex sampler, and the
// arbitrary-base radix sampler — a pool of walker RNG streams draws
// `reps x walkers` samples three ways:
//
//   scalar          one Sample call per walker per round
//   batched         one SampleBatch call per round (SIMD lanes + tiling)
//   batched-scalar  SampleBatch with AVX2 force-disabled (tiling only)
//
// All three use identical RNG streams, so outputs must agree draw for draw
// (the bench asserts a checksum match — the bit-identity contract holds in
// the measured configuration, not just in tests). ns/draw and the batched
// speedup go to stdout and, with --json OUT.json, to a JSON file for the
// BENCH_*.json perf trajectory.
//
// Environment knobs: BINGO_BENCH_KWALKERS (default 4096 streams),
// BINGO_BENCH_KREPS (default 200 rounds).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/radix_base.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/its.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"

namespace bingo::bench {
namespace {

struct Cell {
  std::string kernel;
  std::size_t degree = 0;
  double scalar_ns = 0;
  double batched_ns = 0;
  double batched_scalar_ns = 0;
  double Speedup() const {
    return batched_ns > 0 ? scalar_ns / batched_ns : 0.0;
  }
};

std::vector<util::Rng> MakeStreams(std::size_t n, uint64_t seed) {
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rngs.push_back(util::Rng::ForStream(seed, i));
  }
  return rngs;
}

// Measures one sampler. `scalar(rng)` draws once from one stream;
// `batched(rng_ptrs, n, out)` draws once per stream. Streams are reset to
// the same seed before each timed section, so the checksum comparison
// doubles as a bit-identity assertion over every measured draw.
template <typename ScalarFn, typename BatchFn>
Cell Measure(const char* kernel, std::size_t degree, std::size_t walkers,
             int reps, ScalarFn&& scalar, BatchFn&& batched) {
  Cell cell;
  cell.kernel = kernel;
  cell.degree = degree;
  const double draws = static_cast<double>(walkers) * reps;
  std::vector<uint32_t> out(walkers);

  uint64_t scalar_sum = 0;
  {
    auto rngs = MakeStreams(walkers, 0xbe9c);
    cell.scalar_ns = TimeSec([&] {
                       for (int r = 0; r < reps; ++r) {
                         for (std::size_t i = 0; i < walkers; ++i) {
                           scalar_sum += scalar(rngs[i]);
                         }
                       }
                     }) *
                     1e9 / draws;
  }

  const auto run_batched = [&](uint64_t& sum) {
    auto rngs = MakeStreams(walkers, 0xbe9c);
    std::vector<util::Rng*> ptrs(walkers);
    for (std::size_t i = 0; i < walkers; ++i) {
      ptrs[i] = &rngs[i];
    }
    return TimeSec([&] {
             for (int r = 0; r < reps; ++r) {
               batched(ptrs.data(), walkers, out.data());
               for (std::size_t i = 0; i < walkers; ++i) {
                 sum += out[i];
               }
             }
           }) *
           1e9 / draws;
  };

  uint64_t batched_sum = 0;
  cell.batched_ns = run_batched(batched_sum);
  uint64_t forced_sum = 0;
  {
    util::ScopedForceScalar force_scalar;
    cell.batched_scalar_ns = run_batched(forced_sum);
  }
  if (scalar_sum != batched_sum || scalar_sum != forced_sum) {
    std::fprintf(stderr,
                 "%s: BIT-IDENTITY VIOLATION (scalar %llu, batched %llu, "
                 "forced-scalar %llu)\n",
                 kernel, static_cast<unsigned long long>(scalar_sum),
                 static_cast<unsigned long long>(batched_sum),
                 static_cast<unsigned long long>(forced_sum));
    std::exit(1);
  }
  return cell;
}

// A star adjacency with mixed fractional biases — exercises the dense
// rejection groups, uniform groups, and the decimal group together.
graph::DynamicGraph StarGraph(std::size_t degree, uint64_t seed) {
  util::Rng rng(seed);
  graph::DynamicGraph g(static_cast<graph::VertexId>(degree + 8));
  for (std::size_t i = 0; i < degree; ++i) {
    g.Insert(0, static_cast<graph::VertexId>(i + 1),
             0.25 + rng.NextUnit() * static_cast<double>(
                                         1 + rng.NextBounded(64)));
  }
  return g;
}

}  // namespace
}  // namespace bingo::bench

int main(int argc, char** argv) {
  using namespace bingo;
  bench::TuneAllocator();

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--json OUT.json]\n");
      return 2;
    }
  }

  const auto walkers = static_cast<std::size_t>(
      bench::EnvInt("BINGO_BENCH_KWALKERS", 4096));
  const int reps = static_cast<int>(bench::EnvInt("BINGO_BENCH_KREPS", 200));
  const char* simd = util::ToString(util::ActiveSimdLevel());
  std::printf("bench_kernels: %zu walker streams x %d rounds, simd %s\n\n",
              walkers, reps, simd);

  std::vector<bench::Cell> cells;
  for (const std::size_t degree : {64, 1024}) {
    util::Rng wrng(degree);
    std::vector<double> weights(degree);
    for (auto& w : weights) {
      w = 1.0 + static_cast<double>(wrng.NextBounded(1000));
    }

    sampling::AliasTable alias;
    alias.Build(weights);
    cells.push_back(bench::Measure(
        "alias", degree, walkers, reps,
        [&](util::Rng& rng) { return alias.Sample(rng); },
        [&](util::Rng* const* rngs, std::size_t n, uint32_t* out) {
          alias.SampleBatch(rngs, n, out);
        }));

    sampling::ItsSampler its;
    its.Build(weights);
    cells.push_back(bench::Measure(
        "its", degree, walkers, reps,
        [&](util::Rng& rng) { return its.Sample(rng); },
        [&](util::Rng* const* rngs, std::size_t n, uint32_t* out) {
          its.SampleBatch(rngs, n, out);
        }));

    const auto g = bench::StarGraph(degree, degree + 7);
    const auto adj = g.Neighbors(0);
    core::BingoConfig config;
    config.pool = &g.Pool();  // as BingoStore does
    core::VertexSampler sampler;
    sampler.SetConfig(&config);
    sampler.Build(adj);
    cells.push_back(bench::Measure(
        "bingo_vertex", degree, walkers, reps,
        [&](util::Rng& rng) { return sampler.SampleIndex(adj, rng); },
        [&](util::Rng* const* rngs, std::size_t n, uint32_t* out) {
          sampler.SampleIndexBatch(adj, rngs, n, out);
        }));
    sampler.Release();

    core::RadixBaseVertexSampler radix(/*log2_base=*/2);
    radix.Build(adj);
    cells.push_back(bench::Measure(
        "radix_base", degree, walkers, reps,
        [&](util::Rng& rng) { return radix.SampleIndex(rng); },
        [&](util::Rng* const* rngs, std::size_t n, uint32_t* out) {
          radix.SampleIndexBatch(rngs, n, out);
        }));
  }

  std::printf("%-14s %8s %12s %12s %16s %9s\n", "kernel", "degree",
              "scalar ns", "batched ns", "batched-scalar", "speedup");
  for (const auto& cell : cells) {
    std::printf("%-14s %8zu %12.2f %12.2f %16.2f %8.2fx\n",
                cell.kernel.c_str(), cell.degree, cell.scalar_ns,
                cell.batched_ns, cell.batched_scalar_ns, cell.Speedup());
  }

  std::string json = "{\"bench\":\"kernels\",\"simd\":\"";
  json += simd;
  json += "\",\"walkers\":" + std::to_string(walkers);
  json += ",\"reps\":" + std::to_string(reps) + ",\"cells\":[";
  char buf[256];
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"kernel\":\"%s\",\"degree\":%zu,\"scalar_ns\":%.3f,"
                  "\"batched_ns\":%.3f,\"batched_scalar_ns\":%.3f,"
                  "\"speedup\":%.3f}",
                  i == 0 ? "" : ",", cell.kernel.c_str(), cell.degree,
                  cell.scalar_ns, cell.batched_ns, cell.batched_scalar_ns,
                  cell.Speedup());
    json += buf;
  }
  json += "]}";
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
    std::printf("\njson written to %s\n", json_path.c_str());
  } else {
    std::printf("\n%s\n", json.c_str());
  }
  return 0;
}
