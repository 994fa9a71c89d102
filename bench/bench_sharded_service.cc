// Sharded-service scaling sweep: per-batch update latency vs. shard count.
//
// The unsharded WalkService pays 2x a whole-store ApplyBatch per update
// batch regardless of what the batch touches. The sharded service pays 2x
// the touched shards' slice batches, so on a shard-local workload (every
// update's source lands on one shard) the per-batch cost should FALL as
// the shard count grows: the touched shard holds ~1/N of the store, and
// untouched shards do no work at all. A uniform workload shows the other
// regime — every batch touches every shard, and cross-shard parallelism
// plus smaller per-shard rebuild sets carry the win instead.
//
// Two workloads per shard count {1, 2, 4, 8}:
//   local    every update's source maps to shard 0 (mod num_shards), the
//            single-shard-resident workload of the PR acceptance criterion;
//   uniform  the §6.1 mixed stream as-is, sources spread over all shards.
//
// Also reports p50/p99 submit-to-applied latency through the coalescing
// UpdateBatcher at the largest shard count, a walk-throughput sweep over
// executor thread counts {1..16} (the work-stealing executor acceptance
// curve), a walker-transfer superstep sweep (`--app
// deepwalk|node2vec|ppr`, default all three) reporting cross-shard walker
// migrations per step at each shard count, and a persistence section:
// per-checkpoint WAL bytes/latency with the update stream journaled, plus
// the cold recovery time (base load + WAL replay) after a simulated crash.
//
// Flags: --app APP restricts the superstep sweep; --threads N sizes the
// shared executor (default: hardware concurrency); --pin / --numa shape
// its placement; --json OUT.json additionally dumps every section
// machine-readably ({walk_throughput, p50, p99, migrations/step,
// recovery_ms}) so the repo's BENCH_*.json perf trajectory can accumulate.
//
// Environment knobs: BINGO_BENCH_SCALE / ROUNDS / BATCH (bench/common.h).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "bench/common.h"
#include "src/core/bingo_store.h"
#include "src/util/resource.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/update_stream.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/walk/batcher.h"
#include "src/walk/partitioned.h"
#include "src/walk/sharded_service.h"

namespace bingo {
namespace {

struct SweepRow {
  int shards;
  double p50_ms;
  double p99_ms;
  double mean_ms;
  double max_ms;
};

struct WalkRow {
  int threads;
  bool pin;
  double msteps_per_sec;
};

struct SuperstepRow {
  std::string app;
  int shards;
  double msteps_per_sec;
  double migrations_per_step;
  uint64_t supersteps;
};

struct PersistenceRow {
  double base_mib = 0.0;
  double ckpt_kib_per_op = 0.0;
  double ckpt_ms_per_op = 0.0;
  double recovery_ms = 0.0;
  bool recovered_ok = false;
};

// Remaps update sources onto shard 0 of an N-shard service (the residues
// v % N == 0). The stream stays the same size, but as N grows it
// concentrates on the 1/N of the vertex population shard 0 owns, so each
// batch coalesces more updates per touched vertex — the store's one
// rebuild per touched vertex per batch (§5.2) then amortizes harder, and
// the other N-1 shards do no update work at all.
graph::UpdateList MakeShardLocal(const graph::UpdateList& updates,
                                 int num_shards) {
  graph::UpdateList local = updates;
  for (graph::Update& u : local) {
    u.src -= u.src % num_shards;  // nearest shard-0 resident below src
  }
  return local;
}

SweepRow RunSweepCell(const bench::PreparedWorkload& workload,
                      const graph::UpdateList& updates, int num_shards,
                      util::ThreadPool& pool) {
  auto service = walk::MakeShardedWalkService(
      workload.initial_edges, workload.num_vertices, num_shards, {}, &pool,
      &pool);
  walk::ShardedStressOptions options;
  options.query_threads = 0;  // pure update-latency measurement
  options.batch_size = bench::BenchBatch();
  const auto report =
      walk::RunShardedServiceStress(*service, updates, options);
  return {num_shards, report.UpdateSecondsQuantile(0.50) * 1e3,
          report.UpdateSecondsQuantile(0.99) * 1e3,
          report.MeanUpdateSeconds() * 1e3, report.MaxUpdateSeconds() * 1e3};
}

// Walk-throughput sweep over executor sizes: the same DeepWalk corpus
// workload (paths recorded — the allocation-heavy shape) at each thread
// count, on one shared store. This is the acceptance curve of the
// work-stealing executor: throughput at >= 8 threads, with chunk buffers
// leased from pooled scratch instead of allocated per call.
std::vector<WalkRow> RunWalkThroughputSweep(
    const bench::PreparedWorkload& workload,
    const std::vector<int>& thread_counts, bool pin, bool numa,
    util::ThreadPool& build_pool) {
  const core::BingoStore store(
      graph::DynamicGraph::FromEdges(workload.num_vertices,
                                     workload.initial_edges),
      {}, &build_pool);
  std::vector<WalkRow> rows;
  std::printf("%-10s %8s %12s %12s\n", "walk", "threads", "Msteps/s",
              "steps");
  for (const int threads : thread_counts) {
    util::PoolOptions options;
    options.num_threads = static_cast<std::size_t>(threads);
    options.pin_threads = pin;
    options.numa_interleave = numa;
    util::ThreadPool pool(options);
    walk::WalkConfig cfg;
    cfg.walk_length = 40;
    cfg.record_paths = true;
    walk::RunDeepWalk(store, cfg, &pool);  // warm the scratch pool
    double best = 1e30;
    uint64_t steps = 0;
    for (int rep = 0; rep < 3; ++rep) {
      util::Timer timer;
      const walk::WalkResult result = walk::RunDeepWalk(store, cfg, &pool);
      best = std::min(best, timer.Seconds());
      steps = result.total_steps;
    }
    rows.push_back({threads, pin, steps / best / 1e6});
    std::printf("%-10s %8d %12.2f %12llu\n", "", threads,
                rows.back().msteps_per_sec,
                static_cast<unsigned long long>(steps));
  }
  bench::PrintRule(70);
  return rows;
}

// Walker-transfer superstep sweep: run the chosen app through
// RunPartitionedApp at each shard count and report the communication the
// multi-device design would pay — cross-shard walker migrations per step.
std::vector<SuperstepRow> RunSuperstepSweep(
    const bench::PreparedWorkload& workload, const std::string& app,
    const std::vector<int>& shard_counts, util::ThreadPool& pool) {
  std::vector<SuperstepRow> rows;
  std::printf("%-10s %8s %12s %12s %12s %12s\n", app.c_str(), "shards",
              "steps", "Msteps/s", "migr/step", "supersteps");
  for (const int shards : shard_counts) {
    walk::PartitionedBingoStore store(workload.initial_edges,
                                      workload.num_vertices, shards, {},
                                      &pool);
    walk::WalkConfig cfg;
    cfg.walk_length = 40;
    walk::AnyWalkApp descriptor = walk::DeepWalkApp{};
    if (app == "node2vec") {
      descriptor = walk::Node2vecApp{};
    } else if (app == "ppr") {
      descriptor = walk::PprApp{1.0 / cfg.walk_length};
    }
    util::Timer timer;
    const walk::PartitionedWalkResult result = std::visit(
        [&](const auto& a) {
          return walk::RunPartitionedApp(store, cfg, a, &pool);
        },
        descriptor);
    const double seconds = timer.Seconds();
    rows.push_back({app, shards, result.total_steps / seconds / 1e6,
                    result.total_steps == 0
                        ? 0.0
                        : static_cast<double>(result.walker_migrations) /
                              static_cast<double>(result.total_steps),
                    result.supersteps});
    std::printf("%-10s %8d %12llu %12.2f %12.3f %12llu\n", "", shards,
                static_cast<unsigned long long>(result.total_steps),
                rows.back().msteps_per_sec, rows.back().migrations_per_step,
                static_cast<unsigned long long>(result.supersteps));
  }
  bench::PrintRule(70);
  return rows;
}

void PrintRows(const char* workload_name, const std::vector<SweepRow>& rows) {
  std::printf("%-10s %8s %12s %12s %12s %12s\n", workload_name, "shards",
              "p50 (ms)", "p99 (ms)", "mean (ms)", "max (ms)");
  for (const SweepRow& row : rows) {
    std::printf("%-10s %8d %12.3f %12.3f %12.3f %12.3f\n", "", row.shards,
                row.p50_ms, row.p99_ms, row.mean_ms, row.max_ms);
  }
  bench::PrintRule(70);
}

}  // namespace
}  // namespace bingo

int main(int argc, char** argv) {
  using namespace bingo;
  bench::TuneAllocator();

  // --app deepwalk|node2vec|ppr restricts the superstep sweep to one
  // application; by default it sweeps all three. --threads/--pin/--numa
  // shape the shared executor; --json OUT.json dumps every section.
  std::vector<std::string> superstep_apps = {"deepwalk", "node2vec", "ppr"};
  std::string json_path;
  util::PoolOptions pool_options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--app") == 0 && i + 1 < argc) {
      const std::string app = argv[++i];
      if (app != "deepwalk" && app != "node2vec" && app != "ppr") {
        std::fprintf(stderr, "unknown --app: %s\n", app.c_str());
        return 2;
      }
      superstep_apps = {app};
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      pool_options.num_threads =
          static_cast<std::size_t>(std::max(0, std::atoi(argv[++i])));
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pool_options.pin_threads = true;
    } else if (std::strcmp(argv[i], "--numa") == 0) {
      pool_options.numa_interleave = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_sharded_service [--app deepwalk|node2vec|ppr]"
                   " [--threads N] [--pin] [--numa] [--json OUT.json]\n");
      return 2;
    }
  }

  // One mid-sized stand-in is enough for the scaling curve.
  const bench::Dataset dataset = bench::StandardDatasets()[1];  // GO
  const int rounds = std::max(8, bench::BenchRounds() * 3);
  const auto workload =
      bench::PrepareWorkload(dataset, graph::UpdateKind::kMixed, {}, 42,
                             bench::BenchBatch(), rounds);
  graph::UpdateList stream;
  for (const auto& batch : workload.batches) {
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  util::ThreadPool pool(pool_options);

  std::printf(
      "bench_sharded_service: %s stand-in, %u vertices, %zu initial edges, "
      "%d batches x %llu updates\n"
      "executor: %zu workers, pin %s, numa %s\n\n",
      dataset.abbr, workload.num_vertices, workload.initial_edges.size(),
      rounds, static_cast<unsigned long long>(bench::BenchBatch()),
      pool.NumThreads(), pool_options.pin_threads ? "on" : "off",
      pool_options.numa_interleave ? "interleave" : "off");

  const std::vector<int> shard_counts = {1, 2, 4, 8};

  // Single-shard-resident workload: latency must fall with shard count.
  std::vector<SweepRow> local_rows;
  for (int shards : shard_counts) {
    const auto local = MakeShardLocal(stream, shards);
    local_rows.push_back(RunSweepCell(workload, local, shards, pool));
  }
  PrintRows("local", local_rows);

  std::vector<SweepRow> uniform_rows;
  for (int shards : shard_counts) {
    uniform_rows.push_back(RunSweepCell(workload, stream, shards, pool));
  }
  PrintRows("uniform", uniform_rows);

  // Batcher overhead at the largest shard count: single-edge submits,
  // coalesced per shard, flushed per window.
  SweepRow batcher_row{};
  {
    auto service = walk::MakeShardedWalkService(
        workload.initial_edges, workload.num_vertices, shard_counts.back(), {},
        &pool, &pool);
    walk::ShardedStressOptions options;
    options.query_threads = 0;
    options.batch_size = bench::BenchBatch();
    options.use_batcher = true;
    const auto report = walk::RunShardedServiceStress(*service, stream, options);
    batcher_row = {shard_counts.back(), report.UpdateSecondsQuantile(0.50) * 1e3,
                   report.UpdateSecondsQuantile(0.99) * 1e3,
                   report.MeanUpdateSeconds() * 1e3,
                   report.MaxUpdateSeconds() * 1e3};
    std::printf(
        "batcher    %8d %12.3f %12.3f %12.3f %12.3f  (submit-to-applied)\n",
        batcher_row.shards, batcher_row.p50_ms, batcher_row.p99_ms,
        batcher_row.mean_ms, batcher_row.max_ms);
  }

  // Walk throughput vs executor size: the shared-memory engine driving the
  // whole-graph store, chunk buffers leased from pooled scratch.
  std::printf("\n");
  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  const std::vector<WalkRow> walk_rows = RunWalkThroughputSweep(
      workload, thread_counts, pool_options.pin_threads,
      pool_options.numa_interleave, pool);

  // Walker-transfer walk path: the same graph, walked by the superstep
  // driver at each shard count.
  std::vector<SuperstepRow> superstep_rows;
  for (const std::string& app : superstep_apps) {
    const auto rows = RunSuperstepSweep(workload, app, shard_counts, pool);
    superstep_rows.insert(superstep_rows.end(), rows.begin(), rows.end());
  }

  // Persistence: journal the whole stream through the WAL at the largest
  // shard count, checkpoint incrementally per batch window, then measure a
  // cold recovery (base load + WAL replay) — the crash-restart cost.
  PersistenceRow persistence;
  {
    const std::string wal_dir =
        (std::filesystem::temp_directory_path() / "bingo_bench_wal").string();
    std::filesystem::remove_all(wal_dir);
    auto service = walk::MakeShardedWalkService(
        workload.initial_edges, workload.num_vertices, shard_counts.back(), {},
        &pool, &pool);
    util::Timer base_timer;
    const walk::CheckpointResult base = service->AttachWal(wal_dir);
    const double base_seconds = base_timer.Seconds();
    uint64_t incremental_bytes = 0;
    double incremental_seconds = 0.0;
    uint64_t checkpoints = 0;
    for (const auto& batch : workload.batches) {
      service->ApplyBatch(batch, &pool);
      util::Timer ckpt_timer;
      const walk::CheckpointResult ckpt = service->Checkpoint();
      incremental_seconds += ckpt_timer.Seconds();
      incremental_bytes += ckpt.bytes_written;
      ++checkpoints;
    }
    service.reset();  // "crash"

    walk::RecoveryReport report;
    util::Timer recover_timer;
    auto recovered = walk::RecoverShardedWalkService(wal_dir, {}, 0, &pool,
                                                     &pool, {}, &report);
    const double recover_seconds = recover_timer.Seconds();
    persistence.base_mib = base.bytes_written / 1024.0 / 1024.0;
    persistence.ckpt_kib_per_op =
        incremental_bytes / 1024.0 / std::max<uint64_t>(checkpoints, 1);
    persistence.ckpt_ms_per_op =
        incremental_seconds * 1e3 / std::max<uint64_t>(checkpoints, 1);
    persistence.recovery_ms = recover_seconds * 1e3;
    persistence.recovered_ok =
        recovered != nullptr && recovered->CheckInvariants().empty();
    std::printf(
        "persistence  %8d %12s %12s %12s %12s\n", shard_counts.back(),
        "base MiB", "ckpt KiB/op", "ckpt ms/op", "recover ms");
    std::printf(
        "             %8s %12.2f %12.2f %12.3f %12.2f\n", "",
        persistence.base_mib, persistence.ckpt_kib_per_op,
        persistence.ckpt_ms_per_op, persistence.recovery_ms);
    std::printf(
        "             base write %.2fs; recovery replayed %llu wal records "
        "/ %llu updates over %llu base edges (%s)\n",
        base_seconds,
        static_cast<unsigned long long>(report.wal_records_replayed),
        static_cast<unsigned long long>(report.wal_updates_replayed),
        static_cast<unsigned long long>(report.base_edges),
        recovered != nullptr && recovered->CheckInvariants().empty()
            ? "invariants ok"
            : "RECOVERY FAILED");
    bench::PrintRule(70);
    std::filesystem::remove_all(wal_dir);
  }

  // The acceptance check in machine-readable form: mean local-workload
  // latency at the max shard count vs unsharded.
  const double speedup =
      local_rows.front().mean_ms / std::max(1e-9, local_rows.back().mean_ms);
  std::printf("\nlocal-workload mean latency: 1 shard %.3fms -> %d shards "
              "%.3fms (%.2fx)\n",
              local_rows.front().mean_ms, shard_counts.back(),
              local_rows.back().mean_ms, speedup);

  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\"bench\":\"bench_sharded_service\",\"dataset\":\""
         << dataset.abbr << "\",\"vertices\":" << workload.num_vertices
         << ",\"initial_edges\":" << workload.initial_edges.size()
         << ",\"executor\":{\"threads\":" << pool.NumThreads() << ",\"pin\":"
         << (pool_options.pin_threads ? "true" : "false") << ",\"numa\":"
         << (pool_options.numa_interleave ? "true" : "false") << "}";
    const auto sweep_section = [&json](const char* name,
                                       const std::vector<SweepRow>& rows) {
      json << ",\"" << name << "\":[";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        json << (i > 0 ? "," : "") << "{\"shards\":" << rows[i].shards
             << ",\"p50_ms\":" << rows[i].p50_ms
             << ",\"p99_ms\":" << rows[i].p99_ms
             << ",\"mean_ms\":" << rows[i].mean_ms
             << ",\"max_ms\":" << rows[i].max_ms << "}";
      }
      json << "]";
    };
    sweep_section("local_update_latency", local_rows);
    sweep_section("uniform_update_latency", uniform_rows);
    sweep_section("batcher_submit_to_applied", {batcher_row});
    json << ",\"walk_throughput\":[";
    for (std::size_t i = 0; i < walk_rows.size(); ++i) {
      json << (i > 0 ? "," : "") << "{\"threads\":" << walk_rows[i].threads
           << ",\"pin\":" << (walk_rows[i].pin ? "true" : "false")
           << ",\"msteps_per_sec\":" << walk_rows[i].msteps_per_sec << "}";
    }
    json << "],\"superstep\":[";
    for (std::size_t i = 0; i < superstep_rows.size(); ++i) {
      json << (i > 0 ? "," : "") << "{\"app\":\"" << superstep_rows[i].app
           << "\",\"shards\":" << superstep_rows[i].shards
           << ",\"msteps_per_sec\":" << superstep_rows[i].msteps_per_sec
           << ",\"migrations_per_step\":"
           << superstep_rows[i].migrations_per_step
           << ",\"supersteps\":" << superstep_rows[i].supersteps << "}";
    }
    json << "],\"persistence\":{\"base_mib\":" << persistence.base_mib
         << ",\"ckpt_kib_per_op\":" << persistence.ckpt_kib_per_op
         << ",\"ckpt_ms_per_op\":" << persistence.ckpt_ms_per_op
         << ",\"recovery_ms\":" << persistence.recovery_ms
         << ",\"recovered_ok\":" << (persistence.recovered_ok ? "true" : "false")
         << "},\"local_mean_latency_speedup\":" << speedup
         << ",\"peak_rss_bytes\":" << util::PeakRssBytes() << "}\n";
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", json_path.c_str());
      return 1;
    }
    const std::string text = json.str();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
