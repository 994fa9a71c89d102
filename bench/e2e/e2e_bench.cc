// End-to-end benchmark of the Bingo serving stack.
//
// One process runs one workload (an input regime: graph size, bias
// distribution) through the whole life of a deployment, and measures what
// a user of each stage sees:
//
//   setup     bulk load + sharded service replicas + WAL base write + CSR
//             container write + tiered-store mount        -> setup_s
//   ingest    large mixed insert/delete batches through the WAL-attached
//             service, each run of batches closed by a Checkpoint
//                                                          -> ingest_kups
//   recovery  RecoverShardedWalkService from the durability directory to
//             a service that answers a query               -> recovery_s
//   corpus    DeepWalk + node2vec corpus passes on a snapshot of the
//             recovered (updated) graph, spread over the recovered
//             services                                     -> walk_msteps
//   ooc       DeepWalk corpus passes through the tiered store over the
//             csr_mmap container under a memory budget, spread over
//             several mounts                               -> ooc_walk_msteps
//   serve     open loop: Poisson DeepWalk/PPR queries through the query
//             batcher, Poisson single-edge updates through the update
//             batcher, the query rate stepping up a fixed ladder
//             -> query_p50_ms, query_p99_ms, query_capacity_qps,
//                visible_p50_ms, visible_p99_ms
//
// plus peak_rss_mib, the process's VmHWM once the base serving step has
// drained. Every stage checks its output;
// a failed check counts as a failed operation and makes the result
// incorrect. With --trace 1 the benchmark also records spans around its
// calls into each layer and times the layers on their own (bare store and
// WAL replays, sampler loops, a fused pass), and prints per-layer metrics
// instead of the end-to-end ones.
//
// Run through bench/e2e/run.py, which builds this program, supplies the
// fixed workload parameters from bench/e2e/config.json and reduces the
// output to the benchmark's result line.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/harness.h"
#include "src/core/bingo_store.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/csr_mmap.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/batcher.h"
#include "src/walk/fused.h"
#include "src/walk/ooc.h"
#include "src/walk/ooc_store.h"
#include "src/walk/query_batcher.h"
#include "src/walk/sharded_service.h"

namespace bingo::e2e {
namespace {

namespace fs = std::filesystem;
using graph::VertexId;
using walk::ShardedWalkService;

// A workload's graph is a fixed dataset stand-in: R-MAT structure varies
// a lot between generator seeds (hub degrees, block locality), and that
// spread would swamp the run-to-run spread of every phase. Everything else
// -- which edges the update streams hold out, insert and delete, the query
// schedule and start vertices, every walk seed -- derives from --seed.
constexpr uint64_t kDatasetSeed = 12;

// Independent random streams.
enum Stream : uint64_t {
  kGraphStream = 1,
  kIngestStream,
  kServeScheduleStream,
  kServeQueryStream,
  kServeUpdateStream,
  kProbeStream,
};

// Parameters every workload shares. They are part of the benchmark's
// definition, not of a workload: changing one changes every baseline.
//
// Shards of the served graph (2 replicas each).
constexpr int kShards = 2;
// Shares of --seconds given to the time-bounded phases.
constexpr double kIngestShare = 0.25;
constexpr double kCorpusShare = 0.1;
constexpr double kOocShare = 0.15;
// Corpus passes: one walker per kCorpusWalkerDiv vertices; out-of-core
// passes, one per kOocWalkerDiv vertices under a budget of kOocBudgetFraction
// of the edge payload.
constexpr uint64_t kCorpusWalkerDiv = 4;
constexpr uint32_t kCorpusLength = 20;
constexpr uint64_t kOocWalkerDiv = 16;
constexpr uint32_t kOocLength = 20;
constexpr double kOocBudgetFraction = 0.25;
constexpr int kOocMounts = 3;
// Serve phase: a query is a mini-batch of kQueryWalkers walkers of
// kQueryLength steps (PPR stops early with kPprStop); a ladder step fails
// when its p99 exceeds kLatencyLimitMs; single-edge updates arrive at
// kUpdateRate per second throughout, whatever the query rate.
constexpr uint64_t kQueryWalkers = 512;
constexpr uint32_t kQueryLength = 20;
constexpr double kPprStop = 0.05;
constexpr double kLatencyLimitMs = 100;
constexpr double kUpdateRate = 250;

// What a workload (or the tiny smoke size) sets, from bench/e2e/config.json.
struct Params {
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;  // scratch directory for WAL, snapshots, CSR, traces

  int scale = 0;
  uint64_t edges = 0;
  graph::BiasParams bias;
  int setup_reps = 0;
  int recovery_reps = 0;

  uint64_t ingest_batch = 0;
  int ingest_batches = 0;
  uint64_t csr_block_bytes = 0;

  std::vector<double> ladder;  // offered query rates; [0] is the base step
  double warmup_seconds = 0;
  // The base step issues base_share x --seconds x ladder[0] queries, each
  // later step step_queries.
  double base_share = 0;
  double step_queries = 0;
};

std::string ParseParams(int argc, char** argv, Params& p) {
  Flags f(argc, argv);
  p.seed = f.U64("seed");
  p.seconds = f.Num("seconds");
  p.trace = f.U64("trace") != 0;
  p.dir = f.Str("dir");
  p.scale = static_cast<int>(f.U64("scale"));
  p.edges = f.U64("edges");
  const std::string bias = f.Str("bias");
  if (bias == "powerlaw-float") {
    p.bias.distribution = graph::BiasDistribution::kPowerLaw;
    p.bias.floating_point = true;
  } else if (bias != "degree" && f.Error().empty()) {
    return "--bias must be degree or powerlaw-float";
  }
  p.setup_reps = static_cast<int>(f.U64("setup-reps"));
  p.recovery_reps = static_cast<int>(f.U64("recovery-reps"));
  p.ingest_batch = f.U64("ingest-batch");
  p.ingest_batches = static_cast<int>(f.U64("ingest-batches"));
  p.csr_block_bytes = f.U64("csr-block-bytes");
  p.ladder = f.List("ladder");
  p.warmup_seconds = f.Num("warmup-seconds");
  p.base_share = f.Num("base-share");
  p.step_queries = f.Num("step-queries");
  if (!f.Error().empty()) {
    return f.Error();
  }
  if (!f.Unused().empty()) {
    return f.Unused();
  }
  if (p.seconds <= 0 || p.scale < 4 || p.edges == 0 || p.setup_reps < 1 ||
      p.recovery_reps < 1 || p.ingest_batch == 0 || p.ingest_batches < 1 ||
      p.ladder.size() < 2) {
    return "parameter out of range";
  }
  for (std::size_t i = 1; i < p.ladder.size(); ++i) {
    if (!(p.ladder[i] > p.ladder[i - 1])) {
      return "--ladder must be strictly increasing";
    }
  }
  return {};
}

// Failed-operation accounting shared by every phase.
class Validity {
 public:
  void Attempt(uint64_t n) { attempted_ += n; }
  // Counts one attempted operation and, if !ok, one failure.
  bool Check(bool ok, const std::string& what) {
    attempted_ += 1;
    if (!ok) {
      Fail(what);
    }
    return ok;
  }
  void Fail(const std::string& what) {
    failed_ += 1;
    util::MutexLock lock(mutex_);
    if (problems_.size() < 20) {
      problems_.push_back(what);
    }
  }
  uint64_t Attempted() const { return attempted_.load(); }
  uint64_t Failed() const { return failed_.load(); }
  std::vector<std::string> Problems() const {
    util::MutexLock lock(mutex_);
    return problems_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable util::Mutex mutex_;
  std::vector<std::string> problems_ BINGO_GUARDED_BY(mutex_);
};

// ----------------------------------------------------------------- inputs --

struct Inputs {
  VertexId n = 0;
  graph::WeightedEdgeList initial;        // graph at setup
  std::vector<graph::UpdateList> forward;  // §6.1 mixed stream, in batches
  std::vector<graph::UpdateList> inverse;  // undoes `forward`
  uint64_t stream_updates = 0;             // updates in one direction
};

// The inverse of a mixed stream: reversed, inserts become deletes and
// deletes re-insert the edge they removed (with its bias), so applying
// forward then inverse returns the graph to the same edge multiset and
// every delete finds a surviving copy.
std::vector<graph::UpdateList> InvertStream(
    const std::vector<graph::UpdateList>& forward) {
  std::vector<graph::UpdateList> inverse;
  for (auto b = forward.rbegin(); b != forward.rend(); ++b) {
    graph::UpdateList batch;
    batch.reserve(b->size());
    for (auto u = b->rbegin(); u != b->rend(); ++u) {
      graph::Update inv = *u;
      inv.kind = u->kind == graph::Update::Kind::kInsert
                     ? graph::Update::Kind::kDelete
                     : graph::Update::Kind::kInsert;
      inv.timestamp = 0;
      batch.push_back(inv);
    }
    inverse.push_back(std::move(batch));
  }
  return inverse;
}

Inputs MakeInputs(const Params& p) {
  Inputs in;
  util::Rng rng = util::Rng::ForStream(kDatasetSeed, kGraphStream);
  auto pairs = graph::GenerateRmat(p.scale, p.edges, rng);
  graph::Canonicalize(pairs);
  in.n = VertexId{1} << p.scale;
  const graph::Csr csr = graph::Csr::FromPairs(in.n, pairs);
  pairs = {};
  const auto biases = graph::GenerateBiases(csr, p.bias, rng);
  const auto all = graph::ToWeightedEdges(csr, biases);

  util::Rng ingest_rng = util::Rng::ForStream(p.seed, kIngestStream);
  graph::UpdateWorkloadParams wp;
  wp.kind = graph::UpdateKind::kMixed;
  wp.batch_size = p.ingest_batch;
  wp.num_batches = p.ingest_batches;
  auto workload = graph::BuildUpdateWorkload(all, wp, ingest_rng);
  in.initial = std::move(workload.initial_edges);
  in.forward = graph::SplitIntoBatches(workload.updates, p.ingest_batch);
  in.inverse = InvertStream(in.forward);
  in.stream_updates = workload.updates.size();
  return in;
}

// ------------------------------------------------------------------ setup --

struct System {
  std::unique_ptr<ShardedWalkService> service;
  std::unique_ptr<walk::TieredStore> tiered;
  std::string wal_dir;
  std::string csr_path;
};

walk::WalPersistenceOptions WalOptions() {
  walk::WalPersistenceOptions options;
  // Checkpoints stay incremental (a WAL sync): ingest measures journaling,
  // not the O(E) base rewrite a compaction would add at an arbitrary round.
  options.compact_fraction = 1e18;
  return options;
}

// The tiered store over the CSR container, budgeted to kOocBudgetFraction
// of the edge payload.
std::unique_ptr<walk::TieredStore> MountTiered(const std::string& csr_path,
                                               const Inputs& in,
                                               util::ThreadPool& pool,
                                               std::string* error) {
  walk::TieredStoreOptions options;
  options.memory_budget_bytes = static_cast<std::size_t>(
      kOocBudgetFraction *
      static_cast<double>(in.initial.size() * sizeof(graph::Edge)));
  return walk::TieredStore::Open(csr_path, {}, options, &pool, error);
}

System SetUp(const Params& p, const Inputs& in, util::ThreadPool& pool,
             Tracer& tracer, int64_t parent, Validity& validity) {
  System sys;
  sys.wal_dir = p.dir + "/wal";
  sys.csr_path = p.dir + "/graph.csr";
  std::error_code ec;
  fs::remove_all(sys.wal_dir, ec);
  {
    ScopedSpan span(tracer, "walk.service.build", parent);
    sys.service = walk::MakeShardedWalkService(in.initial, in.n, kShards, {},
                                               &pool);
  }
  {
    ScopedSpan span(tracer, "walk.service.attach_wal", parent);
    validity.Check(sys.service->AttachWal(sys.wal_dir, WalOptions()).ok,
                   "setup: AttachWal failed");
  }
  std::string error;
  {
    ScopedSpan span(tracer, "graph.csr_write", parent);
    validity.Check(graph::WriteCsrFile(sys.csr_path, in.n, in.initial,
                                       p.csr_block_bytes, &error),
                   "setup: WriteCsrFile: " + error);
  }
  {
    ScopedSpan span(tracer, "walk.ooc.mount", parent);
    sys.tiered = MountTiered(sys.csr_path, in, pool, &error);
    validity.Check(sys.tiered != nullptr, "setup: TieredStore::Open: " + error);
  }
  return sys;
}

// The walk whose checksum pins live vs recovered state.
walk::WalkConfig ChecksumConfig(uint64_t seed) {
  walk::WalkConfig cfg;
  cfg.num_walkers = 8192;
  cfg.walk_length = 20;
  cfg.seed = seed;
  cfg.record_paths = true;
  return cfg;
}

// ----------------------------------------------------------------- ingest --

struct IngestOutcome {
  std::vector<double> unit_kups;         // one per run of batches + checkpoint
  Rate kups;                             // over the measured units
  std::vector<double> apply_ms;          // per ApplyBatch call
  std::vector<double> checkpoint_s;      // per closing Checkpoint
  uint64_t live_checksum = 0;            // at the recovery copy point
  std::string recovery_dir;
};

IngestOutcome Ingest(const Params& p, const Inputs& in, System& sys,
                     util::ThreadPool& pool, Tracer& tracer, int64_t parent,
                     Validity& validity) {
  IngestOutcome out;
  const double budget = kIngestShare * p.seconds;
  const Clock::time_point start = Clock::now();
  ShardedWalkService& service = *sys.service;
  for (int unit = 0;; ++unit) {
    const auto& batches = unit % 2 == 0 ? in.forward : in.inverse;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const Clock::time_point a = Clock::now();
      const int64_t id = tracer.Begin("walk.service.apply_batch", parent,
                                      static_cast<uint64_t>(unit) << 32 | b);
      const core::BatchResult r = service.ApplyBatch(batches[b]);
      tracer.End(id);
      out.apply_ms.push_back(1e3 * SecondsBetween(a, Clock::now()));
      validity.Check(r.skipped_deletes == 0 &&
                         r.inserted + r.deleted == batches[b].size(),
                     "ingest: batch applied partially");
    }
    const Clock::time_point c = Clock::now();
    walk::CheckpointResult cp;
    {
      ScopedSpan span(tracer, "walk.service.checkpoint", parent);
      cp = service.Checkpoint();
    }
    const Clock::time_point t1 = Clock::now();
    out.checkpoint_s.push_back(SecondsBetween(c, t1));
    validity.Check(cp.ok && !cp.compacted, "ingest: checkpoint failed");
    // The first half of the phase warms the adjacency pools and the WAL
    // file; only units that start after it count.
    if (SecondsBetween(start, t0) >= budget / 2) {
      const double kupdates = static_cast<double>(in.stream_updates) / 1e3;
      out.unit_kups.push_back(kupdates / SecondsBetween(t0, t1));
      out.kups.Add(kupdates, SecondsBetween(t0, t1));
    }
    if (unit == 0) {
      // Recovery input: the durability directory as of this checkpoint
      // (initial graph + one forward stream), copied so its size does not
      // depend on how many rounds fit into the ingest budget.
      ScopedSpan span(tracer, "harness.copy_wal_dir", parent);
      out.recovery_dir = p.dir + "/recovery";
      std::error_code ec;
      fs::remove_all(out.recovery_dir, ec);
      fs::copy(sys.wal_dir, out.recovery_dir, fs::copy_options::recursive, ec);
      validity.Check(!ec, "ingest: copying the durability directory failed");
      out.live_checksum =
          WalkChecksum(service.DeepWalk(ChecksumConfig(p.seed), &pool));
    }
    if (out.unit_kups.size() >= 3 && SecondsBetween(start, Clock::now()) >= budget) {
      break;
    }
  }
  const std::string invariants = service.CheckInvariants();
  validity.Check(invariants.empty(), "ingest: invariants: " + invariants);
  const walk::ShardedServiceStats stats = service.Stats();
  validity.Check(stats.wal_updates == stats.updates_applied,
                 "ingest: updates applied without being journaled");
  return out;
}

// --------------------------------------------------------------- recovery --

struct RecoveryOutcome {
  std::unique_ptr<ShardedWalkService> service;
  std::vector<double> seconds;
};

// Recovers recovery-reps times, each into a fresh service (the previous
// one freed first); `after_each` runs on every recovered service once it
// has been timed. The last service is kept.
RecoveryOutcome Recover(
    const Params& p, const Inputs& in, const IngestOutcome& ingest,
    util::ThreadPool& pool, Tracer& tracer, int64_t parent, Validity& validity,
    const std::function<void(const ShardedWalkService&)>& after_each) {
  RecoveryOutcome out;
  walk::WalkConfig probe;
  probe.num_walkers = 64;
  probe.walk_length = 10;
  probe.seed = p.seed;
  for (int rep = 0; rep < p.recovery_reps; ++rep) {
    out.service.reset();
    const Clock::time_point t0 = Clock::now();
    walk::RecoveryReport report;
    {
      ScopedSpan span(tracer, "walk.service.recover", parent);
      out.service = walk::RecoverShardedWalkService(
          ingest.recovery_dir, {}, in.n, &pool, nullptr, WalOptions(), &report);
    }
    bool answered = false;
    if (out.service != nullptr) {
      ScopedSpan span(tracer, "walk.engine.first_query", parent);
      answered = out.service->DeepWalk(probe, &pool).total_steps > 0;
    }
    out.seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (!validity.Check(out.service != nullptr && report.ok && answered,
                        "recovery failed")) {
      return out;
    }
    after_each(*out.service);
  }
  validity.Check(WalkChecksum(out.service->DeepWalk(ChecksumConfig(p.seed),
                                                    &pool)) ==
                     ingest.live_checksum,
                 "recovery: recovered walks differ from the live service");
  return out;
}

// ----------------------------------------------------------------- corpus --

struct CorpusOutcome {
  std::vector<double> pair_msteps;  // (DeepWalk + node2vec) steps / time
  Rate msteps;                      // over the measured pairs
  std::vector<double> deepwalk_msteps;
  std::vector<double> node2vec_msteps;
  uint64_t fresh_allocs = 0;  // over the measured passes
  int measured_passes = 0;
  bool have_checksums = false;
  uint64_t dw_want = 0;
  uint64_t n2v_want = 0;
};

// Corpus passes on one service for `budget` seconds: a warm-up pair, then
// measured pairs, appended to `out`. Every pass of a run, on whichever
// recovered service, must reproduce the first pass's checksums.
void Corpus(const Params& p, const ShardedWalkService& service, double budget,
            util::ThreadPool& pool, Tracer& tracer, int64_t parent,
            Validity& validity, CorpusOutcome& out) {
  const auto snap = service.Acquire();
  walk::WalkConfig cfg;
  cfg.num_walkers = std::max<uint64_t>(1, snap.NumVertices() / kCorpusWalkerDiv);
  cfg.walk_length = kCorpusLength;
  cfg.seed = p.seed;
  cfg.record_paths = true;
  uint64_t fresh_before = 0;
  const Clock::time_point start = Clock::now();
  for (int pair = 0;; ++pair) {
    if (pair == 1) {
      fresh_before = pool.ScratchMemory().Stats().FreshAllocations();
    }
    const Clock::time_point t0 = Clock::now();
    walk::WalkResult dw;
    {
      ScopedSpan span(tracer, "walk.engine.deepwalk", parent);
      dw = walk::RunDeepWalk(snap, cfg, &pool);
    }
    const Clock::time_point t1 = Clock::now();
    walk::WalkResult n2v;
    {
      ScopedSpan span(tracer, "walk.engine.node2vec", parent);
      n2v = walk::RunNode2vec(snap, cfg, {}, &pool);
    }
    const Clock::time_point t2 = Clock::now();
    const uint64_t dw_hash = WalkChecksum(dw);
    const uint64_t n2v_hash = WalkChecksum(n2v);
    if (!out.have_checksums) {
      out.have_checksums = true;
      out.dw_want = dw_hash;
      out.n2v_want = n2v_hash;
    }
    validity.Check(dw_hash == out.dw_want && n2v_hash == out.n2v_want,
                   "corpus: a pass changed its checksum for the same seed");
    if (pair == 0) {
      validity.Check(dw.path_offsets.size() == cfg.num_walkers + 1 &&
                         dw.total_steps > 0,
                     "corpus: DeepWalk returned the wrong walker count");
      continue;  // warm-up pass
    }
    out.measured_passes += 2;
    out.deepwalk_msteps.push_back(static_cast<double>(dw.total_steps) / 1e6 /
                                  SecondsBetween(t0, t1));
    out.node2vec_msteps.push_back(static_cast<double>(n2v.total_steps) /
                                  1e6 / SecondsBetween(t1, t2));
    const double msteps =
        static_cast<double>(dw.total_steps + n2v.total_steps) / 1e6;
    out.pair_msteps.push_back(msteps / SecondsBetween(t0, t2));
    out.msteps.Add(msteps, SecondsBetween(t0, t2));
    if (pair >= 3 && SecondsBetween(start, Clock::now()) >= budget) {
      break;
    }
  }
  validity.Check(snap.Consistent(), "corpus: snapshot changed under the walk");
  out.fresh_allocs +=
      pool.ScratchMemory().Stats().FreshAllocations() - fresh_before;
}

// -------------------------------------------------------------------- ooc --

struct OocOutcome {
  std::vector<double> msteps;  // per measured pass
  Rate rate;                   // Msteps/s over the measured passes
  double parks_per_step = 0;
  std::vector<double> loads;
  std::vector<double> hits;
  std::vector<double> evictions;
  double peak_resident_mib = 0;
  uint64_t parks = 0;            // over the measured passes
  uint64_t steps = 0;
  std::vector<uint64_t> hashes;  // every pass, warm-ups included
};

// One mount's share of the out-of-core passes: a warm-up pass, then
// measured passes for kOocShare / kOocMounts of --seconds.
bool OocPasses(const Params& p, const walk::TieredStore& store,
               const walk::WalkConfig& cfg, Tracer& tracer, int64_t parent,
               Validity& validity, OocOutcome& out) {
  const double budget = kOocShare * p.seconds / kOocMounts;
  const Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    const core::BlockCacheStats before = store.CacheStats();
    const Clock::time_point t0 = Clock::now();
    walk::OocWalkResult r;
    {
      ScopedSpan span(tracer, "walk.ooc.deepwalk", parent);
      r = walk::RunOocDeepWalk(store, cfg);
    }
    const double secs = SecondsBetween(t0, Clock::now());
    const core::BlockCacheStats after = store.CacheStats();
    if (!validity.Check(r.error.empty(), "ooc: walk aborted: " + r.error)) {
      return false;
    }
    out.hashes.push_back(WalkChecksum(r));
    out.peak_resident_mib =
        std::max(out.peak_resident_mib,
                 static_cast<double>(r.peak_resident_bytes) / (1 << 20));
    if (pass == 0) {
      continue;  // warm-up pass
    }
    out.parks += r.walker_parks;
    out.steps += r.total_steps;
    out.msteps.push_back(static_cast<double>(r.total_steps) / 1e6 / secs);
    out.rate.Add(static_cast<double>(r.total_steps) / 1e6, secs);
    out.loads.push_back(static_cast<double>(after.loads - before.loads));
    out.hits.push_back(static_cast<double>(after.hits - before.hits));
    out.evictions.push_back(
        static_cast<double>(after.evictions - before.evictions));
    if (pass >= 3 && SecondsBetween(start, Clock::now()) >= budget) {
      return true;
    }
  }
}

// Out-of-core passes on kOocMounts mounts in turn, the set-up's first: each
// mount maps its block arena afresh, so one run samples several layouts, as
// the corpus phase does over recoveries.
OocOutcome OocCorpus(const Params& p, const Inputs& in, const System& sys,
                     util::ThreadPool& pool, Tracer& tracer, int64_t parent,
                     Validity& validity) {
  OocOutcome out;
  walk::WalkConfig cfg;
  cfg.num_walkers =
      std::max<uint64_t>(1, sys.tiered->NumVertices() / kOocWalkerDiv);
  cfg.walk_length = kOocLength;
  cfg.seed = p.seed;
  cfg.record_paths = true;
  for (int mount = 0; mount < kOocMounts; ++mount) {
    std::unique_ptr<walk::TieredStore> fresh;
    if (mount > 0) {
      ScopedSpan span(tracer, "walk.ooc.mount", parent);
      std::string error;
      fresh = MountTiered(sys.csr_path, in, pool, &error);
      if (!validity.Check(fresh != nullptr, "ooc: remount: " + error)) {
        return out;
      }
    }
    if (!OocPasses(p, mount > 0 ? *fresh : *sys.tiered, cfg, tracer, parent,
                   validity, out)) {
      return out;
    }
  }
  out.parks_per_step = static_cast<double>(out.parks) /
                       static_cast<double>(std::max<uint64_t>(1, out.steps));
  // Oracle: the shared-memory engine over an unconstrained mount of the
  // same container must walk bit-identically.
  {
    ScopedSpan span(tracer, "harness.ooc_oracle", parent);
    std::string error;
    const auto reference =
        walk::TieredStore::Open(sys.csr_path, {}, {}, &pool, &error);
    if (validity.Check(reference != nullptr, "ooc: reference mount: " + error)) {
      const uint64_t want =
          WalkChecksum(walk::RunDeepWalk(*reference, cfg, &pool));
      for (const uint64_t h : out.hashes) {
        validity.Check(h == want,
                       "ooc: walks differ from the in-memory engine");
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------ serve --

struct StepResult {
  double rate = 0;
  uint64_t queries = 0;            // issued, on a Poisson schedule at `rate`
  std::vector<double> latency_ms;  // per query, from scheduled arrival
  uint64_t backlog_end = 0;        // queries unfinished when the step ends
  double p99_ms = 0;
  bool passed = false;
  int tries = 1;
};

struct ServeOutcome {
  std::vector<StepResult> steps;
  std::vector<double> visible_ms;  // per update, base step
  double capacity_qps = 0;
  bool capacity_bounded = false;  // a step failed (else a lower bound)
  // VmHWM when the base step has drained: the footprint of serving at the
  // base rate, before overload steps pile up queued queries and results.
  double peak_rss_mib_at_base = 0;
  std::vector<double> gen_lag_ms;
  std::vector<double> submit_us;
  std::vector<double> acquire_us;
  double base_coalesce = 0;
  double base_time_dispatch_share = 0;
  walk::QueryBatcherStats query_stats;
  walk::BatcherStats update_stats;
  double wall_seconds = 0;
  uint64_t max_update_queue = 0;
  uint64_t drain_spins = 0;
  uint64_t final_edges = 0;
  graph::UpdateList submitted;
};

// A query in flight: scheduled arrival, the future, and what to check.
struct Inflight {
  Clock::time_point due;
  std::future<walk::WalkResult> future;
  walk::WalkApp app = walk::WalkApp::kDeepWalk;
  std::size_t step = 0;
  uint64_t id = 0;
};

// Collects query futures in arrival order on its own thread. The batcher
// dispatches FIFO, so waiting in order adds at most one dispatch of slack
// to a query's measured completion.
class Collector {
 public:
  Collector(const Params& p, const ShardedWalkService& service,
            Tracer& tracer, int64_t parent, Validity& validity,
            std::vector<StepResult>& steps)
      : p_(p),
        service_(service),
        tracer_(tracer),
        parent_(parent),
        validity_(validity),
        steps_(steps),
        thread_([this] { Loop(); }) {}

  ~Collector() { Stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Inflight q) {
    {
      util::MutexLock lock(mutex_);
      queue_.push_back(std::move(q));
      pushed_ += 1;
    }
    cv_.NotifyAll();
  }
  uint64_t Outstanding() {
    util::MutexLock lock(mutex_);
    return pushed_ - done_;
  }
  void WaitIdle() {
    util::MutexLock lock(mutex_);
    while (done_ != pushed_) {
      idle_cv_.Wait(mutex_);
    }
  }
  void Stop() {
    {
      util::MutexLock lock(mutex_);
      if (stopping_) {
        return;
      }
      stopping_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }
  std::vector<double> AcquireMicros() {
    util::MutexLock lock(mutex_);
    return acquire_us_;
  }

 private:
  void Loop() {
    util::Rng rng = util::Rng::ForStream(p_.seed, kProbeStream);
    uint64_t count = 0;
    for (;;) {
      Inflight q;
      {
        util::MutexLock lock(mutex_);
        while (queue_.empty() && !stopping_) {
          cv_.Wait(mutex_);
        }
        if (queue_.empty()) {
          return;
        }
        q = std::move(queue_.front());
        queue_.pop_front();
      }
      Finish(q);
      if (++count % 16 == 0) {
        ProbeSnapshot(rng);
      }
      {
        util::MutexLock lock(mutex_);
        done_ += 1;
      }
      idle_cv_.NotifyAll();
    }
  }

  void Finish(Inflight& q) {
    bool ok = false;
    try {
      const walk::WalkResult r = q.future.get();
      const Clock::time_point ready = Clock::now();
      if (q.app == walk::WalkApp::kDeepWalk) {
        ok = r.path_offsets.size() == kQueryWalkers + 1;
      } else {
        uint64_t visits = 0;
        for (const uint32_t c : r.visit_counts) {
          visits += c;
        }
        ok = visits == kQueryWalkers + r.total_steps;
      }
      tracer_.Record("walk.query_batcher.query", q.due, ready, parent_, q.id);
      util::MutexLock lock(mutex_);
      steps_[q.step].latency_ms.push_back(1e3 * SecondsBetween(q.due, ready));
    } catch (const std::exception& e) {
      validity_.Check(false, std::string("serve: query threw: ") + e.what());
      return;
    }
    validity_.Check(ok, "serve: query returned the wrong walker count");
  }

  // Pins a composite snapshot briefly, as a reader would, and checks the
  // seqlock validation after reading through it.
  void ProbeSnapshot(util::Rng& rng) {
    const int64_t span = tracer_.Begin("walk.service.acquire", parent_);
    const Clock::time_point t0 = Clock::now();
    const auto snap = service_.Acquire();
    const double us = 1e6 * SecondsBetween(t0, Clock::now());
    VertexId v = static_cast<VertexId>(rng.NextBounded(snap.NumVertices()));
    for (int i = 0; i < 8 && v != graph::kInvalidVertex; ++i) {
      v = snap.SampleNeighbor(v, rng);
    }
    validity_.Check(snap.Consistent(), "serve: inconsistent snapshot");
    tracer_.End(span);
    util::MutexLock lock(mutex_);
    acquire_us_.push_back(us);
  }

  const Params& p_;
  const ShardedWalkService& service_;
  Tracer& tracer_;
  const int64_t parent_;
  Validity& validity_;
  std::vector<StepResult>& steps_;  // latency_ms guarded by mutex_

  util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar idle_cv_;
  std::deque<Inflight> queue_ BINGO_GUARDED_BY(mutex_);
  uint64_t pushed_ BINGO_GUARDED_BY(mutex_) = 0;
  uint64_t done_ BINGO_GUARDED_BY(mutex_) = 0;
  bool stopping_ BINGO_GUARDED_BY(mutex_) = false;
  std::vector<double> acquire_us_ BINGO_GUARDED_BY(mutex_);
  std::thread thread_;
};

// Matches applied update batches back to their submissions: the batcher
// drains each shard FIFO, so a shard's k-th applied update is its k-th
// submitted one.
class VisibilityLog {
 public:
  VisibilityLog(int shards, Tracer& tracer, int64_t parent)
      : tracer_(tracer), parent_(parent), shards_(shards) {
    for (auto& s : shards_) {
      s = std::make_unique<Shard>();
    }
  }

  void Submitted(int shard, Clock::time_point due, bool measured, uint64_t id) {
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    util::MutexLock lock(s.mutex);
    s.pending.push_back(Pending{due, measured, id});
  }

  void Applied(int shard, std::size_t count) {
    const Clock::time_point now = Clock::now();
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    util::MutexLock lock(s.mutex);
    for (std::size_t i = 0; i < count && !s.pending.empty(); ++i) {
      const Pending q = s.pending.front();
      s.pending.pop_front();
      if (q.measured) {
        s.visible_ms.push_back(1e3 * SecondsBetween(q.due, now));
      }
      tracer_.Record("walk.batcher.update", q.due, now, parent_, q.id);
    }
  }

  std::vector<double> VisibleMillis() {
    std::vector<double> all;
    for (auto& s : shards_) {
      util::MutexLock lock(s->mutex);
      all.insert(all.end(), s->visible_ms.begin(), s->visible_ms.end());
    }
    return all;
  }

 private:
  struct Pending {
    Clock::time_point due;
    bool measured;
    uint64_t id;
  };
  struct Shard {
    util::Mutex mutex;
    std::deque<Pending> pending BINGO_GUARDED_BY(mutex);
    std::vector<double> visible_ms BINGO_GUARDED_BY(mutex);
  };
  Tracer& tracer_;
  const int64_t parent_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// p99 on the latency limit, interpolated between the last ladder step that
// met it and the first that did not.
void ComputeCapacity(ServeOutcome& out) {
  const StepResult* last_pass = nullptr;
  for (const StepResult& s : out.steps) {
    if (!s.passed) {
      out.capacity_bounded = true;
      const double lo_rate = last_pass != nullptr ? last_pass->rate : 0.0;
      const double lo_p99 = last_pass != nullptr ? last_pass->p99_ms : 0.0;
      const double hi_p99 = std::max(s.p99_ms, kLatencyLimitMs);
      const double frac =
          hi_p99 > lo_p99 ? (kLatencyLimitMs - lo_p99) / (hi_p99 - lo_p99)
                          : 1.0;
      out.capacity_qps = lo_rate + std::clamp(frac, 0.0, 1.0) * (s.rate - lo_rate);
      return;
    }
    last_pass = &s;
  }
  out.capacity_qps = out.steps.empty() ? 0.0 : out.steps.back().rate;
}


// The serve phase's update stream. Deletes remove distinct edges of the
// served graph (a partial Fisher-Yates over its edge list); inserts add
// fresh edges from R-MAT sources. Every update therefore applies in any
// batching, so the final edge count is a pure function of the stream.
class UpdateSource {
 public:
  UpdateSource(const graph::WeightedEdgeList& edges, VertexId n, uint64_t seed)
      : edges_(edges),
        n_(n),
        rng_(util::Rng::ForStream(seed, kServeUpdateStream)),
        order_(edges.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<uint32_t>(i);
    }
  }

  graph::Update Next() {
    graph::Update u;
    if (count_++ % 2 == 0 || deleted_ == order_.size()) {
      u.kind = graph::Update::Kind::kInsert;
      u.src = edges_[rng_.NextBounded(edges_.size())].src;
      u.dst = static_cast<VertexId>(rng_.NextBounded(n_));
      u.bias = static_cast<double>(1 + rng_.NextBounded(255));
      return u;
    }
    const uint64_t j = deleted_ + rng_.NextBounded(order_.size() - deleted_);
    std::swap(order_[deleted_], order_[j]);
    const graph::WeightedEdge& e = edges_[order_[deleted_++]];
    u.kind = graph::Update::Kind::kDelete;
    u.src = e.src;
    u.dst = e.dst;
    return u;
  }

 private:
  const graph::WeightedEdgeList& edges_;
  const VertexId n_;
  util::Rng rng_;
  std::vector<uint32_t> order_;
  uint64_t deleted_ = 0;
  uint64_t count_ = 0;
};

ServeOutcome Serve(const Params& p, ShardedWalkService& service,
                   const graph::WeightedEdgeList& live_edges, Tracer& tracer,
                   int64_t parent, Validity& validity) {
  ServeOutcome out;
  const VertexId n = service.Acquire().NumVertices();
  // Step plan: a discarded warm-up at the base rate, the base step, then
  // the ladder, each step above the base issuing step-queries queries, so
  // every step's p99 has as many samples beyond it as the base step's.
  const auto count = [](double x) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::lround(x)));
  };
  out.steps.resize(p.ladder.size() + 1);  // [0] = warm-up
  out.steps[0].rate = p.ladder[0];
  out.steps[0].queries = count(p.warmup_seconds * p.ladder[0]);
  for (std::size_t i = 0; i < p.ladder.size(); ++i) {
    out.steps[i + 1].rate = p.ladder[i];
    out.steps[i + 1].queries =
        count(i == 0 ? p.base_share * p.seconds * p.ladder[0] : p.step_queries);
  }

  util::Rng sched = util::Rng::ForStream(p.seed, kServeScheduleStream);
  util::Rng qrng = util::Rng::ForStream(p.seed, kServeQueryStream);
  const auto exp_gap = [&sched](double rate) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
        -std::log(1.0 - sched.NextUnit()) / rate));
  };
  UpdateSource source(live_edges, n, p.seed);

  VisibilityLog visibility(service.NumShards(), tracer, parent);
  walk::BatcherOptions bopts;
  bopts.writer_pool.num_threads = 1;
  bopts.on_batch_applied = [&visibility](int shard,
                                         const graph::UpdateList& batch) {
    visibility.Applied(shard, batch.size());
  };
  const uint64_t spins_before = service.Stats().drain_spins;
  const Clock::time_point serve_start = Clock::now();
  {
    walk::UpdateBatcher updates(service, bopts);
    walk::ShardedQueryBatcher queries(service, {});
    Collector collector(p, service, tracer, parent, validity, out.steps);

    Clock::time_point next_u = Clock::now() + exp_gap(kUpdateRate);
    Clock::time_point next_sample = Clock::now();
    uint64_t query_id = 0;
    bool measure_updates = false;
    // Issues the next update on its own schedule, whatever the query rate.
    const auto submit_update = [&] {
      SleepUntil(next_u);
      out.gen_lag_ms.push_back(1e3 * SecondsBetween(next_u, Clock::now()));
      const graph::Update u = source.Next();
      visibility.Submitted(service.ShardOf(u.src), next_u, measure_updates,
                           out.submitted.size());
      updates.Submit(u);
      out.submitted.push_back(u);
      next_u += exp_gap(kUpdateRate);
    };

    walk::QueryBatcherStats base_before{};
    bool retried = false;
    for (std::size_t step = 0; step < out.steps.size(); ++step) {
      StepResult& s = out.steps[step];
      s.latency_ms.clear();
      measure_updates = step == 1;
      if (step == 1) {
        base_before = queries.Stats();
      }
      Clock::time_point next_q = Clock::now() + exp_gap(s.rate);
      for (uint64_t issued = 0; issued < s.queries; ++issued) {
        while (next_u <= next_q) {
          submit_update();
        }
        SleepUntil(next_q);
        const Clock::time_point now = Clock::now();
        out.gen_lag_ms.push_back(1e3 * SecondsBetween(next_q, now));
        walk::WalkQuery q;
        q.app = qrng.NextBool(0.5) ? walk::WalkApp::kDeepWalk
                                   : walk::WalkApp::kPpr;
        q.cfg.num_walkers = kQueryWalkers;
        q.cfg.walk_length = kQueryLength;
        q.cfg.seed = qrng.Next();
        q.cfg.start_vertex =
            live_edges[qrng.NextBounded(live_edges.size())].src;
        q.cfg.record_paths = q.app == walk::WalkApp::kDeepWalk;
        q.stop_probability = kPprStop;
        const walk::WalkApp app = q.app;
        auto future = queries.Submit(std::move(q));
        out.submit_us.push_back(1e6 * SecondsBetween(now, Clock::now()));
        collector.Push(Inflight{next_q, std::move(future), app, step, query_id++});
        if (now >= next_sample) {
          out.max_update_queue = std::max<uint64_t>(
              out.max_update_queue, updates.Stats().queue_depth);
          next_sample = now + std::chrono::milliseconds(5);
        }
        next_q += exp_gap(s.rate);
      }
      // The step ends where its next arrival would have been.
      const Clock::time_point step_end = next_q;
      while (next_u <= step_end) {
        submit_update();
      }
      SleepUntil(step_end);
      s.backlog_end = collector.Outstanding();
      // Let the step's own queries finish, updates still arriving on their
      // schedule, before judging it; the next step starts from no backlog.
      measure_updates = false;
      while (collector.Outstanding() > 0) {
        if (next_u <= Clock::now() + std::chrono::milliseconds(1)) {
          submit_update();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      collector.WaitIdle();  // also publishes the step's latencies to us
      if (step == 1) {
        out.peak_rss_mib_at_base = PeakRssMib();
        const walk::QueryBatcherStats after = queries.Stats();
        const double dispatches = std::max<double>(
            1.0, static_cast<double>(after.dispatches - base_before.dispatches));
        out.base_coalesce =
            static_cast<double>(after.completed - base_before.completed) /
            dispatches;
        out.base_time_dispatch_share =
            static_cast<double>(after.time_dispatches -
                                base_before.time_dispatches) /
            dispatches;
      }
      if (step == 0) {
        continue;  // warm-up
      }
      s.p99_ms = Quantile(s.latency_ms, 0.99);
      // A step also fails when more queries are unfinished at its end than
      // the limit lets be in flight: its backlog is growing.
      const double allowed_backlog = s.rate * kLatencyLimitMs / 1e3 + 16.0;
      s.passed = s.p99_ms <= kLatencyLimitMs &&
                 static_cast<double>(s.backlog_end) <= allowed_backlog;
      if (step > 1 && !s.passed) {
        if (!retried) {
          // One retry, so a transient stall of a shared host does not end
          // the ladder below the knee; overload fails both tries.
          retried = true;
          s.tries += 1;
          --step;
          continue;
        }
        out.steps.resize(step + 1);  // past the knee: stop climbing
        break;
      }
      retried = false;
    }
    updates.Flush();
    queries.Flush();
    collector.Stop();
    out.acquire_us = collector.AcquireMicros();
    out.query_stats = queries.Stats();
    out.update_stats = updates.Stats();
  }
  out.wall_seconds = SecondsBetween(serve_start, Clock::now());
  out.drain_spins = service.Stats().drain_spins - spins_before;
  out.visible_ms = visibility.VisibleMillis();
  out.steps.erase(out.steps.begin());  // drop the warm-up
  ComputeCapacity(out);
  out.final_edges = service.Query([&service](const ShardedWalkService::Snapshot& snap) {
    uint64_t total = 0;
    for (int s = 0; s < service.NumShards(); ++s) {
      total += snap.shard_store(s).NumEdges();
    }
    return total;
  });

  const walk::BatcherStats& b = out.update_stats;
  validity.Attempt(out.submitted.size());
  validity.Check(b.dropped_updates == 0 && b.drain_errors == 0 &&
                     b.pool_post_errors == 0 &&
                     b.flushed_updates == out.submitted.size(),
                 "serve: the update batcher dropped updates");
  validity.Check(!out.visible_ms.empty() && !out.steps.empty() &&
                     out.steps[0].latency_ms.size() >= 10,
                 "serve: too few measured queries or updates");
  return out;
}

// ------------------------------------------------------------ layer probes --
//
// Traced runs time single layers on their own, from outside: the layer's
// own entry point on a bare object, fed the workload's inputs.

struct LayerProbes {
  double bulk_load_s = 0;
  double build_s = 0;
  double bytes_per_edge = 0;
  std::vector<double> store_apply_ms;
  std::vector<double> wal_append_ms;
  double wal_sync_ms = 0;
  double wal_bytes_per_update = 0;
  double draw_ns[3] = {0, 0, 0};
  double batch_draw_ns[3] = {0, 0, 0};
  double fused_pass_ms = 0;
};

volatile uint64_t g_sink = 0;

constexpr const char* kBands[3] = {"deg_le8", "deg_9_128", "deg_gt128"};

int DegreeBand(std::size_t degree) {
  return degree <= 8 ? 0 : degree <= 128 ? 1 : 2;
}

// Bare BingoStore: bulk load, build, the ingest stream's forward batches
// (leaving the store at the corpus graph), then sampler loops by degree.
void ProbeStore(const Params& p, const Inputs& in, util::ThreadPool& pool,
                Tracer& tracer, int64_t parent, LayerProbes& out) {
  Clock::time_point t0 = Clock::now();
  graph::DynamicGraph g = [&] {
    ScopedSpan span(tracer, "graph.bulk_load", parent);
    return graph::DynamicGraph::FromEdges(in.n, in.initial);
  }();
  out.bulk_load_s = SecondsBetween(t0, Clock::now());
  t0 = Clock::now();
  std::unique_ptr<core::BingoStore> store;
  {
    ScopedSpan span(tracer, "core.store.build", parent);
    store = std::make_unique<core::BingoStore>(std::move(g), core::BingoConfig{},
                                               &pool);
  }
  out.build_s = SecondsBetween(t0, Clock::now());
  out.bytes_per_edge = static_cast<double>(store->MemoryStats().TotalBytes()) /
                       static_cast<double>(std::max<uint64_t>(1, store->NumEdges()));
  for (const graph::UpdateList& batch : in.forward) {
    t0 = Clock::now();
    ScopedSpan span(tracer, "core.store.apply_batch", parent);
    store->ApplyBatch(batch);
    out.store_apply_ms.push_back(1e3 * SecondsBetween(t0, Clock::now()));
  }

  // Sampler loops: up to 2048 random vertices per degree band.
  util::Rng rng = util::Rng::ForStream(p.seed, kProbeStream);
  std::vector<VertexId> band_vertices[3];
  for (int tries = 0; tries < 1 << 20; ++tries) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(store->NumVertices()));
    const std::size_t degree = store->NeighborsOf(v).size();
    if (degree > 0 && band_vertices[DegreeBand(degree)].size() < 2048) {
      band_vertices[DegreeBand(degree)].push_back(v);
    }
  }
  constexpr int kDraws = 64;
  std::vector<util::Rng> rngs;
  for (int i = 0; i < kDraws; ++i) {
    rngs.push_back(util::Rng::ForStream(p.seed, 1000 + i));
  }
  std::vector<util::Rng*> rng_ptrs;
  for (auto& r : rngs) {
    rng_ptrs.push_back(&r);
  }
  std::vector<VertexId> drawn(kDraws);
  uint64_t sink = 0;
  for (int b = 0; b < 3; ++b) {
    const auto& vs = band_vertices[b];
    if (vs.empty()) {
      continue;
    }
    const double draws = static_cast<double>(vs.size()) * kDraws;
    {
      ScopedSpan span(tracer, "core.sampler.draw", parent);
      t0 = Clock::now();
      for (const VertexId v : vs) {
        for (int i = 0; i < kDraws; ++i) {
          sink += store->SampleNeighbor(v, rng);
        }
      }
      out.draw_ns[b] = 1e9 * SecondsBetween(t0, Clock::now()) / draws;
    }
    {
      ScopedSpan span(tracer, "core.sampler.batch_draw", parent);
      t0 = Clock::now();
      for (const VertexId v : vs) {
        store->SampleNeighborBatch(v, rng_ptrs.data(), kDraws, drawn.data());
        sink += drawn[0];
      }
      out.batch_draw_ns[b] = 1e9 * SecondsBetween(t0, Clock::now()) / draws;
    }
  }
  g_sink = sink;  // keeps the draws observable
}

// Bare WAL writer: the forward stream's batches appended, then one sync.
void ProbeWal(const Params& p, const Inputs& in, Tracer& tracer, int64_t parent,
              LayerProbes& out) {
  const std::string path = p.dir + "/probe_wal.log";
  auto wal = core::WalWriter::Create(path, 0, core::WalOptions{});
  if (wal == nullptr) {
    return;
  }
  for (const graph::UpdateList& batch : in.forward) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, "core.wal.append", parent);
    wal->Append(batch);
    out.wal_append_ms.push_back(1e3 * SecondsBetween(t0, Clock::now()));
  }
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core.wal.sync", parent);
    wal->Sync();
  }
  out.wal_sync_ms = 1e3 * SecondsBetween(t0, Clock::now());
  out.wal_bytes_per_update = static_cast<double>(wal->BytesWritten()) /
                             static_cast<double>(std::max<uint64_t>(1, in.stream_updates));
  wal.reset();
  std::error_code ec;
  fs::remove(path, ec);
}

// Fused passes of the base step's mean group size, alternating DeepWalk
// and PPR groups, serial as the batcher runs them; the median of pair
// means.
void ProbeFused(const Params& p, const ShardedWalkService& service,
                const graph::WeightedEdgeList& edges, double group_size,
                Tracer& tracer, int64_t parent,
                LayerProbes& out) {
  const std::size_t g = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(group_size)));
  util::Rng rng = util::Rng::ForStream(p.seed, kProbeStream + 1);
  const auto snap = service.Acquire();
  std::vector<double> pair_ms;
  for (int rep = 0; rep < 64; ++rep) {
    double ms[2];
    for (int app = 0; app < 2; ++app) {
      std::vector<walk::WalkConfig> cfgs(g);
      for (auto& cfg : cfgs) {
        cfg.num_walkers = kQueryWalkers;
        cfg.walk_length = kQueryLength;
        cfg.seed = rng.Next();
        cfg.start_vertex = edges[rng.NextBounded(edges.size())].src;
        cfg.record_paths = app == 0;
      }
      std::vector<walk::WalkResult> results(g);
      ScopedSpan span(tracer, "walk.fused.pass", parent);
      const Clock::time_point t0 = Clock::now();
      if (app == 0) {
        walk::RunDeepWalkFused(snap, std::span<const walk::WalkConfig>(cfgs),
                               std::span<walk::WalkResult>(results));
      } else {
        walk::RunPprFused(snap, std::span<const walk::WalkConfig>(cfgs),
                          std::span<walk::WalkResult>(results), kPprStop);
      }
      ms[app] = 1e3 * SecondsBetween(t0, Clock::now());
    }
    pair_ms.push_back((ms[0] + ms[1]) / 2);
  }
  out.fused_pass_ms = Median(pair_ms);
}

// Concatenated canonical edge lists of every shard: the served graph.
graph::WeightedEdgeList ServiceEdges(const ShardedWalkService& service) {
  graph::WeightedEdgeList all;
  service.Query([&](const ShardedWalkService::Snapshot& snap) {
    for (int s = 0; s < service.NumShards(); ++s) {
      const auto part = core::CanonicalEdgeList(snap.shard_store(s).Graph());
      all.insert(all.end(), part.begin(), part.end());
    }
    return 0;
  });
  return all;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

int Run(const Params& p) {
  Tracer tracer(p.trace);
  Validity validity;
  MetricSet e2e;
  MetricSet layers;
  std::string rss_by_phase;  // VmHWM after each phase, for the detail line
  const auto mark_rss = [&rss_by_phase](const char* phase) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.1f", rss_by_phase.empty() ? "" : ",",
                  phase, PeakRssMib());
    rss_by_phase += buf;
  };
  std::error_code ec;
  fs::create_directories(p.dir, ec);

  // One worker per hardware thread, as bingo_cli runs: store builds,
  // recovery and corpus passes use it. Ingest routes shards serially, and
  // out-of-core passes and serving run without it.
  util::ThreadPool pool;

  Inputs in;
  {
    ScopedSpan span(tracer, "harness.inputs");
    in = MakeInputs(p);
  }
  mark_rss("inputs");

  // ---- setup: repeated; the median is setup_s, the last system is kept.
  System sys;
  std::vector<double> setup_s;
  {
    ScopedSpan phase(tracer, "harness.setup");
    for (int rep = 0; rep < p.setup_reps; ++rep) {
      sys = System{};
      const Clock::time_point t0 = Clock::now();
      sys = SetUp(p, in, pool, tracer, phase.id(), validity);
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
    }
  }
  if (validity.Failed() > 0) {
    std::fprintf(stderr, "e2e_bench: setup failed: %s\n",
                 validity.Problems().front().c_str());
    return 1;
  }
  e2e.Set("setup_s", Median(setup_s), "s", setup_s.size());
  mark_rss("setup");

  LayerProbes probes;
  if (p.trace) {
    ScopedSpan phase(tracer, "harness.layer_probes");
    ProbeStore(p, in, pool, tracer, phase.id(), probes);
    ProbeWal(p, in, tracer, phase.id(), probes);
  }

  // ---- ingest, then recovery from the copied durability directory.
  IngestOutcome ingest;
  {
    ScopedSpan phase(tracer, "harness.ingest");
    ingest = Ingest(p, in, sys, pool, tracer, phase.id(), validity);
  }
  sys.service.reset();
  mark_rss("ingest");
  e2e.Set("ingest_kups", ingest.kups.PerSecond(), "kupdates/s",
          ingest.unit_kups.size());

  // ---- recovery; each recovered service then walks its share of the
  // corpus passes. Every recovery lays the store out afresh in memory, so
  // one run samples several layouts rather than one.
  RecoveryOutcome recovered;
  CorpusOutcome corpus;
  {
    ScopedSpan phase(tracer, "harness.recovery");
    recovered = Recover(
        p, in, ingest, pool, tracer, phase.id(), validity,
        [&](const ShardedWalkService& s) {
          ScopedSpan span(tracer, "harness.corpus", phase.id());
          Corpus(p, s, kCorpusShare * p.seconds / p.recovery_reps, pool,
                 tracer, span.id(), validity, corpus);
        });
  }
  if (recovered.service == nullptr) {
    std::fprintf(stderr, "e2e_bench: recovery failed\n");
    return 1;
  }
  e2e.Set("recovery_s", Median(recovered.seconds), "s", recovered.seconds.size());
  ShardedWalkService& service = *recovered.service;
  mark_rss("recovery");

  e2e.Set("walk_msteps", corpus.msteps.PerSecond(), "Msteps/s",
          corpus.pair_msteps.size());
  OocOutcome ooc;
  {
    ScopedSpan phase(tracer, "harness.ooc");
    ooc = OocCorpus(p, in, sys, pool, tracer, phase.id(), validity);
  }
  sys.tiered.reset();
  mark_rss("ooc");
  e2e.Set("ooc_walk_msteps", ooc.rate.PerSecond(), "Msteps/s", ooc.msteps.size());

  // ---- open-loop serving on the recovered service.
  const graph::WeightedEdgeList served = ServiceEdges(service);
  ServeOutcome serve;
  {
    ScopedSpan phase(tracer, "harness.serve");
    serve = Serve(p, service, served, tracer, phase.id(), validity);
  }
  const StepResult& base = serve.steps.front();
  const auto base_tail = TailQuantile(base.latency_ms);
  mark_rss("serve");
  e2e.Set("query_p50_ms", Median(base.latency_ms), "ms", base.latency_ms.size());
  e2e.Set("query_p99_ms", base_tail.second, "ms", base.latency_ms.size());
  e2e.Set("query_capacity_qps", serve.capacity_qps, "qps", serve.steps.size());
  const auto vis_tail = TailQuantile(serve.visible_ms);
  e2e.Set("visible_p50_ms", Median(serve.visible_ms), "ms", serve.visible_ms.size());
  e2e.Set("visible_p99_ms", vis_tail.second, "ms", serve.visible_ms.size());

  if (p.trace) {
    ScopedSpan phase(tracer, "harness.layer_probes");
    ProbeFused(p, service, served, serve.base_coalesce, tracer,
               phase.id(), probes);
  }

  // ---- final edge count vs a bare-store replay of the submitted stream.
  recovered.service.reset();
  {
    ScopedSpan phase(tracer, "harness.checks");
    core::BingoStore bare(graph::DynamicGraph::FromEdges(in.n, served),
                          core::BingoConfig{}, &pool);
    const core::BatchResult r = bare.ApplyBatch(serve.submitted, &pool);
    validity.Check(bare.NumEdges() == serve.final_edges &&
                       r.inserted == serve.update_stats.applied.inserted &&
                       r.deleted == serve.update_stats.applied.deleted &&
                       r.skipped_deletes == 0,
                   "serve: final edge count differs from a bare-store replay");
    const std::string invariants = bare.CheckInvariants();
    validity.Check(invariants.empty(), "serve replay: invariants: " + invariants);
  }
  e2e.Set("peak_rss_mib", serve.peak_rss_mib_at_base, "MiB", 1);

  const double failed_ratio = static_cast<double>(validity.Failed()) /
                              static_cast<double>(std::max<uint64_t>(1, validity.Attempted()));

  // ---- per-layer metrics (traced runs only).
  if (p.trace) {
    const auto q = [](const std::vector<double>& v, double x) { return Quantile(v, x); };
    layers.Set("graph.bulk_load_s", probes.bulk_load_s, "s", 1);
    layers.Set("core.store.build_s", probes.build_s, "s", 1);
    layers.Set("core.store.bytes_per_edge", probes.bytes_per_edge, "B", 1);
    layers.Set("core.store.apply_batch_ms.p50", q(probes.store_apply_ms, 0.5), "ms",
               probes.store_apply_ms.size());
    layers.Set("core.store.apply_batch_ms.p99", q(probes.store_apply_ms, 0.99), "ms",
               probes.store_apply_ms.size());
    for (int b = 0; b < 3; ++b) {
      layers.Set(std::string("core.sampler.draw_ns.") + kBands[b], probes.draw_ns[b],
                 "ns", 1);
    }
    for (int b = 0; b < 3; ++b) {
      layers.Set(std::string("core.sampler.batch_draw_ns.") + kBands[b],
                 probes.batch_draw_ns[b], "ns", 1);
    }
    layers.Set("core.wal.append_ms.p50", q(probes.wal_append_ms, 0.5), "ms",
               probes.wal_append_ms.size());
    layers.Set("core.wal.sync_ms", probes.wal_sync_ms, "ms", 1);
    layers.Set("core.wal.bytes_per_update", probes.wal_bytes_per_update, "B", 1);
    layers.Set("walk.service.apply_batch_ms.p50", q(ingest.apply_ms, 0.5), "ms",
               ingest.apply_ms.size());
    layers.Set("walk.service.apply_batch_ms.p99", q(ingest.apply_ms, 0.99), "ms",
               ingest.apply_ms.size());
    layers.Set("walk.service.checkpoint_s", Median(ingest.checkpoint_s), "s",
               ingest.checkpoint_s.size());
    layers.Set("walk.service.acquire_us.p99", q(serve.acquire_us, 0.99), "us",
               serve.acquire_us.size());
    layers.Set("walk.service.drain_spins", static_cast<double>(serve.drain_spins),
               "count", 1);
    layers.Set("walk.engine.deepwalk_msteps", Median(corpus.deepwalk_msteps),
               "Msteps/s", corpus.deepwalk_msteps.size());
    layers.Set("walk.engine.node2vec_msteps", Median(corpus.node2vec_msteps),
               "Msteps/s", corpus.node2vec_msteps.size());
    layers.Set("walk.fused.pass_ms", probes.fused_pass_ms, "ms", 64);
    layers.Set("walk.query_batcher.coalesce_ratio", serve.base_coalesce, "ratio", 1);
    layers.Set("walk.query_batcher.time_dispatch_share",
               serve.base_time_dispatch_share, "ratio", 1);
    layers.Set("walk.query_batcher.max_batch",
               static_cast<double>(serve.query_stats.max_batch), "count", 1);
    layers.Set("walk.query_batcher.submit_us.p99", q(serve.submit_us, 0.99), "us",
               serve.submit_us.size());
    layers.Set("walk.batcher.coalesce_ratio", serve.update_stats.CoalesceRatio(),
               "ratio", serve.update_stats.batches);
    layers.Set("walk.batcher.busy_share",
               serve.update_stats.flush_seconds_total / serve.wall_seconds, "ratio", 1);
    layers.Set("walk.batcher.flush_ms_max", 1e3 * serve.update_stats.flush_seconds_max,
               "ms", serve.update_stats.batches);
    layers.Set("walk.batcher.queue_depth_max",
               static_cast<double>(serve.max_update_queue), "count", 1);
    layers.Set("walk.ooc.parks_per_step", ooc.parks_per_step, "ratio", ooc.msteps.size());
    layers.Set("core.block_cache.loads", Median(ooc.loads), "count", ooc.loads.size());
    layers.Set("core.block_cache.hits", Median(ooc.hits), "count", ooc.hits.size());
    layers.Set("core.block_cache.evictions", Median(ooc.evictions), "count",
               ooc.evictions.size());
    layers.Set("core.block_cache.peak_resident_mib", ooc.peak_resident_mib, "MiB", 1);
    layers.Set("util.memory_pool.fresh_allocs_per_pass",
               static_cast<double>(corpus.fresh_allocs) /
                   std::max(1, corpus.measured_passes),
               "count", corpus.measured_passes);
    layers.Set("util.thread_pool.post_errors",
               static_cast<double>(pool.PostErrors() +
                                   serve.update_stats.pool_post_errors),
               "count", 1);
    layers.Set("harness.gen_lag_p99_ms", q(serve.gen_lag_ms, 0.99), "ms",
               serve.gen_lag_ms.size());
    const auto self = tracer.LayerSelfSeconds();
    for (const char* layer :
         {"harness", "graph", "core.store", "core.wal", "core.sampler",
          "walk.service", "walk.engine", "walk.ooc", "walk.fused",
          "walk.query_batcher", "walk.batcher"}) {
      const auto it = self.find(layer);
      layers.Set(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second,
                 "s", 1);
    }
    layers.Set("trace.uncovered_share", tracer.UncoveredShare(), "ratio", 1);
    const std::string trace_path = p.dir + "/spans.jsonl";
    validity.Check(tracer.Write(trace_path), "trace: writing spans failed");
    std::printf("trace %s\n", JsonString(trace_path).c_str());
  }

  // ---- report.
  std::string problems = "[";
  for (const std::string& s : validity.Problems()) {
    problems += (problems.size() > 1 ? "," : "") + JsonString(s);
  }
  problems += "]";
  std::string ladder = "[";
  for (const StepResult& s : serve.steps) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rate\":%.1f,\"queries\":%zu,\"p50_ms\":%.4f,"
                  "\"p99_ms\":%.4f,\"backlog_end\":%llu,\"tries\":%d,"
                  "\"passed\":%s}",
                  ladder.size() > 1 ? "," : "", s.rate, s.latency_ms.size(),
                  Median(s.latency_ms), s.p99_ms,
                  static_cast<unsigned long long>(s.backlog_end), s.tries,
                  s.passed ? "true" : "false");
    ladder += buf;
  }
  ladder += "]";
  std::printf(
      "detail {\"ops_failed_ratio\":%.6g,\"query_tail\":\"%s\","
      "\"visible_tail\":\"%s\",\"capacity_bounded\":%s,"
      "\"gen_lag_p99_ms\":%.4f,\"vertices\":%u,\"initial_edges\":%zu,"
      "\"ingest_stream_updates\":%llu,\"serve_updates\":%zu,"
      "\"peak_rss_mib_after\":{%s},\"setup_s\":%s,\"ingest_kups\":%s,"
      "\"recovery_s\":%s,\"walk_msteps\":%s,\"ooc_walk_msteps\":%s,"
      "\"ladder\":%s,\"problems\":%s}\n",
      failed_ratio, base_tail.first, vis_tail.first,
      serve.capacity_bounded ? "true" : "false", Quantile(serve.gen_lag_ms, 0.99),
      in.n, in.initial.size(),
      static_cast<unsigned long long>(in.stream_updates), serve.submitted.size(),
      rss_by_phase.c_str(), JsonList(setup_s).c_str(),
      JsonList(ingest.unit_kups).c_str(), JsonList(recovered.seconds).c_str(),
      JsonList(corpus.pair_msteps).c_str(), JsonList(ooc.msteps).c_str(),
      ladder.c_str(), problems.c_str());
  std::printf("result {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"end_to_end\":%s,\"per_layer\":%s}\n",
              validity.Failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(validity.Attempted()),
              static_cast<unsigned long long>(validity.Failed()),
              e2e.Json().c_str(), layers.Json().c_str());
  return validity.Failed() == 0 ? 0 : 3;
}

}  // namespace
}  // namespace bingo::e2e

int main(int argc, char** argv) {
  bingo::e2e::Params params;
  const std::string error = bingo::e2e::ParseParams(argc, argv, params);
  if (!error.empty()) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  std::printf("provenance {\"simd\":\"%s\",\"hardware_threads\":%u}\n",
              bingo::util::ToString(bingo::util::ActiveSimdLevel()),
              std::thread::hardware_concurrency());
  return bingo::e2e::Run(params);
}
