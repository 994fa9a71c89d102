// bingo_cli — command-line driver for the Bingo engine.
//
// Subcommands:
//   generate    --scale N --edges M [--bias degree|uniform|gauss|powerlaw]
//               [--undirected] --out FILE[.bin]
//       Generate an R-MAT weighted edge list over 2^N vertices (N in
//       [1, 31]) and save it.
//
//   walk        --graph FILE
//               --app deepwalk|node2vec|ppr|simple|metapath|temporal
//               [--store bingo|alias|its|reservoir|partitioned] [--shards S]
//               [--driver engine|superstep] [--length L] [--walkers W]
//               [--p P] [--q Q] [--seed S] [--paths OUT.txt]
//               [--decay D] [--horizon H] [--epoch E]
//               [--types T] [--metapath T0,T1,...]
//               [--threads N] [--pin] [--numa]
//       Load a graph, build the chosen sampler store, run the application
//       through the store-generic engine, report steps/second (and
//       optionally dump the paths). Same seed + same store semantics =>
//       identical paths (e.g. bingo vs partitioned at any shard count).
//       --driver superstep (requires --store partitioned) runs the same
//       stepper on the walker-transfer superstep driver instead of the
//       shared-memory engine and additionally reports supersteps and
//       cross-shard walker migrations per step — same per-walker RNG
//       streams, so the paths stay identical to the engine's.
//       --app temporal runs first-order walks over the temporally decayed
//       bias pipeline: --decay D is the per-epoch factor in (0, 1),
//       --horizon caps the decayed age (0 = unbounded), and --epoch E
//       advances the store's logical clock to E after the build (as an
//       ordinary AdvanceTime batch), so edge biases are pre-scaled by
//       D^age before walking. --app metapath runs typed walks: vertex
//       types are v mod --types, and each step must land on the next type
//       of the cyclic --metapath pattern (default 0,1 = two-mode
//       bipartite). Both run on every store and driver bit-identically.
//
//   stats       --graph FILE
//       Load a graph and print structural + store statistics (degrees,
//       group-kind census, memory breakdown).
//
//   build-csr   --graph FILE --out FILE.csr [--block-bytes N[K|M|G]]
//       Write the graph as the immutable block-structured CSR container
//       (graph/csr_mmap.h) the out-of-core walk tier mmaps from. Edges are
//       stably sorted vertex-major first, so any edge-list file works.
//
//   walk --store ooc --csr FILE.csr [--memory-budget N[K|M|G]]
//               [--spill-dir DIR --spill-threshold W]
//       Out-of-core walk: mounts a TieredStore over the CSR container and
//       runs the block-scheduled driver (walk/ooc.h) under the resident-
//       byte budget (0 = unconstrained). Walkers park in per-block queues
//       (spillable to DIR past W walkers) and the block with the most
//       parked walkers is loaded next. Reports block passes/loads/
//       evictions, peak resident bytes, and process peak RSS; walk output
//       is bit-identical across budgets and thread counts.
//
//   checkpoint  --graph FILE --dir DIR [--shards S] [--fsync]
//               [--compact-fraction F]
//       Build a sharded service over the graph and write its durable base
//       (per-shard base snapshots + WAL segments + manifest) into DIR.
//
//   restore     --dir DIR [--out FILE.bin]
//       Recover a sharded service from DIR (base + WAL replay, torn tails
//       dropped), report recovery time and WAL replay counts, verify
//       invariants, and optionally dump the recovered edge list.
//
// Examples:
//   bingo_cli generate --scale 16 --edges 1000000 --out g.bin
//   bingo_cli walk --graph g.bin --app deepwalk --length 80
//   bingo_cli walk --graph g.bin --app ppr --store partitioned --shards 4
//   bingo_cli stats --graph g.bin

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/bingo.h"

namespace {

using namespace bingo;

struct Args {
  std::string command;
  std::string graph_path;
  std::string out_path;
  std::string app = "deepwalk";
  std::string bias = "degree";
  std::string store = "bingo";
  std::string driver = "engine";
  int scale = 14;
  int shards = 4;
  int threads = 4;
  bool threads_set = false;  // `walk` defaults to hardware concurrency
  uint64_t edges = 200000;
  uint32_t length = 80;
  uint64_t walkers = 0;
  double p = 0.5;
  double q = 2.0;
  uint64_t seed = 42;
  bool undirected = false;
  bool pin = false;    // pin executor workers to planned CPUs
  bool numa = false;   // interleave executor workers across NUMA nodes
  std::string paths_out;
  std::string dir;       // checkpoint/restore durability directory
  bool fsync = false;
  double compact_fraction = 0.5;
  // Bias-pipeline knobs (walk --app temporal/metapath).
  double decay = 1.0;            // per-epoch temporal decay (1.0 = off)
  uint32_t horizon = 0;          // decay age cap in epochs (0 = unbounded)
  uint32_t epoch = 0;            // walk: advance the logical clock to E
  uint32_t types = 2;            // metapath: vertex type count (v mod T)
  std::string metapath = "0,1";  // metapath: cyclic type pattern
  // Out-of-core knobs (build-csr, walk --store ooc).
  std::string csr_path;            // walk --store ooc: the CSR container
  uint64_t memory_budget = 0;      // block-cache budget in bytes (0 = all)
  uint64_t block_bytes = graph::kDefaultCsrBlockBytes;  // build-csr target
  std::string spill_dir;           // walk --store ooc: park-queue spill dir
  uint64_t spill_threshold = 0;    // walkers per queue before spilling (0 = off)
};

// "64M" / "16384" / "1G" -> bytes. Accepts K/M/G suffixes (binary units).
bool ParseByteSize(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text) {
    return false;
  }
  uint64_t scale = 1;
  if (*end == 'K' || *end == 'k') {
    scale = 1ull << 10;
    ++end;
  } else if (*end == 'M' || *end == 'm') {
    scale = 1ull << 20;
    ++end;
  } else if (*end == 'G' || *end == 'g') {
    scale = 1ull << 30;
    ++end;
  }
  if (*end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(value) * scale;
  return true;
}

// The pipeline-bearing store config the walk flags describe.
core::BingoConfig PipelineConfig(const Args& args) {
  core::BingoConfig config;
  config.pipeline.decay = args.decay;
  config.pipeline.horizon = args.horizon;
  return config;
}

// "0,1,2" -> pattern {0,1,2}; false on malformed text or out-of-range types.
bool ParseMetapathPattern(const Args& args, walk::MetapathParams& params) {
  params.num_types = args.types;
  params.pattern.clear();
  const std::string& s = args.metapath;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) {
      end = s.size();
    }
    if (end == pos) {
      return false;  // empty component
    }
    uint32_t type = 0;
    for (std::size_t i = pos; i < end; ++i) {
      if (s[i] < '0' || s[i] > '9') {
        return false;
      }
      type = type * 10 + static_cast<uint32_t>(s[i] - '0');
    }
    params.pattern.push_back(type);
    pos = end + (end < s.size() ? 1 : 0);
  }
  return params.Valid();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: bingo_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate    --scale N --edges M --out FILE[.bin]   (N in [1, 31])\n"
      "              [--bias degree|uniform|gauss|powerlaw] [--undirected]\n"
      "  walk        --graph FILE\n"
      "              [--app deepwalk|node2vec|ppr|simple|metapath|temporal]\n"
      "              [--store bingo|alias|its|reservoir|partitioned]\n"
      "              [--shards S] [--driver engine|superstep]\n"
      "              [--length L] [--walkers W] [--p P] [--q Q]\n"
      "              [--seed S] [--paths OUT.txt]\n"
      "              [--decay D] [--horizon H] [--epoch E]\n"
      "              [--types T] [--metapath T0,T1,...]\n"
      "              [--threads N] [--pin] [--numa]\n"
      "              (--driver superstep runs the walker-transfer driver on\n"
      "               the partitioned store and reports migrations/step;\n"
      "               --pin/--numa shape the work-stealing executor;\n"
      "               --app temporal decays edge biases by D^age with the\n"
      "               clock advanced to --epoch; --app metapath constrains\n"
      "               each step to the next type of the cyclic pattern,\n"
      "               types being vertex id mod --types)\n"
      "  stats       --graph FILE\n"
      "  build-csr   --graph FILE --out FILE.csr [--block-bytes N[K|M|G]]\n"
      "              (write the immutable mmap-backed CSR container the\n"
      "               out-of-core tier walks from)\n"
      "  walk        --store ooc --csr FILE.csr\n"
      "              [--memory-budget N[K|M|G]] [--spill-dir DIR\n"
      "               --spill-threshold W] [--app deepwalk|node2vec|ppr|\n"
      "              simple|metapath] [walk flags as above]\n"
      "              (out-of-core block-scheduled walk over the CSR tier:\n"
      "               resident blocks are capped at the byte budget, walkers\n"
      "               park per block and the block with most parked walkers\n"
      "               loads next; 0 = unconstrained. Output is bit-identical\n"
      "               at every budget/thread count)\n"
      "  checkpoint  --graph FILE --dir DIR [--shards S] [--fsync]\n"
      "              [--compact-fraction F]\n"
      "  restore     --dir DIR [--out FILE.bin]\n"
      "\n"
      "see the header comment of tools/bingo_cli.cpp for details\n");
}

bool Parse(int argc, char** argv, Args& args) {
  if (argc < 2) {
    return false;
  }
  args.command = argv[1];
  bool missing_value = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    // Every flag except the booleans (--undirected, --pin, --numa,
    // --fsync) takes a value; the next token must exist and not itself be
    // a flag.
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        missing_value = true;
        return "";
      }
      return argv[++i];
    };
    if (flag == "--graph") {
      args.graph_path = next();
    } else if (flag == "--out") {
      args.out_path = next();
    } else if (flag == "--app") {
      args.app = next();
    } else if (flag == "--bias") {
      args.bias = next();
    } else if (flag == "--store") {
      args.store = next();
    } else if (flag == "--driver") {
      args.driver = next();
    } else if (flag == "--scale") {
      args.scale = std::atoi(next());
    } else if (flag == "--shards") {
      args.shards = std::atoi(next());
    } else if (flag == "--threads") {
      args.threads = std::atoi(next());
      args.threads_set = true;
    } else if (flag == "--edges") {
      args.edges = std::atoll(next());
    } else if (flag == "--length") {
      const int value = std::atoi(next());
      if (!missing_value && value <= 0) {  // a missing value errors below
        std::fprintf(stderr, "--length must be a positive integer\n");
        return false;
      }
      args.length = static_cast<uint32_t>(value);
    } else if (flag == "--walkers") {
      const long long value = std::atoll(next());
      if (!missing_value && value < 0) {
        std::fprintf(stderr, "--walkers must be >= 0 (0 = one per vertex)\n");
        return false;
      }
      args.walkers = static_cast<uint64_t>(value);
    } else if (flag == "--p" || flag == "--q") {
      const double value = std::atof(next());
      if (!missing_value && !(value > 0.0)) {  // p, q scale 1/p, 1/q
        std::fprintf(stderr, "%s must be > 0\n", flag.c_str());
        return false;
      }
      (flag == "--p" ? args.p : args.q) = value;
    } else if (flag == "--seed") {
      args.seed = std::atoll(next());
    } else if (flag == "--undirected") {
      args.undirected = true;
    } else if (flag == "--pin") {
      args.pin = true;
    } else if (flag == "--numa") {
      args.numa = true;
    } else if (flag == "--fsync") {
      args.fsync = true;
    } else if (flag == "--paths") {
      args.paths_out = next();
    } else if (flag == "--dir") {
      args.dir = next();
    } else if (flag == "--decay") {
      const double value = std::atof(next());
      if (!missing_value && !(value > 0.0 && value <= 1.0)) {
        std::fprintf(stderr, "--decay must be in (0, 1]\n");
        return false;
      }
      args.decay = value;
    } else if (flag == "--horizon") {
      args.horizon = static_cast<uint32_t>(std::atoll(next()));
    } else if (flag == "--epoch") {
      args.epoch = static_cast<uint32_t>(std::atoll(next()));
    } else if (flag == "--types") {
      const int value = std::atoi(next());
      if (!missing_value && value <= 0) {
        std::fprintf(stderr, "--types must be a positive integer\n");
        return false;
      }
      args.types = static_cast<uint32_t>(value);
    } else if (flag == "--metapath") {
      args.metapath = next();
    } else if (flag == "--csr") {
      args.csr_path = next();
    } else if (flag == "--spill-dir") {
      args.spill_dir = next();
    } else if (flag == "--spill-threshold") {
      const long long value = std::atoll(next());
      if (!missing_value && value < 0) {
        std::fprintf(stderr, "--spill-threshold must be >= 0 (0 = off)\n");
        return false;
      }
      args.spill_threshold = static_cast<uint64_t>(value);
    } else if (flag == "--memory-budget") {
      const char* text = next();
      if (!missing_value && !ParseByteSize(text, &args.memory_budget)) {
        std::fprintf(stderr,
                     "--memory-budget must be bytes with optional K/M/G "
                     "suffix (got %s)\n",
                     text);
        return false;
      }
    } else if (flag == "--block-bytes") {
      const char* text = next();
      if (!missing_value &&
          (!ParseByteSize(text, &args.block_bytes) || args.block_bytes == 0)) {
        std::fprintf(stderr,
                     "--block-bytes must be positive bytes with optional "
                     "K/M/G suffix (got %s)\n",
                     text);
        return false;
      }
    } else if (flag == "--compact-fraction") {
      const double value = std::atof(next());
      if (!missing_value && (value < 0.0 || !(value < 1e18))) {
        std::fprintf(stderr, "--compact-fraction must be >= 0\n");
        return false;
      }
      args.compact_fraction = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
    if (missing_value) {
      std::fprintf(stderr, "missing value for flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool ValidatePositive(const char* name, long long value) {
  if (value <= 0) {
    std::fprintf(stderr, "%s must be positive (got %lld)\n", name, value);
    return false;
  }
  return true;
}

bool IsBinaryPath(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".bin";
}

int Generate(const Args& args) {
  if (args.out_path.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  // 2^scale vertices must fit the 32-bit VertexId.
  if (args.scale < 1 || args.scale > 31) {
    std::fprintf(stderr, "--scale must be in [1, 31] (got %d)\n", args.scale);
    return 2;
  }
  if (!ValidatePositive("--edges", static_cast<long long>(args.edges))) {
    return 2;
  }
  util::Rng rng(args.seed);
  auto pairs = graph::GenerateRmat(args.scale, args.edges, rng);
  if (args.undirected) {
    graph::MakeUndirected(pairs);
  }
  graph::Canonicalize(pairs);
  const graph::VertexId n = graph::VertexId{1} << args.scale;
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams params;
  if (args.bias == "uniform") {
    params.distribution = graph::BiasDistribution::kUniform;
  } else if (args.bias == "gauss") {
    params.distribution = graph::BiasDistribution::kGauss;
  } else if (args.bias == "powerlaw") {
    params.distribution = graph::BiasDistribution::kPowerLaw;
  } else if (args.bias == "degree") {
    params.distribution = graph::BiasDistribution::kDegree;
  } else {
    std::fprintf(stderr, "unknown bias distribution: %s\n", args.bias.c_str());
    return 2;
  }
  util::Rng bias_rng(args.seed + 1);
  const auto biases = graph::GenerateBiases(csr, params, bias_rng);
  const auto edges = graph::ToWeightedEdges(csr, biases);
  const bool ok = IsBinaryPath(args.out_path)
                      ? graph::SaveWeightedEdgesBinary(args.out_path, edges)
                      : graph::SaveWeightedEdgesText(args.out_path, edges);
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n", args.out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu edges over %u vertices to %s\n", edges.size(), n,
              args.out_path.c_str());
  return 0;
}

bool LoadGraphArg(const Args& args, graph::WeightedEdgeList& edges) {
  if (args.graph_path.empty()) {
    std::fprintf(stderr, "%s: --graph is required\n", args.command.c_str());
    return false;
  }
  const bool ok = IsBinaryPath(args.graph_path)
                      ? graph::LoadWeightedEdgesBinary(args.graph_path, edges)
                      : graph::LoadWeightedEdgesText(args.graph_path, edges);
  if (!ok) {
    std::fprintf(stderr, "failed to load %s\n", args.graph_path.c_str());
    return false;
  }
  if (edges.empty()) {
    std::fprintf(stderr, "%s contains no edges\n", args.graph_path.c_str());
    return false;
  }
  return true;
}

// Flattened-corpus dump shared by both walk drivers: one line per walker.
void WritePaths(const std::string& path,
                const std::vector<uint64_t>& path_offsets,
                const std::vector<graph::VertexId>& paths) {
  std::ofstream out(path);
  for (std::size_t w = 0; w + 1 < path_offsets.size(); ++w) {
    for (uint64_t i = path_offsets[w]; i < path_offsets[w + 1]; ++i) {
      out << paths[i] << (i + 1 == path_offsets[w + 1] ? '\n' : ' ');
    }
  }
  std::printf("paths written to %s\n", path.c_str());
}

// Executor shaped by the placement flags: --threads (0/unset = hardware
// concurrency), --pin, --numa.
util::PoolOptions ExecutorOptions(const Args& args) {
  util::PoolOptions options;
  options.num_threads =
      args.threads_set ? static_cast<std::size_t>(std::max(args.threads, 0))
                       : 0;
  options.pin_threads = args.pin;
  options.numa_interleave = args.numa;
  return options;
}

// Reports the executor shape whenever placement was requested, including
// whether the pin actually took (AffinityApplied is settled by then: the
// pool constructor waits for every worker's pin attempt).
void PrintExecutorBanner(const Args& args, const util::ThreadPool& pool) {
  if (!args.pin && !args.numa) {
    return;
  }
  std::printf("executor: %zu workers, pin %s, numa %s%s\n", pool.NumThreads(),
              args.pin ? "on" : "off", args.numa ? "interleave" : "off",
              args.pin && !pool.AffinityApplied() ? " (pinning failed)" : "");
}

// The app descriptor the flags name, built once and handed to whichever
// driver runs; nullopt (after printing why) for an unknown app or a
// malformed --metapath. "temporal" is DeepWalk over the decaying pipeline
// (PipelineConfig).
std::optional<walk::AnyWalkApp> ParseApp(const Args& args) {
  if (args.app == "deepwalk" || args.app == "temporal") {
    return walk::DeepWalkApp{};
  }
  if (args.app == "node2vec") {
    return walk::Node2vecApp{walk::Node2vecParams{args.p, args.q}};
  }
  if (args.app == "ppr") {
    return walk::PprApp{1.0 / args.length};
  }
  if (args.app == "simple") {
    return walk::SimpleSamplingApp{};
  }
  if (args.app == "metapath") {
    walk::MetapathParams params;
    if (!ParseMetapathPattern(args, params)) {
      std::fprintf(stderr,
                   "--metapath must be comma-separated types, each < --types "
                   "(got \"%s\" with %u types)\n",
                   args.metapath.c_str(), args.types);
      return std::nullopt;
    }
    return walk::MetapathApp{params};
  }
  std::fprintf(stderr, "unknown app: %s\n", args.app.c_str());
  return std::nullopt;
}

walk::WalkConfig WalkConfigFor(const Args& args) {
  walk::WalkConfig cfg;
  cfg.walk_length = args.length;
  cfg.num_walkers = args.walkers;
  cfg.seed = args.seed;
  cfg.record_paths = !args.paths_out.empty();
  return cfg;
}

// Runs the app on the engine over any AdjacencyStore backend.
template <walk::AdjacencyStore Store>
int RunWalkApp(const Args& args, const walk::AnyWalkApp& app,
               const Store& store, util::ThreadPool* pool) {
  const walk::WalkConfig cfg = WalkConfigFor(args);
  util::Timer walk_timer;
  const walk::WalkResult result = std::visit(
      [&](const auto& a) { return walk::RunApp(store, cfg, a, pool); }, app);
  const double seconds = walk_timer.Seconds();
  std::printf("%s[%s]: %llu steps in %.2fs (%.2fM steps/s)\n",
              args.app.c_str(), args.store.c_str(),
              static_cast<unsigned long long>(result.total_steps), seconds,
              result.total_steps / seconds / 1e6);

  if (!args.paths_out.empty()) {
    WritePaths(args.paths_out, result.path_offsets, result.paths);
  }
  return 0;
}

// The walker-transfer execution model: same steppers, same per-walker RNG
// streams, but walkers hop between per-shard queues superstep by superstep.
// Reports the communication volume (cross-shard migrations per step) the
// multi-device design would pay.
int RunSuperstepApp(const Args& args, const walk::AnyWalkApp& app,
                    const walk::PartitionedBingoStore& store,
                    util::ThreadPool* pool) {
  const walk::WalkConfig cfg = WalkConfigFor(args);
  util::Timer walk_timer;
  const walk::PartitionedWalkResult result = std::visit(
      [&](const auto& a) {
        return walk::RunPartitionedApp(store, cfg, a, pool);
      },
      app);
  const double seconds = walk_timer.Seconds();
  std::printf("%s[superstep x%d]: %llu steps in %.2fs (%.2fM steps/s)\n",
              args.app.c_str(), store.NumShards(),
              static_cast<unsigned long long>(result.total_steps), seconds,
              result.total_steps / seconds / 1e6);
  std::printf(
      "supersteps %llu, finished walkers %llu, migrations %llu "
      "(%.3f per step)\n",
      static_cast<unsigned long long>(result.supersteps),
      static_cast<unsigned long long>(result.finished_walkers),
      static_cast<unsigned long long>(result.walker_migrations),
      result.total_steps == 0
          ? 0.0
          : static_cast<double>(result.walker_migrations) /
                static_cast<double>(result.total_steps));

  if (!args.paths_out.empty()) {
    WritePaths(args.paths_out, result.path_offsets, result.paths);
  }
  return 0;
}

int WalkOoc(const Args& args,
            const walk::AnyWalkApp& app);  // defined below, after Stats

int Walk(const Args& args) {
  // Reject bad names before paying for the graph load or store build.
  const std::optional<walk::AnyWalkApp> app = ParseApp(args);
  if (!app) {
    return 2;
  }
  if (args.app == "temporal" && args.decay >= 1.0) {
    std::fprintf(stderr,
                 "--app temporal needs --decay D in (0, 1) to have any "
                 "temporal effect\n");
    return 2;
  }
  if (args.store == "ooc") {
    return WalkOoc(args, *app);  // its own driver + --csr input
  }
  if (args.store != "bingo" && args.store != "alias" && args.store != "its" &&
      args.store != "reservoir" && args.store != "partitioned") {
    std::fprintf(stderr, "unknown store: %s\n", args.store.c_str());
    return 2;
  }
  if (args.driver != "engine" && args.driver != "superstep") {
    std::fprintf(stderr, "unknown driver: %s\n", args.driver.c_str());
    return 2;
  }
  if (args.driver == "superstep" && args.store != "partitioned") {
    std::fprintf(stderr, "--driver superstep requires --store partitioned\n");
    return 2;
  }
  if (args.store == "partitioned" && !ValidatePositive("--shards", args.shards)) {
    return 2;
  }
  graph::WeightedEdgeList edges;
  if (!LoadGraphArg(args, edges)) {
    return args.graph_path.empty() ? 2 : 1;
  }
  const graph::VertexId n = graph::ImpliedVertexCount(edges);
  util::ThreadPool walk_pool(ExecutorOptions(args));
  util::ThreadPool* pool = &walk_pool;
  PrintExecutorBanner(args, walk_pool);

  // The bias pipeline the flags describe. Stores build at logical epoch 0
  // (loaded biases are the stored effective biases); --epoch E then
  // advances the clock through an ordinary AdvanceTime batch, re-bucketing
  // every edge's bias by decay^age — the same path a live service takes.
  const core::BingoConfig config = PipelineConfig(args);
  const auto advance_clock = [&](auto& store) {
    if (args.epoch > 0) {
      store.ApplyBatch({graph::MakeAdvanceTime(args.epoch)}, pool);
      std::printf("advanced logical clock to epoch %u (decay %.4f)\n",
                  args.epoch, args.decay);
    }
  };

  // One build/report/run path for every backend; `make_store` returns the
  // freshly built store (copy-elided).
  const auto build_and_run = [&](const std::string& label,
                                 const auto& make_store) {
    util::Timer build_timer;
    auto store = make_store();
    std::printf(
        "built %s store over %u vertices / %zu edges in %.2fs (%.1f MiB)\n",
        label.c_str(), n, edges.size(), build_timer.Seconds(),
        store.MemoryBytes() / 1024.0 / 1024.0);
    advance_clock(store);
    return RunWalkApp(args, *app, store, pool);
  };

  if (args.store == "bingo") {
    return build_and_run(args.store, [&] {
      return core::BingoStore(graph::DynamicGraph::FromEdges(n, edges), config,
                              pool);
    });
  }
  if (args.store == "alias") {
    return build_and_run(args.store, [&] {
      return walk::AliasStore(graph::DynamicGraph::FromEdges(n, edges), config,
                              pool);
    });
  }
  if (args.store == "its") {
    return build_and_run(args.store, [&] {
      return walk::ItsStore(graph::DynamicGraph::FromEdges(n, edges), config,
                            pool);
    });
  }
  if (args.store == "reservoir") {
    return build_and_run(args.store, [&] {
      return walk::ReservoirStore(graph::DynamicGraph::FromEdges(n, edges),
                                  config, pool);
    });
  }
  if (args.store == "partitioned") {
    if (args.driver == "superstep") {
      util::Timer build_timer;
      walk::PartitionedBingoStore store(edges, n, args.shards, config, pool);
      std::printf(
          "built partitioned(%d shards) store over %u vertices / %zu edges "
          "in %.2fs (%.1f MiB)\n",
          args.shards, n, edges.size(), build_timer.Seconds(),
          store.MemoryBytes() / 1024.0 / 1024.0);
      advance_clock(store);
      return RunSuperstepApp(args, *app, store, pool);
    }
    return build_and_run(
        "partitioned(" + std::to_string(args.shards) + " shards)",
        [&] { return walk::PartitionedBingoStore(edges, n, args.shards, config,
                                                 pool); });
  }
  // Unreachable while the upfront name check and this chain stay in sync.
  std::fprintf(stderr, "unknown store: %s\n", args.store.c_str());
  return 2;
}

int Stats(const Args& args) {
  graph::WeightedEdgeList edges;
  if (!LoadGraphArg(args, edges)) {
    return args.graph_path.empty() ? 2 : 1;
  }
  const graph::VertexId n = graph::ImpliedVertexCount(edges);
  core::BingoStore store(graph::DynamicGraph::FromEdges(n, edges),
                         core::BingoConfig{}, &util::ThreadPool::Global());
  const auto& g = store.Graph();
  uint32_t max_degree = 0;
  uint64_t isolated = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
    isolated += g.Degree(v) == 0 ? 1 : 0;
  }
  std::printf("vertices:    %u (%llu isolated)\n", n,
              static_cast<unsigned long long>(isolated));
  std::printf("edges:       %llu (avg degree %.2f, max %u)\n",
              static_cast<unsigned long long>(g.NumEdges()),
              static_cast<double>(g.NumEdges()) / n, max_degree);
  const auto stats = store.MemoryStats();
  std::printf("memory:      graph %.1f MiB, samplers %.1f MiB\n",
              stats.graph_bytes / 1024.0 / 1024.0,
              stats.SamplerBytes() / 1024.0 / 1024.0);
  const auto kinds = store.CountGroupKinds();
  const char* names[] = {"empty", "dense", "one-element", "sparse", "regular"};
  uint64_t total_groups = 0;
  for (uint64_t c : kinds) {
    total_groups += c;
  }
  std::printf("radix groups (%llu total):\n",
              static_cast<unsigned long long>(total_groups));
  for (int k = 1; k < 5; ++k) {
    std::printf("  %-12s %10llu (%.1f%%)\n", names[k],
                static_cast<unsigned long long>(kinds[k]),
                100.0 * kinds[k] / std::max<uint64_t>(1, total_groups));
  }
  return 0;
}

// Writes --graph as the immutable CSR container the out-of-core tier maps.
int BuildCsr(const Args& args) {
  if (args.out_path.empty()) {
    std::fprintf(stderr, "build-csr: --out is required\n");
    return 2;
  }
  graph::WeightedEdgeList edges;
  if (!LoadGraphArg(args, edges)) {
    return args.graph_path.empty() ? 2 : 1;
  }
  const graph::VertexId n = graph::ImpliedVertexCount(edges);
  // The container is vertex-major; stable sort preserves each vertex's
  // (timestamp, insertion) order, so any edge-list file round-trips.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const graph::WeightedEdge& a,
                      const graph::WeightedEdge& b) { return a.src < b.src; });
  util::Timer write_timer;
  std::string error;
  if (!graph::WriteCsrFile(args.out_path, n, edges, args.block_bytes,
                           &error)) {
    std::fprintf(stderr, "build-csr failed: %s\n", error.c_str());
    return 1;
  }
  graph::CsrMmap csr;
  if (!graph::CsrMmap::Open(args.out_path, &csr, &error)) {
    std::fprintf(stderr, "build-csr verify failed: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %u vertices, %llu edges, %u blocks x ~%.1f MiB "
      "(index %.1f MiB) in %.2fs\n",
      args.out_path.c_str(), csr.NumVertices(),
      static_cast<unsigned long long>(csr.NumEdges()), csr.NumBlocks(),
      csr.BlockBytesTarget() / 1024.0 / 1024.0,
      csr.IndexBytes() / 1024.0 / 1024.0, write_timer.Seconds());
  return 0;
}

// Out-of-core walk: TieredStore over a CSR container, block-scheduled
// driver, resident bytes capped at --memory-budget.
int WalkOoc(const Args& args, const walk::AnyWalkApp& app) {
  if (args.app == "temporal") {
    std::fprintf(stderr,
                 "--store ooc walks the CSR's stored biases; --app temporal "
                 "needs a decaying pipeline\n");
    return 2;
  }
  if (args.csr_path.empty()) {
    std::fprintf(stderr,
                 "walk --store ooc needs --csr FILE.csr (run build-csr "
                 "first)\n");
    return 2;
  }
  if (args.spill_threshold > 0 && args.spill_dir.empty()) {
    std::fprintf(stderr, "--spill-threshold needs --spill-dir DIR\n");
    return 2;
  }
  util::ThreadPool walk_pool(ExecutorOptions(args));
  util::ThreadPool* pool = &walk_pool;
  PrintExecutorBanner(args, walk_pool);

  walk::TieredStoreOptions store_options;
  store_options.memory_budget_bytes = args.memory_budget;
  std::string error;
  util::Timer open_timer;
  auto store = walk::TieredStore::Open(args.csr_path, core::BingoConfig{},
                                       store_options, pool, &error);
  if (store == nullptr) {
    std::fprintf(stderr, "failed to mount %s: %s\n", args.csr_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf(
      "mounted %s: %u vertices, %llu edges, %u csr blocks, budget %s in "
      "%.2fs\n",
      args.csr_path.c_str(), store->NumVertices(),
      static_cast<unsigned long long>(store->NumEdges()),
      store->Csr().NumBlocks(),
      args.memory_budget == 0
          ? "unconstrained"
          : (std::to_string(args.memory_budget / 1024) + " KiB").c_str(),
      open_timer.Seconds());

  const walk::WalkConfig cfg = WalkConfigFor(args);
  walk::OocWalkOptions ooc_options;
  ooc_options.spill_threshold_walkers =
      static_cast<std::size_t>(args.spill_threshold);
  ooc_options.spill_dir = args.spill_dir;

  util::Timer walk_timer;
  const walk::OocWalkResult result = std::visit(
      [&](const auto& a) {
        return walk::RunOocApp(*store, cfg, a, pool, ooc_options);
      },
      app);
  const double seconds = walk_timer.Seconds();
  if (!result.error.empty()) {
    std::fprintf(stderr, "ooc walk failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("%s[ooc]: %llu steps in %.2fs (%.2fM steps/s)\n",
              args.app.c_str(),
              static_cast<unsigned long long>(result.total_steps), seconds,
              result.total_steps / seconds / 1e6);
  std::printf(
      "blocks:           %llu passes, %llu loads, %llu evictions, peak "
      "resident %.1f MiB\n",
      static_cast<unsigned long long>(result.block_passes),
      static_cast<unsigned long long>(result.block_loads),
      static_cast<unsigned long long>(result.block_evictions),
      result.peak_resident_bytes / 1024.0 / 1024.0);
  std::printf("walkers:          %llu finished, %llu parks, %llu spilled\n",
              static_cast<unsigned long long>(result.finished_walkers),
              static_cast<unsigned long long>(result.walker_parks),
              static_cast<unsigned long long>(result.spilled_walkers));
  std::printf("peak rss:         %.1f MiB\n",
              util::PeakRssBytes() / 1024.0 / 1024.0);
  const std::string invariants = store->CheckInvariants();
  std::printf("invariants:       %s\n",
              invariants.empty() ? "ok" : invariants.c_str());
  if (!args.paths_out.empty()) {
    WritePaths(args.paths_out, result.path_offsets, result.paths);
  }
  return invariants.empty() ? 0 : 1;
}

// Builds a sharded service and writes its durable base into --dir.
int Checkpoint(const Args& args) {
  if (args.dir.empty()) {
    std::fprintf(stderr, "checkpoint: --dir is required\n");
    return 2;
  }
  if (!ValidatePositive("--shards", args.shards)) {
    return 2;
  }
  graph::WeightedEdgeList edges;
  if (!LoadGraphArg(args, edges)) {
    return args.graph_path.empty() ? 2 : 1;
  }
  const graph::VertexId n = graph::ImpliedVertexCount(edges);
  util::Timer build_timer;
  auto service = walk::MakeShardedWalkService(edges, n, args.shards, {},
                                              &util::ThreadPool::Global());
  std::printf("built %d-shard service over %u vertices / %zu edges in %.2fs\n",
              args.shards, n, edges.size(), build_timer.Seconds());
  walk::WalPersistenceOptions options;
  options.fsync_on_commit = args.fsync;
  options.compact_fraction = args.compact_fraction;
  util::Timer ckpt_timer;
  const walk::CheckpointResult result = service->AttachWal(args.dir, options);
  if (!result.ok) {
    std::fprintf(stderr, "checkpoint into %s failed\n", args.dir.c_str());
    return 1;
  }
  std::printf("checkpoint:       %s (%.1f MiB in %.2fs, %d shards)\n",
              args.dir.c_str(), result.bytes_written / 1024.0 / 1024.0,
              ckpt_timer.Seconds(), args.shards);
  const std::string invariants = service->CheckInvariants();
  std::printf("invariants:       %s\n",
              invariants.empty() ? "ok" : invariants.c_str());
  return invariants.empty() ? 0 : 1;
}

// Recovers a sharded service from --dir and reports the replay.
int Restore(const Args& args) {
  if (args.dir.empty()) {
    std::fprintf(stderr, "restore: --dir is required\n");
    return 2;
  }
  walk::RecoveryReport report;
  util::Timer recover_timer;
  auto service = walk::RecoverShardedWalkService(
      args.dir, {}, 0, &util::ThreadPool::Global(),
      &util::ThreadPool::Global(), {}, &report);
  const double seconds = recover_timer.Seconds();
  if (service == nullptr) {
    std::fprintf(stderr, "recovery from %s failed\n", args.dir.c_str());
    return 1;
  }
  std::printf(
      "recovered:        %d shards, %u vertices, %llu base edges in %.2fs\n",
      service->NumShards(), report.num_vertices,
      static_cast<unsigned long long>(report.base_edges), seconds);
  std::printf("wal replay:       %llu records / %llu updates%s\n",
              static_cast<unsigned long long>(report.wal_records_replayed),
              static_cast<unsigned long long>(report.wal_updates_replayed),
              report.wal_tail_truncated ? " (torn tail dropped)" : "");
  const std::string invariants = service->CheckInvariants();
  std::printf("invariants:       %s\n",
              invariants.empty() ? "ok" : invariants.c_str());
  if (!args.out_path.empty()) {
    // Merge the shards' canonical edge lists back into one vertex-major
    // list and dump it (binary edge-list format).
    graph::WeightedEdgeList merged;
    for (int s = 0; s < service->NumShards(); ++s) {
      service->Shard(s).Query([&](const core::BingoStore& store) {
        const auto shard_edges = core::CanonicalEdgeList(store.Graph());
        merged.insert(merged.end(), shard_edges.begin(), shard_edges.end());
        return 0;
      });
    }
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const graph::WeightedEdge& a, const graph::WeightedEdge& b) {
          return a.src < b.src;  // stable: per-vertex order preserved
        });
    if (!graph::SaveWeightedEdgesBinary(args.out_path, merged)) {
      std::fprintf(stderr, "failed to write %s\n", args.out_path.c_str());
      return 1;
    }
    std::printf("edges dumped:     %zu -> %s\n", merged.size(),
                args.out_path.c_str());
  }
  return invariants.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    PrintUsage();
    return 2;
  }
  if (args.command == "generate") {
    return Generate(args);
  }
  if (args.command == "walk") {
    return Walk(args);
  }
  if (args.command == "stats") {
    return Stats(args);
  }
  if (args.command == "build-csr") {
    return BuildCsr(args);
  }
  if (args.command == "checkpoint") {
    return Checkpoint(args);
  }
  if (args.command == "restore") {
    return Restore(args);
  }
  if (args.command == "--help" || args.command == "-h" ||
      args.command == "help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
  PrintUsage();
  return 2;
}
