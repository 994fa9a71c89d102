// Harness plumbing for the end-to-end benchmark (bench/e2e/e2e_bench.cc):
// flag parsing, sample summaries, walk checksums, process memory, the span
// tracer and the result printer. Nothing here touches the library beyond
// its public headers; every clock read and every lock belongs to the
// benchmark, not to the program under test.

#ifndef BINGO_BENCH_E2E_HARNESS_H_
#define BINGO_BENCH_E2E_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/sync.h"
#include "src/walk/engine.h"

namespace bingo::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Sleeps until `due`: a coarse sleep, then a short spin, so an open-loop
// generator issues arrivals within a few microseconds of their schedule.
inline void SleepUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(50);
  const auto now = Clock::now();
  if (due - now > kSpin) {
    std::this_thread::sleep_until(due - kSpin);
  }
  while (Clock::now() < due) {
  }
}

// ------------------------------------------------------------------ flags --

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        bad_ = "expected --flag value pairs, got " + key;
        return;
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) {
      bad_ = "dangling flag " + std::string(argv[argc - 1]);
    }
  }

  const std::string& Error() const { return bad_; }

  std::string Str(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      bad_ = "missing --" + key;
      return {};
    }
    used_.push_back(key);
    return it->second;
  }
  double Num(const std::string& key) {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == nullptr || *end != '\0') {
      if (bad_.empty()) {
        bad_ = "--" + key + " is not a number: " + s;
      }
      return 0.0;
    }
    return v;
  }
  uint64_t U64(const std::string& key) {
    return static_cast<uint64_t>(std::max(0.0, Num(key)));
  }
  std::vector<double> List(const std::string& key) {
    std::vector<double> out;
    const std::string s = Str(key);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = std::min(s.find(',', pos), s.size());
      out.push_back(std::strtod(s.substr(pos, comma - pos).c_str(), nullptr));
      pos = comma + 1;
    }
    return out;
  }
  // Flags given but never read are an error: a typo must not silently
  // leave a parameter at some other value.
  std::string Unused() const {
    for (const auto& [key, value] : values_) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        return "unknown flag --" + key;
      }
    }
    return {};
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
  std::string bad_;
};

// -------------------------------------------------------------- summaries --

// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The highest quantile of {0.99, 0.9, 0.5} with at least ten samples
// beyond it; reported with its name so a thin sample is never called p99.
inline std::pair<const char*, double> TailQuantile(const std::vector<double>& v) {
  if (v.size() >= 1000) {
    return {"p99", Quantile(v, 0.99)};
  }
  if (v.size() >= 100) {
    return {"p90", Quantile(v, 0.90)};
  }
  return {"p50", Quantile(v, 0.50)};
}

// Work done per second over several timed intervals: total work over total
// time, so every interval counts by its length.
struct Rate {
  double work = 0;
  double seconds = 0;
  void Add(double w, double s) {
    work += w;
    seconds += s;
  }
  double PerSecond() const { return seconds > 0 ? work / seconds : 0.0; }
};

// Order-sensitive 64-bit digest of a walk result: paths, offsets, visit
// counts and totals. Two results hash equal iff (up to 2^-64) identical.
inline uint64_t WalkChecksum(const walk::WalkResult& r) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  };
  mix(r.total_steps);
  mix(r.finished_walkers);
  for (const auto v : r.paths) {
    mix(v);
  }
  for (const auto o : r.path_offsets) {
    mix(o);
  }
  for (const auto c : r.visit_counts) {
    mix(c);
  }
  return h;
}

// Peak resident set (VmHWM) of this process, in MiB; 0 if unreadable.
inline double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ----------------------------------------------------------------- tracer --
//
// Spans around the benchmark's calls into each layer: name, start, end,
// parent span and request id. Spans stay in memory; Write() dumps them as
// JSON lines when the run ends. With tracing off every call is a no-op, so
// the untraced run measures the program alone.

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int64_t parent = kNoParent;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  int64_t Begin(const std::string& name, int64_t parent = kNoParent,
                uint64_t request = 0) {
    if (!enabled_) {
      return kNoParent;
    }
    return Add(Span{name, Nanos(Clock::now()), -1, parent, request});
  }
  void End(int64_t id) {
    if (!enabled_ || id < 0) {
      return;
    }
    const int64_t now = Nanos(Clock::now());
    util::MutexLock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }
  // A span whose endpoints were measured elsewhere (open-loop requests are
  // timed from their scheduled arrival, not from when they were issued).
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request) {
    if (enabled_) {
      Add(Span{name, Nanos(start), Nanos(end), parent, request});
    }
  }

  // Writes every span as one JSON object per line.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    util::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

  // Self time per layer (a span's name up to its last '.'): the wall time
  // during which at least one of the layer's spans runs outside its own
  // children. Spans of one layer that overlap (open-loop requests in flight
  // together) count once, so no layer reads more than the run's wall time.
  std::map<std::string, double> LayerSelfSeconds() const {
    util::MutexLock lock(mutex_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.end_ns >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                  s.end_ns);
      }
    }
    std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> own;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) {
        continue;
      }
      // The gaps of [start, end] that no child covers.
      auto& gaps = own[Layer(s.name)];
      std::sort(children[i].begin(), children[i].end());
      int64_t reach = s.start_ns;
      for (const auto& [a, b] : children[i]) {
        if (std::min(a, s.end_ns) > reach) {
          gaps.emplace_back(reach, std::min(a, s.end_ns));
        }
        reach = std::max(reach, b);
      }
      if (s.end_ns > reach) {
        gaps.emplace_back(reach, s.end_ns);
      }
    }
    std::map<std::string, double> self;
    for (auto& [layer, gaps] : own) {
      self[layer] = 1e-9 * static_cast<double>(UnionWithin(
                               std::move(gaps), 0,
                               std::numeric_limits<int64_t>::max()));
    }
    return self;
  }

  // Share of [origin, now] that no top-level span covers.
  double UncoveredShare() const {
    const int64_t wall = Nanos(Clock::now());
    std::vector<std::pair<int64_t, int64_t>> top;
    {
      util::MutexLock lock(mutex_);
      for (const Span& s : spans_) {
        if (s.parent == kNoParent && s.end_ns >= 0) {
          top.emplace_back(s.start_ns, s.end_ns);
        }
      }
    }
    return wall > 0 ? 1.0 - static_cast<double>(UnionWithin(top, 0, wall)) /
                                static_cast<double>(wall)
                    : 0.0;
  }

  static std::string Layer(const std::string& name) {
    const std::size_t dot = name.rfind('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
  }

 private:
  int64_t Add(Span span) {
    util::MutexLock lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  static int64_t UnionWithin(std::vector<std::pair<int64_t, int64_t>> iv,
                             int64_t lo, int64_t hi) {
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    return covered;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable util::Mutex mutex_;
  std::vector<Span> spans_ BINGO_GUARDED_BY(mutex_);
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             int64_t parent = Tracer::kNoParent, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

// ---------------------------------------------------------------- results --

// Named metrics with units and sample counts, printed as JSON in insertion
// (phase) order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    entries_.push_back(Entry{name, value, unit, samples});
  }

  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double v = std::isfinite(e.value) ? e.value : -1.0;
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%llu}",
                    i == 0 ? "" : ",", e.name.c_str(), v, e.unit.c_str(),
                    static_cast<unsigned long long>(e.samples));
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
};

}  // namespace bingo::e2e

#endif  // BINGO_BENCH_E2E_HARNESS_H_
