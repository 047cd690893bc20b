//===- perfbench/src/Common.h - Shared benchmark plumbing -------------------===//
///
/// \file
/// Pieces every phase of the benchmark shares: a seeded RNG that does not
/// depend on the program's generators, clocks and order statistics, the
/// answer checker, the metric sink, and the in-memory span recorder used
/// by traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// xoshiro256** seeded through splitmix64. Owned by the benchmark so a
/// change to the program's `gen/` or `support/Random.h` cannot change a
/// workload.
class Rng {
public:
  explicit Rng(uint64_t Seed) {
    for (uint64_t &W : S) {
      Seed += 0x9e3779b97f4a7c15ull;
      uint64_t Z = Seed;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
      W = Z ^ (Z >> 31);
    }
  }
  uint64_t next() {
    const uint64_t R = rotl(S[1] * 5, 7) * 9;
    const uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
    return R;
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) { return Lo + below(Hi - Lo + 1); }

private:
  static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }
  uint64_t S[4];
};

/// Derive an independent stream seed from (seed, label, index).
inline uint64_t subSeed(uint64_t Seed, uint64_t Label, uint64_t Index = 0) {
  Rng R(Seed ^ (Label * 0x9e3779b97f4a7c15ull) ^ (Index * 0xc2b2ae3d27d4eb4full));
  return R.next();
}

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, Q in (0, 1].
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(Q * V.size() + 0.999999);
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

/// Collects check outcomes. A run is correct iff no check failed; the
/// first few failures are kept for the report on stderr.
class Checker {
public:
  void expect(bool Ok, const std::string &What) {
    ++Checks;
    if (Ok)
      return;
    ++Failures;
    if (Messages.size() < 8)
      Messages.push_back(What);
  }
  bool correct() const { return Failures == 0; }
  uint64_t checks() const { return Checks; }
  uint64_t failures() const { return Failures; }
  const std::vector<std::string> &messages() const { return Messages; }

private:
  uint64_t Checks = 0;
  uint64_t Failures = 0;
  std::vector<std::string> Messages;
};

/// Named metrics with units, in the order the phases report them.
struct MetricSink {
  struct Value {
    double V = 0;
    std::string Unit;
  };
  std::map<std::string, Value> Values;

  void set(const std::string &Name, double V, const char *Unit) {
    Values[Name] = Value{V, Unit};
  }
  /// Keep the first value reported under \p Name (see main.cpp: the
  /// workload's own phase reports first).
  void offer(const std::string &Name, double V, const char *Unit) {
    Values.emplace(Name, Value{V, Unit});
  }
};

/// In-memory span recorder for traced runs. Spans carry a name, a
/// category (the phase), start/end, the index of the enclosing span and
/// an operation id shared by every span of one query or insert. Nothing
/// is recorded (and no clock is read) while disabled.
class Tracer {
public:
  struct Span {
    const char *Cat;
    const char *Name;
    uint64_t Start;
    uint64_t End;
    int64_t Parent; ///< Index into spans(), -1 for a root.
    uint64_t Op;
  };

  explicit Tracer(bool On) : On(On) {}
  bool enabled() const { return On; }

  /// Open a span; returns its index (or -1 when disabled).
  int64_t open(const char *Cat, const char *Name, uint64_t Op) {
    if (!On)
      return -1;
    Spans.push_back(Span{Cat, Name, nowNs(), 0,
                         Stack.empty() ? -1 : Stack.back(), Op});
    Stack.push_back(static_cast<int64_t>(Spans.size() - 1));
    return Stack.back();
  }
  void close(int64_t Id) {
    if (Id < 0)
      return;
    Spans[static_cast<size_t>(Id)].End = nowNs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Mean duration (ns) of the spans named \p Name in category \p Cat,
  /// and how many there were.
  double meanNs(const char *Cat, const char *Name, uint64_t *Count = nullptr) const;

  /// Per (category, name): count, total and self time (duration minus
  /// the time covered by direct children), printed as a table.
  std::string selfTimeTable() const;

  /// Chrome `trace_event` JSON ("X" complete events, ts/dur in µs).
  bool writeChromeJson(const std::string &Path) const;

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Cat, const char *Name, uint64_t Op)
      : T(T), Id(T.open(Cat, Name, Op)) {}
  ~SpanScope() { T.close(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int64_t Id;
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
