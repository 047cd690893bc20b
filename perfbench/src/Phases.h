//===- perfbench/src/Phases.h - One phase per workload ----------------------===//
///
/// \file
/// The benchmark runs four phases, one per workload. Every run executes
/// all four so that it can print every end-to-end metric; the phase
/// named by `--workload` runs at full size and the other three at a
/// fixed small size (see README.md, "Run structure"). A run is a series
/// of rounds; each round runs each phase's fixed unit of work once, so
/// the operation count per round never depends on the seed or the clock.
/// The first round is the warm-up; the metrics come from the others.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Common.h"

#include "support/IoEnv.h"

#include <memory>
#include <string>

namespace pb {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1; ///< nproc
  std::string WorkDir;  ///< Scratch directory inside the checkout.
  std::string HmaPath;  ///< The `hma` binary (daemon phase).
};

class Phase {
public:
  virtual ~Phase() = default;
  /// Inputs, indexes, processes; counted in setup_s.
  virtual void setup(Checker &C) = 0;
  /// One fixed unit of work. \p First: the warm-up round, which checks
  /// every answer against the oracle and records no timing or span;
  /// later rounds compare against it and are the ones measured.
  virtual void round(Checker &C, bool First) = 0;
  /// Operations one round attempts, and how many of them failed.
  virtual uint64_t opsPerRound() const = 0;
  virtual uint64_t failed() const { return 0; }
  /// Checks that need the whole run (e.g. renaming invariance).
  virtual void finish(Checker &) {}
  /// End-to-end metrics into \p E2E, per-layer ones into \p Layer.
  virtual void report(MetricSink &E2E, MetricSink &Layer) = 0;
  /// Stop processes, remove scratch files.
  virtual void teardown() {}
};

std::unique_ptr<Phase> makeQueryPhase(const RunOptions &O, bool Full, Tracer &T);
std::unique_ptr<Phase> makeIngestPhase(const RunOptions &O, bool Full, Tracer &T);
std::unique_ptr<Phase> makeDaemonPhase(const RunOptions &O, bool Full, Tracer &T);
std::unique_ptr<Phase> makeSubexprPhase(const RunOptions &O, bool Full, Tracer &T);

/// The system environment without fsync, for the fixtures a phase builds
/// during set-up: the flush policy is measured by `ingest-append`, and
/// disk-flush jitter would otherwise dominate `setup_s`.
class NoSyncEnv : public hma::IoEnv {
public:
  int fsync(int) override { return 0; }
  int fsyncDir(const char *) override { return 0; }
};

/// Remove a directory tree (scratch only).
void removeTree(const std::string &Path);
/// Total bytes of the regular files directly in \p Dir.
uint64_t dirBytes(const std::string &Dir);

} // namespace pb

#endif // PERFBENCH_PHASES_H
