//===- perfbench/src/IngestPhase.cpp - ingest-append -----------------------===//
///
/// \file
/// The write path with the program's own flush policy: a corpus (about
/// half alpha-renamed copies) through `AlphaHashIndex::insertBatch` on
/// nproc threads into a first segment, eight ~1% deltas through
/// `appendSegment` (half new classes, half copies of stored ones), then
/// `compactSegments`. Every round starts from an empty directory.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Phases.h"

#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"
#include "support/IoEnv.h"

using namespace hma;

namespace pb {
namespace {

constexpr uint32_t MinSize = 16, MaxSize = 80;
constexpr unsigned Appends = 8;
constexpr const char *Cat = "ingest";

/// The system environment, counting bytes written, fsyncs and the time
/// spent in them.
class CountingEnv : public IoEnv {
public:
  long write(int Fd, const void *B, unsigned long N) override {
    const long R = IoEnv::write(Fd, B, N);
    if (R > 0)
      Bytes += static_cast<uint64_t>(R);
    return R;
  }
  int fsync(int Fd) override { return timed([&] { return IoEnv::fsync(Fd); }); }
  int fsyncDir(const char *P) override {
    return timed([&] { return IoEnv::fsyncDir(P); });
  }

  void reset() { Bytes = Fsyncs = FsyncNs = 0; }
  uint64_t Bytes = 0, Fsyncs = 0, FsyncNs = 0;

private:
  template <typename F> int timed(F &&Fn) {
    const uint64_t T0 = nowNs();
    const int R = Fn();
    FsyncNs += nowNs() - T0;
    ++Fsyncs;
    return R;
  }
};

class IngestPhase : public Phase {
public:
  IngestPhase(const RunOptions &O, bool Full, Tracer &T)
      : O(O), T(T), Dir(O.WorkDir + "/ingest"), N(Full ? 40000 : 8000) {}

  void setup(Checker &) override {
    Rng R(subSeed(O.Seed, 2));
    std::vector<TermSpec> Specs;
    std::vector<uint64_t> Classes;
    for (size_t I = 0; I != N; ++I)
      addSpec(Specs, Classes, R, R.below(2) == 0);
    generateCorpus(Specs, MinSize, MaxSize, O.Threads, Main);
    Multiset M;
    for (const std::string &F : Main.Forms)
      ++M[F];
    Distinct.push_back(M.size());
    Deltas.resize(Appends);
    for (unsigned A = 0; A != Appends; ++A) {
      Specs.clear();
      for (size_t I = 0; I != N / 100; ++I)
        addSpec(Specs, Classes, R, I % 2 == 1);
      generateCorpus(Specs, MinSize, MaxSize, O.Threads, Deltas[A]);
      for (const std::string &F : Deltas[A].Forms)
        ++M[F];
      Distinct.push_back(M.size());
    }
  }

  void round(Checker &C, bool First) override {
    const bool Traced = T.enabled() && !First;
    removeTree(Dir);
    Multiset M;
    if (First)
      for (const std::string &F : Main.Forms)
        ++M[F];

    // Serialized corpus to a committed first segment.
    uint64_t T0 = nowNs();
    AlphaHashIndex<Hash128> Ix;
    const auto BR = Ix.insertBatch(Main.Blobs, O.Threads);
    SegmentAppendResult Made = createSegmentDir(Dir, Ix);
    const double Secs = (nowNs() - T0) / 1e9;
    C.expect(Made.Ok, "ingest: createSegmentDir: " + Made.Error);
    C.expect(BR.Ingested == N, "ingest: blobs ingested");
    C.expect(Ix.stats().VerifiedCollisions == 0, "ingest: verified collisions");
    C.expect(Ix.numClasses() == Distinct[0], "ingest: classes after build");
    if (!First)
      Eps.push_back(N / Secs);
    if (BR.Ingested)
      SteadyPool.push_back(double(BR.SteadyPoolNodesAllocated) / BR.Ingested);
    if (First)
      checkDir(M, C, "ingest: after build");
    if (Traced)
      traced(Ix);

    CountingEnv Env;
    SegmentAppendOptions AO;
    AO.Threads = O.Threads;
    if (Traced)
      AO.Env = &Env;
    for (unsigned A = 0; A != Appends; ++A) {
      if (Traced) {
        const uint64_t O0 = nowNs();
        auto Set = SegmentSet<Hash128>::open(Dir);
        AppendOpenMs.push_back((nowNs() - O0) / 1e6);
        Env.reset();
      }
      T0 = nowNs();
      SegmentAppendResult AR = appendSegment<Hash128>(Dir, Deltas[A].Blobs, AO);
      if (!First)
        AppendMs.push_back((nowNs() - T0) / 1e6);
      C.expect(AR.Ok, "ingest: appendSegment: " + AR.Error);
      C.expect(AR.ClassesAfter == Distinct[A + 1], "ingest: classes after append");
      if (Traced) {
        AppendBytes.push_back(double(Env.Bytes));
        AppendFsyncs.push_back(double(Env.Fsyncs));
        AppendFsyncMs.push_back(Env.FsyncNs / 1e6);
      }
      if (First) {
        for (const std::string &F : Deltas[A].Forms)
          ++M[F];
        checkDir(M, C, "ingest: after append");
      }
    }

    Env.reset();
    T0 = nowNs();
    SegmentCompactResult CR = compactSegments<Hash128>(Dir, Traced ? &Env : nullptr);
    if (!First)
      CompactS.push_back((nowNs() - T0) / 1e9);
    C.expect(CR.Ok && CR.SegmentsAfter == 1, "ingest: compactSegments: " + CR.Error);
    C.expect(CR.Classes == Distinct.back(), "ingest: classes after compaction");
    if (Traced) {
      CompactBytes.push_back(double(Env.Bytes));
      CompactFsyncMs.push_back(Env.FsyncNs / 1e6);
    }
    if (First) {
      checkDir(M, C, "ingest: after compaction");
      BytesPerClass = double(dirBytes(Dir)) / double(Distinct.back());
    }
    removeTree(Dir);
  }

  uint64_t opsPerRound() const override { return N + Appends + 1; }

  void report(MetricSink &E, MetricSink &L) override {
    E.set("ingest_eps", median(Eps), "exprs/s");
    E.set("append_ms", median(AppendMs), "ms");
    E.set("compact_s", median(CompactS), "s");
    E.set("index_bytes_per_class", BytesPerClass, "bytes");
    if (!T.enabled())
      return;
    L.offer("ast.decode_ns", T.meanNs(Cat, "ast.decode"), "ns");
    L.offer("ast.uniquify_ns", T.meanNs(Cat, "ast.uniquify"), "ns");
    L.offer("ast.serialize_ns", T.meanNs(Cat, "ast.serialize"), "ns");
    L.offer("core.hash_ns", T.meanNs(Cat, "core.hash"), "ns");
    L.offer("adt.steady_pool_nodes_per_expr", median(SteadyPool), "count");
    L.offer("index.insert_ns", median(InsertNs), "ns");
    L.offer("index.save_ms", median(SaveMs), "ms");
    L.offer("index.append_open_ms", median(AppendOpenMs), "ms");
    L.offer("io.bytes_written_per_append", median(AppendBytes), "bytes");
    L.offer("io.fsyncs_per_append", median(AppendFsyncs), "count");
    L.offer("io.fsync_ms_per_append", median(AppendFsyncMs), "ms");
    L.offer("io.bytes_written_compact", median(CompactBytes), "bytes");
    L.offer("io.fsync_ms_compact", median(CompactFsyncMs), "ms");
  }

  void teardown() override { removeTree(Dir); }

private:
  /// The directory's union class table equals the oracle multiset; the
  /// sum of counts is the number of expressions ingested so far.
  void checkDir(const Multiset &M, Checker &C, const char *What) {
    auto Opened = SegmentedIndex<Hash128>::open(Dir);
    C.expect(Opened.ok(), std::string(What) + ": open: " + Opened.Error);
    if (!Opened.ok())
      return;
    const auto Snap = Opened.Reader->snapshot();
    std::vector<std::pair<std::string_view, uint64_t>> Classes;
    uint64_t Sum = 0, Want = 0;
    for (const auto &S : Snap) {
      Classes.emplace_back(S.CanonicalBytes, S.Count);
      Sum += S.Count;
    }
    for (const auto &[F, K] : M)
      Want += K;
    checkClassTable(Classes, M, C, What);
    C.expect(Sum == Want, std::string(What) + ": sum of counts");
    C.expect(Opened.Reader->stats().VerifiedCollisions == 0,
             std::string(What) + ": verified collisions");
  }

  /// Single-thread insert, the save, and the per-expression layers.
  void traced(const AlphaHashIndex<Hash128> &Built) {
    const size_t K = std::min<size_t>(N, 4000);
    std::vector<std::string> Sub(Main.Blobs.begin(), Main.Blobs.begin() + K);
    {
      AlphaHashIndex<Hash128> Ix;
      const uint64_t T0 = nowNs();
      Ix.insertBatch(Sub, 1);
      InsertNs.push_back(double(nowNs() - T0) / K);
    }
    const uint64_t S0 = nowNs();
    const std::string Image = saveIndexBytes(Built);
    SaveMs.push_back((nowNs() - S0) / 1e6);
    Sink ^= Image.size();

    auto Ctx = std::make_unique<ExprContext>();
    AlphaHasher<Hash128> H(*Ctx);
    std::unordered_map<std::string_view, bool> SeenForm;
    for (size_t I = 0; I != K; ++I) {
      if (I % 64 == 0) { // a fresh context per chunk, as insertBatch does
        Ctx = std::make_unique<ExprContext>();
        H.rebind(*Ctx);
      }
      SpanScope Op(T, Cat, "index.insert", I);
      const Expr *E;
      {
        SpanScope S(T, Cat, "ast.decode", I);
        E = deserializeExpr(*Ctx, Sub[I]).E;
      }
      {
        SpanScope S(T, Cat, "ast.uniquify", I);
        E = uniquifyBinders(*Ctx, E);
      }
      {
        SpanScope S(T, Cat, "core.hash", I);
        Sink ^= H.hashRoot(E).Lo;
      }
      if (SeenForm.emplace(Main.Forms[I], true).second) {
        SpanScope S(T, Cat, "ast.serialize", I);
        Sink ^= serializeExpr(*Ctx, E).size();
      }
    }
  }

  const RunOptions &O;
  Tracer &T;
  std::string Dir;
  size_t N;
  Corpus Main;
  std::vector<Corpus> Deltas;
  std::vector<size_t> Distinct; ///< Distinct forms after build, each append.
  std::vector<double> Eps, AppendMs, CompactS, SteadyPool, InsertNs, SaveMs,
      AppendOpenMs, AppendBytes, AppendFsyncs, AppendFsyncMs, CompactBytes,
      CompactFsyncMs;
  double BytesPerClass = 0;
  uint64_t Sink = 0;
};

} // namespace

std::unique_ptr<Phase> makeIngestPhase(const RunOptions &O, bool Full, Tracer &T) {
  return std::make_unique<IngestPhase>(O, Full, T);
}

} // namespace pb
