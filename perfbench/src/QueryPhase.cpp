//===- perfbench/src/QueryPhase.cpp - query-mapped -------------------------===//
///
/// \file
/// In-process `IndexReader::lookupBatch` over a segmented index: one
/// large base segment plus three small appended ones, queried on one
/// thread and on nproc threads. Queries are a third alpha-renamed copies
/// of stored classes, a third renamed copies of classes that live only
/// in the newest segment, and a third misses of the same sizes.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Phases.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"

using namespace hma;

namespace pb {
namespace {

constexpr uint32_t MinSize = 16, MaxSize = 80;
constexpr unsigned Appends = 3;
constexpr const char *Cat = "query";
constexpr size_t ChunkExprs = 64; ///< Expressions per context when split up.

class QueryPhase : public Phase {
public:
  QueryPhase(const RunOptions &O, bool Full, Tracer &T)
      : O(O), T(T), Dir(O.WorkDir + "/query"),
        Base(Full ? 200000 : 8000), Delta(Base / 100),
        Queries(Full ? 12000 : 1512), Slice(Queries / 8) {}

  void setup(Checker &C) override {
    Rng R(subSeed(O.Seed, 1));
    // Base corpus: three quarters new classes, a quarter renamed copies.
    std::vector<TermSpec> Specs;
    std::vector<uint64_t> Classes;
    for (size_t I = 0; I != Base; ++I)
      addSpec(Specs, Classes, R, !Classes.empty() && R.below(4) == 0);
    Corpus BaseC;
    generateCorpus(Specs, MinSize, MaxSize, O.Threads, BaseC);
    AlphaHashIndex<Hash128> Ix;
    Ix.insertBatch(BaseC.Blobs, O.Threads);
    C.expect(Ix.stats().VerifiedCollisions == 0, "query: base verified collisions");
    removeTree(Dir);
    NoSyncEnv Fixture;
    SegmentAppendOptions AO;
    AO.Threads = O.Threads;
    AO.Env = &Fixture;
    SegmentAppendResult Made = createSegmentDir(Dir, Ix, AO);
    C.expect(Made.Ok, "query: createSegmentDir: " + Made.Error);
    for (size_t I = 0; I != Base; ++I)
      ++Oracle[BaseC.Forms[I]];

    // Appended segments: half new classes, half copies of stored ones.
    std::vector<uint64_t> Newest;
    for (unsigned A = 0; A != Appends; ++A) {
      Specs.clear();
      for (size_t I = 0; I != Delta; ++I) {
        addSpec(Specs, Classes, R, I % 2);
        if (I % 2 == 0 && A + 1 == Appends)
          Newest.push_back(Classes.back());
      }
      Corpus D;
      generateCorpus(Specs, MinSize, MaxSize, O.Threads, D);
      SegmentAppendResult AR = appendSegment<Hash128>(Dir, D.Blobs, AO);
      C.expect(AR.Ok, "query: appendSegment: " + AR.Error);
      for (const std::string &F : D.Forms)
        ++Oracle[F];
    }

    // Queries, spelled with a prefix no stored expression uses.
    Specs.clear();
    for (size_t I = 0; I != Queries; ++I) {
      switch (I % 3) {
      case 0:
        Specs.push_back({Classes[R.below(Classes.size())], R.next(), 'z'});
        break;
      case 1:
        Specs.push_back({Newest[R.below(Newest.size())], R.next(), 'z'});
        break;
      default:
        Specs.push_back({R.next(), R.next(), 'z'});
        break;
      }
    }
    generateCorpus(Specs, MinSize, MaxSize, O.Threads, Q);

    const uint64_t T0 = nowNs();
    auto Opened = SegmentedIndex<Hash128>::open(Dir);
    OpenMs.push_back((nowNs() - T0) / 1e6);
    C.expect(Opened.ok(), "query: open: " + Opened.Error);
    Reader = std::move(Opened.Reader);
  }

  void round(Checker &C, bool First) override {
    if (!Reader)
      return;
    // One thread: the query set in slices, one rate sample per slice.
    const uint64_t Checks0 = Reader->stats().FallbackChecks;
    Result R1;
    for (size_t B = 0; B < Queries; B += Slice) {
      const std::vector<std::string> Part(Q.Blobs.begin() + B,
                                          Q.Blobs.begin() + std::min(Queries, B + Slice));
      const uint64_t T0 = nowNs();
      auto R = Reader->lookupBatch(Part, 1);
      const double Secs = (nowNs() - T0) / 1e9;
      if (!First) {
        Qps1.push_back(Part.size() / Secs);
        LookupNs.push_back(Secs * 1e9 / Part.size());
      }
      for (auto &A : R)
        R1.push_back(std::move(A));
    }
    uint64_t Hits = 0;
    for (const auto &A : R1)
      Hits += A.has_value();
    if (Hits)
      VerifiesPerHit.push_back(double(Reader->stats().FallbackChecks - Checks0) / Hits);
    compare(R1, C, First, "query-1t");

    for (int Rep = 0; Rep != 3; ++Rep) {
      const uint64_t T0 = nowNs();
      auto RM = Reader->lookupBatch(Q.Blobs, O.Threads);
      if (!First)
        QpsMt.push_back(Queries / ((nowNs() - T0) / 1e9));
      compare(RM, C, false, "query-mt");
    }
    C.expect(Reader->stats().VerifiedCollisions == 0, "query: verified collisions");

    if (T.enabled() && !First)
      traced();
  }

  uint64_t opsPerRound() const override { return 4 * Queries; }

  void report(MetricSink &E, MetricSink &L) override {
    E.set("query_qps_1t", median(Qps1), "queries/s");
    E.set("query_qps_mt", median(QpsMt), "queries/s");
    if (!T.enabled())
      return;
    uint64_t N = 0;
    const double Decode = T.meanNs(Cat, "ast.decode", &N);
    const double Uniq = T.meanNs(Cat, "ast.uniquify");
    const double Hash = T.meanNs(Cat, "core.hash");
    uint64_t Probes = 0, Verifies = 0;
    const double Probe = T.meanNs(Cat, "index.probe", &Probes);
    const double Verify = T.meanNs(Cat, "index.verify", &Verifies);
    const double PerQuery = N ? Decode + Uniq + Hash + Probe * Probes / N +
                                    Verify * Verifies / N
                              : 0;
    const double Lookup = median(LookupNs);
    L.offer("ast.decode_ns", Decode, "ns");
    L.offer("ast.uniquify_ns", Uniq, "ns");
    L.offer("core.hash_ns", Hash, "ns");
    L.offer("index.probe_ns", Probe, "ns");
    L.offer("index.verify_ns", Verify, "ns");
    L.offer("index.lookup_ns", Lookup, "ns");
    L.offer("index.unexplained_ns", Lookup - PerQuery, "ns");
    L.offer("index.segments_per_query", N ? double(Probes) / N : 0, "count");
    L.offer("index.candidates_per_query", N ? double(Candidates) / N : 0, "count");
    L.offer("index.verifies_per_hit", median(VerifiesPerHit), "count");
    L.offer("index.open_ms", median(OpenMs), "ms");
    L.offer("index.deep_verify_ms", median(DeepVerifyMs), "ms");
    L.offer("trace.overhead_ns", median(OverheadNs), "ns");
  }

  void teardown() override {
    Reader.reset();
    removeTree(Dir);
  }

private:
  using Result = std::vector<std::optional<LookupResult<Hash128>>>;

  /// First round: every answer against the oracle. Later rounds and the
  /// multi-thread batch: identical to the first round's answers.
  void compare(const Result &R, Checker &C, bool Oracle1, const char *What) {
    if (Oracle1 || FirstAnswers.empty()) {
      std::vector<Answer> A(R.size());
      for (size_t I = 0; I != R.size(); ++I)
        if (R[I])
          A[I] = Answer{true, R[I]->Count, R[I]->CanonicalBytes};
      checkAnswers(Q.Forms, Oracle, A, C, What);
      FirstAnswers = std::move(A);
      return;
    }
    C.expect(R.size() == FirstAnswers.size(), std::string(What) + ": size");
    for (size_t I = 0; I != R.size() && I != FirstAnswers.size(); ++I) {
      const Answer &W = FirstAnswers[I];
      const bool Same = R[I].has_value() == W.Present &&
                        (!W.Present || (R[I]->Count == W.Count &&
                                        R[I]->CanonicalBytes == W.Rep));
      if (!Same) {
        C.expect(false, std::string(What) + ": answer " + std::to_string(I) +
                            " changed between batches");
        return;
      }
    }
  }

  /// The same queries split into their layers, one span per call. Run
  /// once with the tracer recording and once without, for the overhead.
  void traced() {
    const size_t N = std::min<size_t>(Queries, 3000);
    // Candidate bytes per (query, segment), fetched outside any span.
    const auto &Segs = Reader->set().segments();
    std::vector<std::vector<std::string_view>> Cand(N);
    {
      ExprContext Ctx;
      AlphaHasher<Hash128> H(Ctx, Reader->schema());
      DecodeScratch S;
      for (size_t I = 0; I != N; ++I) {
        const Expr *E = uniquifyBinders(Ctx, deserializeExpr(Ctx, Q.Blobs[I]).E);
        const Hash128 Hs = H.hashRoot(E);
        for (const auto &Seg : Segs)
          if (auto A = Seg->lookupHashed(Ctx, E, Hs, S))
            Cand[I].push_back(A->CanonicalBytes);
      }
    }
    Tracer Off(false);
    const uint64_t T0 = nowNs();
    decompose(Off, N, Cand);
    const uint64_t T1 = nowNs();
    decompose(T, N, Cand);
    const uint64_t T2 = nowNs();
    OverheadNs.push_back((double(T2 - T1) - double(T1 - T0)) / N);

    uint64_t V0 = nowNs();
    auto Opened = SegmentedIndex<Hash128>::open(Dir);
    OpenMs.push_back((nowNs() - V0) / 1e6);
    V0 = nowNs();
    const bool Ok = Opened.ok() && Opened.Reader->verify();
    DeepVerifyMs.push_back(Ok ? (nowNs() - V0) / 1e6 : 0);
  }

  void decompose(Tracer &Tr, size_t N,
                 const std::vector<std::vector<std::string_view>> &Cand) {
    const auto &Segs = Reader->set().segments();
    auto Ctx = std::make_unique<ExprContext>();
    AlphaHasher<Hash128> H(*Ctx, Reader->schema());
    std::vector<Hash128> One(1);
    std::vector<uint32_t> Counts;
    DecodeScratch Scratch;
    uint64_t Cands = 0;
    for (size_t I = 0; I != N; ++I) {
      if (I % ChunkExprs == 0) { // a fresh context per chunk, as lookupBatch does
        Ctx = std::make_unique<ExprContext>();
        H.rebind(*Ctx);
      }
      SpanScope Q0(Tr, Cat, "index.query", I);
      const Expr *E;
      {
        SpanScope S(Tr, Cat, "ast.decode", I);
        E = deserializeExpr(*Ctx, Q.Blobs[I]).E;
      }
      {
        SpanScope S(Tr, Cat, "ast.uniquify", I);
        E = uniquifyBinders(*Ctx, E);
      }
      {
        SpanScope S(Tr, Cat, "core.hash", I);
        One[0] = H.hashRoot(E);
      }
      for (const auto &Seg : Segs) {
        SpanScope S(Tr, Cat, "index.probe", I);
        Seg->probeHashCounts(One, Counts);
        Cands += Counts[0];
      }
      for (std::string_view B : Cand[I]) {
        SpanScope S(Tr, Cat, "index.verify", I);
        const Expr *CE = Scratch.decode(B);
        Equivalent += CE && alphaEquivalent(*Ctx, E, Scratch.context(), CE);
      }
    }
    if (Tr.enabled())
      Candidates += Cands;
  }

  const RunOptions &O;
  Tracer &T;
  std::string Dir;
  size_t Base, Delta, Queries;
  size_t Slice; ///< Queries per one-thread timing sample; divides Queries.
  Multiset Oracle;
  Corpus Q;
  std::unique_ptr<SegmentedIndex<Hash128>> Reader;
  std::vector<Answer> FirstAnswers;
  std::vector<double> Qps1, QpsMt, LookupNs, VerifiesPerHit, OpenMs,
      DeepVerifyMs, OverheadNs;
  uint64_t Candidates = 0;
  uint64_t Equivalent = 0; ///< Keeps the verify calls observable.
};

} // namespace

std::unique_ptr<Phase> makeQueryPhase(const RunOptions &O, bool Full, Tracer &T) {
  return std::make_unique<QueryPhase>(O, Full, T);
}

} // namespace pb
