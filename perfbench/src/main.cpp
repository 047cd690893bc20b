//===- perfbench/src/main.cpp - Benchmark driver ----------------------------===//
///
/// \file
/// perfbench --workload W --seed N --seconds S --trace 0|1 --hma PATH
/// perfbench --self-test --hma PATH
///
/// Runs every phase (the one named by W at full size), in rounds, until
/// S seconds have passed, checks the program's answers, and prints one
/// JSON line: end-to-end metrics with --trace 0, per-layer metrics with
/// --trace 1 (plus a Chrome trace and a self-time table under the work
/// directory). The first round is an untimed warm-up that checks every
/// answer; at least one timed round follows it. --self-test feeds each
/// check a deliberately wrong answer of every kind and exits 0 only if
/// every one is reported incorrect.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Phases.h"

#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "eqclass/EquivClasses.h"
#include "index/AlphaHashIndex.h"

#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

namespace pb {

uint64_t dirBytes(const std::string &Dir) {
  uint64_t N = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      struct stat St;
      if (::stat((Dir + "/" + E->d_name).c_str(), &St) == 0 && S_ISREG(St.st_mode))
        N += static_cast<uint64_t>(St.st_size);
    }
    ::closedir(D);
  }
  return N;
}

void removeTree(const std::string &Path) {
  struct stat St;
  if (::lstat(Path.c_str(), &St) != 0)
    return;
  if (S_ISDIR(St.st_mode)) {
    if (DIR *D = ::opendir(Path.c_str())) {
      std::vector<std::string> Names;
      while (dirent *E = ::readdir(D))
        if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
          Names.push_back(E->d_name);
      ::closedir(D);
      for (const std::string &N : Names)
        removeTree(Path + "/" + N);
    }
    ::rmdir(Path.c_str());
  } else {
    ::unlink(Path.c_str());
  }
}

double Tracer::meanNs(const char *Cat, const char *Name, uint64_t *Count) const {
  uint64_t N = 0;
  double Sum = 0;
  for (const Span &S : Spans)
    if (!std::strcmp(S.Cat, Cat) && !std::strcmp(S.Name, Name)) {
      ++N;
      Sum += double(S.End - S.Start);
    }
  if (Count)
    *Count = N;
  return N ? Sum / N : 0;
}

std::string Tracer::selfTimeTable() const {
  std::vector<uint64_t> Child(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Child[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  struct Row {
    uint64_t Count = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Row &R = Rows[std::string(Spans[I].Cat) + "/" + Spans[I].Name];
    const double D = double(Spans[I].End - Spans[I].Start);
    ++R.Count;
    R.Total += D;
    R.Self += D - double(Child[I]);
  }
  std::ostringstream Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line), "%-28s %10s %14s %14s\n", "span", "count",
                "mean_ns", "self_mean_ns");
  Out << Line;
  for (const auto &[Name, R] : Rows) {
    std::snprintf(Line, sizeof(Line), "%-28s %10llu %14.1f %14.1f\n", Name.c_str(),
                  static_cast<unsigned long long>(R.Count), R.Total / R.Count,
                  R.Self / R.Count);
    Out << Line;
  }
  return Out.str();
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  Out << "{\"traceEvents\":[";
  char Buf[320];
  // Only the first MaxEvents spans go to the file, to keep it small;
  // the self-time table covers every span.
  constexpr size_t MaxEvents = 5000;
  for (size_t I = 0; I != Spans.size() && I != MaxEvents; ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"id\":%zu,\"parent\":%lld}}",
                  I ? ",\n" : "\n", S.Name, S.Cat, (S.Start - Base) / 1e3,
                  (S.End - S.Start) / 1e3, static_cast<unsigned long long>(S.Op), I,
                  static_cast<long long>(S.Parent));
    Out << Buf;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

namespace {

const char *const Workloads[] = {"query-mapped", "ingest-append", "daemon-rpc",
                                 "subexpr-hash"};

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed, const MetricSink &M) {
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool FirstM = true;
  char Num[64];
  for (const auto &[Name, V] : M.Values) {
    std::snprintf(Num, sizeof(Num), "%.17g", V.V);
    J += (FirstM ? "\"" : ", \"") + Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + V.Unit + "\"}";
    FirstM = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

int run(RunOptions &O) {
  const uint64_t Start = nowNs();
  int WorkIdx = -1;
  for (int I = 0; I != 4; ++I)
    if (O.Workload == Workloads[I])
      WorkIdx = I;
  if (WorkIdx < 0) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }
  Tracer T(O.Trace);
  Checker C;
  // The workload's own phase first: it reports first, so a per-layer
  // metric several phases can give comes from the workload's phase.
  std::vector<std::unique_ptr<Phase>> Phases;
  using MakeFn = std::unique_ptr<Phase> (*)(const RunOptions &, bool, Tracer &);
  const MakeFn Make[] = {makeQueryPhase, makeIngestPhase, makeDaemonPhase,
                         makeSubexprPhase};
  Phases.push_back(Make[WorkIdx](O, true, T));
  for (int I = 0; I != 4; ++I)
    if (I != WorkIdx)
      Phases.push_back(Make[I](O, false, T));

  std::string SetupSplit;
  for (auto &P : Phases) {
    const uint64_t T0 = nowNs();
    P->setup(C);
    SetupSplit += " " + std::to_string((nowNs() - T0) / 1e9);
  }
  const double SetupS = (nowNs() - Start) / 1e9;
  std::fprintf(stderr, "perfbench: setup %.4f s, per phase%s\n", SetupS, SetupSplit.c_str());

  const uint64_t Measure = nowNs();
  uint64_t Rounds = 0;
  do {
    for (auto &P : Phases)
      P->round(C, Rounds == 0);
    ++Rounds;
  } while (Rounds < 2 || (nowNs() - Measure) / 1e9 < O.Seconds);

  for (auto &P : Phases)
    P->finish(C);
  MetricSink E2E, Layer;
  E2E.set("setup_s", SetupS, "s");
  uint64_t Attempted = 0, Failed = 0;
  for (auto &P : Phases) {
    P->report(E2E, Layer);
    Attempted += Rounds * P->opsPerRound();
    Failed += P->failed();
  }
  for (auto &P : Phases)
    P->teardown();

  std::fprintf(stderr, "perfbench: %s seed %llu: %llu rounds, %llu checks, %s\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               static_cast<unsigned long long>(Rounds),
               static_cast<unsigned long long>(C.checks()),
               C.correct() ? "all correct" : "INCORRECT");
  for (const std::string &M : C.messages())
    std::fprintf(stderr, "  check failed: %s\n", M.c_str());
  if (O.Trace) {
    const std::string Base = O.WorkDir + "/../trace-" + O.Workload + "-" +
                             std::to_string(O.Seed);
    T.writeChromeJson(Base + ".json");
    const std::string Table = T.selfTimeTable();
    std::ofstream(Base + "-layers.txt") << Table;
    std::fprintf(stderr, "%s", Table.c_str());
  }
  printJson(C.correct(), Attempted, Failed, O.Trace ? Layer : E2E);
  return 0;
}

/// Each kind of wrong answer must be reported incorrect; the true
/// answers must pass.
int selfTest() {
  int Bad = 0;
  auto Expect = [&](const char *What, const Checker &C, bool WantCorrect) {
    const bool Ok = C.correct() == WantCorrect;
    std::printf("%-44s %s (%s)\n", What, WantCorrect ? "passes" : "rejected",
                Ok ? "ok" : "WRONG");
    Bad += !Ok;
  };

  // A small live index and its answers.
  Rng R(7);
  std::vector<TermSpec> Specs;
  std::vector<uint64_t> Classes;
  for (int I = 0; I != 400; ++I)
    addSpec(Specs, Classes, R, I % 2);
  Corpus Stored, Q;
  generateCorpus(Specs, 12, 40, 1, Stored);
  Multiset M;
  for (const std::string &F : Stored.Forms)
    ++M[F];
  AlphaHashIndex<Hash128> Ix;
  Ix.insertBatch(Stored.Blobs, 1);
  Specs.clear();
  for (int I = 0; I != 60; ++I)
    Specs.push_back({I % 3 ? Classes[R.below(Classes.size())] : R.next(), R.next(), 'z'});
  generateCorpus(Specs, 12, 40, 1, Q);
  const auto Res = Ix.lookupBatch(Q.Blobs, 1);
  std::vector<Answer> Truth(Res.size());
  size_t Hit = Res.size(), Hit2 = Res.size();
  for (size_t I = 0; I != Res.size(); ++I)
    if (Res[I]) {
      Truth[I] = Answer{true, Res[I]->Count, Res[I]->CanonicalBytes};
      if (Hit == Res.size())
        Hit = I;
      else if (Hit2 == Res.size() && Q.Forms[I] != Q.Forms[Hit])
        Hit2 = I;
    }
  if (Hit2 == Res.size()) {
    std::printf("self-test inputs have too few hits\n");
    return 1;
  }
  {
    Checker C;
    checkAnswers(Q.Forms, M, Truth, C, "truth");
    Expect("lookup answers as given", C, true);
  }
  {
    auto A = Truth;
    A[Hit].Present = false;
    Checker C;
    checkAnswers(Q.Forms, M, A, C, "flip");
    Expect("flipped present bit", C, false);
  }
  {
    auto A = Truth;
    A[Hit].Count += 1;
    Checker C;
    checkAnswers(Q.Forms, M, A, C, "count");
    Expect("count off by one", C, false);
  }
  {
    auto A = Truth;
    A[Hit].Rep = Truth[Hit2].Rep;
    Checker C;
    checkAnswers(Q.Forms, M, A, C, "rep");
    Expect("representative from another class", C, false);
  }
  {
    const auto Snap = Ix.snapshot();
    std::vector<std::pair<std::string_view, uint64_t>> Table;
    for (const auto &S : Snap)
      Table.emplace_back(S.CanonicalBytes, S.Count);
    Checker C;
    checkClassTable(Table, M, C, "table");
    Expect("class table as given", C, true);
    Table[0].second += 1;
    Checker C2;
    checkClassTable(Table, M, C2, "table");
    Expect("class table count off by one", C2, false);
  }
  {
    // One merged class in subexpr-hash.
    ExprContext Ctx;
    Rng SR(11);
    const Spelling Sp = Spelling::random("x", BalancedSlots, SR);
    const Expr *Root = genBalanced(Ctx, 11, 4096, Sp);
    const std::vector<uint32_t> Want = oracleSubtreePartition(Ctx, Root);
    const Expr *U = uniquifyBinders(Ctx, Root);
    AlphaHasher<Hash128> H(Ctx);
    std::vector<Hash128> Hashes;
    H.hashAllInto(U, Hashes);
    std::vector<uint32_t> Got = partitionIds(U, Hashes);
    Checker C;
    checkPartition(Want, Got, C, "partition");
    Expect("subexpression partition as given", C, true);
    const uint32_t A = Got[0];
    uint32_t B = A;
    for (uint32_t L : Got)
      if (L != A)
        B = L;
    for (uint32_t &L : Got)
      if (L == B)
        L = A;
    Checker C2;
    checkPartition(Want, Got, C2, "partition");
    Expect("one merged subexpression class", C2, false);
  }
  std::printf("self-test: %s\n", Bad ? "FAILED" : "every injected wrong answer was rejected");
  return Bad ? 1 : 0;
}

} // namespace
} // namespace pb

int main(int Argc, char **Argv) {
  pb::RunOptions O;
  bool SelfTest = false;
  O.WorkDir = ".bench_out/run-" + std::to_string(::getpid());
  for (int I = 1; I < Argc; ++I) {
    auto Arg = [&](const char *Flag) {
      return !std::strcmp(Argv[I], Flag) && I + 1 < Argc;
    };
    if (Arg("--workload"))
      O.Workload = Argv[++I];
    else if (Arg("--seed"))
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg("--seconds"))
      O.Seconds = std::strtod(Argv[++I], nullptr);
    else if (Arg("--trace"))
      O.Trace = std::strcmp(Argv[++I], "0") != 0;
    else if (Arg("--hma"))
      O.HmaPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--self-test"))
      SelfTest = true;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Argv[I]);
      return 2;
    }
  }
  if (SelfTest)
    return pb::selfTest();
  const long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  O.Threads = N > 0 ? static_cast<unsigned>(N) : 1;
  ::mkdir(".bench_out", 0777);
  ::mkdir(O.WorkDir.c_str(), 0777);
  const int Rc = pb::run(O);
  pb::removeTree(O.WorkDir);
  return Rc;
}
