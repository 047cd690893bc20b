//===- perfbench/src/DaemonPhase.cpp - daemon-rpc --------------------------===//
///
/// \file
/// The real `hma indexd` binary, 2 workers, over its Unix socket. The
/// index is small enough to stay in cache, so a request's cost is the
/// frame codec, the socket, the poll loop and the per-item answer loop.
/// Per round:
///  - single `Lookup` requests on an open-loop schedule at two fixed
///    offered rates on one connection (a sender thread and a receiver
///    thread), latency timed from each request's due time;
///  - closed-loop `LookupBatch` requests of a fixed moderate size on one
///    connection;
///  - in the full-size phase, a fixed handful of `LookupBatch` requests
///    of 2000 queries, each frame sent in two writes on its own
///    connection, the second once the daemon has read the first. These
///    fail today (see README.md, F1) and are counted as failed
///    operations; their queries do not depend on the seed.
/// The warm-up round checks every answer against the oracle; every later
/// answer to the same query must repeat the first one exactly.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Phases.h"

#include "index/SegmentCompactor.h"
#include "serve/Client.h"
#include "serve/Protocol.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <linux/sockios.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <time.h>
#include <unistd.h>

using namespace hma;
using namespace hma::serve;

namespace pb {
namespace {

constexpr uint32_t MinSize = 12, MaxSize = 40;
constexpr double LowRps = 2000, HighRps = 12000;
constexpr size_t BatchSize = 100;
constexpr size_t F1Batches = 3, F1Queries = 2000;

/// A blocking Unix-socket connection speaking raw frames.
class RawConn {
public:
  ~RawConn() { close(); }
  bool open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    std::strncpy(A.sun_path, Path.c_str(), sizeof(A.sun_path) - 1);
    // A stuck daemon fails the run instead of hanging it.
    const timeval Limit{10, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Limit, sizeof(Limit));
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Limit, sizeof(Limit));
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  bool send(std::string_view B) {
    while (!B.empty()) {
      const ssize_t N = ::send(Fd, B.data(), B.size(), MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      B.remove_prefix(static_cast<size_t>(N));
    }
    return true;
  }
  bool recvExact(char *P, size_t N) {
    while (N) {
      const ssize_t R = ::recv(Fd, P, N, 0);
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        return false;
      P += R;
      N -= static_cast<size_t>(R);
    }
    return true;
  }
  /// Wait (up to \p Ms) until the peer has read everything we sent.
  void waitDrained(int Ms) {
    for (int I = 0; I != Ms * 10; ++I) {
      int Queued = 0;
      if (::ioctl(Fd, SIOCOUTQ, &Queued) != 0 || Queued == 0)
        return;
      ::usleep(100);
    }
  }
  /// One reply frame: status byte and body.
  bool recvFrame(Status &S, std::string &Body) {
    char H[4];
    if (!recvExact(H, 4))
      return false;
    const uint64_t Len = iio::getWordLE(H, 4);
    if (Len < 2 || Len > FrameBytesCeiling)
      return false;
    Body.resize(static_cast<size_t>(Len));
    if (!recvExact(Body.data(), Body.size()))
      return false;
    S = static_cast<Status>(Body[1]);
    Body.erase(0, 2);
    return true;
  }

private:
  int Fd = -1;
};

/// Sleep, then spin the last stretch, until \p Due. The spin yields:
/// a sender spinning without yielding holds a CPU the daemon's workers
/// need, and on a box short of CPU time they queue behind it (with three
/// CPU-bound processes beside a run, the median latency at 12000/s went
/// from 46 to 634 µs; with the yield it stayed at 40 µs).
void waitUntil(uint64_t Due) {
  for (;;) {
    const uint64_t Now = nowNs();
    if (Now >= Due)
      return;
    if (Due - Now > 200000) {
      timespec Ts{0, static_cast<long>(Due - Now - 100000)};
      nanosleep(&Ts, nullptr);
    } else {
      sched_yield();
    }
  }
}

/// Pull `"Name": <number>` (a counter) or `"Name": {"count": C, "sum": S`
/// (a histogram) out of the daemon's stats JSON.
double jsonNumber(const std::string &J, const std::string &Key, const char *Field = nullptr) {
  size_t P = J.find("\"" + Key + "\"");
  if (P == std::string::npos)
    return 0;
  P += Key.size() + 2;
  if (Field) {
    P = J.find(std::string("\"") + Field + "\"", P);
    if (P == std::string::npos)
      return 0;
    P += std::strlen(Field) + 2;
  }
  P = J.find(':', P);
  return P == std::string::npos ? 0 : std::strtod(J.c_str() + P + 1, nullptr);
}

class DaemonPhase : public Phase {
public:
  DaemonPhase(const RunOptions &O, bool Full, Tracer &T)
      : O(O), T(T), Full(Full), Dir(O.WorkDir + "/daemon"),
        Sock(O.WorkDir + "/d.sock"), LowN(Full ? 1000 : 200),
        HighN(Full ? 6000 : 1200), Batches(Full ? 30 : 8) {}

  void setup(Checker &C) override {
    Rng R(subSeed(O.Seed, 5));
    std::vector<TermSpec> Specs;
    std::vector<uint64_t> Classes;
    for (size_t I = 0; I != 3000; ++I)
      addSpec(Specs, Classes, R, !Classes.empty() && R.below(2) == 0);
    Corpus Stored;
    generateCorpus(Specs, MinSize, MaxSize, O.Threads, Stored);
    for (const std::string &F : Stored.Forms)
      ++Oracle[F];
    AlphaHashIndex<Hash128> Ix;
    Ix.insertBatch(Stored.Blobs, O.Threads);
    C.expect(Ix.stats().VerifiedCollisions == 0, "daemon: fixture verified collisions");
    removeTree(Dir);
    NoSyncEnv Fixture;
    SegmentAppendOptions AO;
    AO.Env = &Fixture;
    SegmentAppendResult Made = createSegmentDir(Dir, Ix, AO);
    C.expect(Made.Ok, "daemon: createSegmentDir: " + Made.Error);

    Specs.clear();
    for (size_t I = 0; I != 2000; ++I)
      Specs.push_back({I % 2 ? R.next() : Classes[R.below(Classes.size())], R.next(), 'z'});
    generateCorpus(Specs, MinSize, MaxSize, O.Threads, Q);
    Known.resize(Q.Blobs.size());
    for (const std::string &B : Q.Blobs)
      Frames.push_back(encodeRequest(Op::Lookup, B));

    if (Full) {
      // Seed-independent: the same frames on every run.
      Rng F1(0xF1);
      Specs.clear();
      for (size_t I = 0; I != F1Queries; ++I)
        Specs.push_back({F1.next(), F1.next(), 'z'});
      generateCorpus(Specs, MinSize, MaxSize, O.Threads, F1Q);
      F1Frame = encodeRequest(Op::LookupBatch, encodeBatchRequest(F1Q.Blobs));
    }

    start(C);
  }

  void round(Checker &C, bool First) override {
    if (Pid <= 0)
      return;
    const bool Traced = T.enabled() && !First;
    const std::string S0 = Traced ? stats() : std::string();
    openLoop(LowRps, LowN, LatLow, RpsLow, C, First);
    if (Traced) {
      const std::string S1 = stats();
      const double Reqs = jsonNumber(S1, "hma_indexd_request_ns", "count") -
                          jsonNumber(S0, "hma_indexd_request_ns", "count");
      const double Ns = jsonNumber(S1, "hma_indexd_request_ns", "sum") -
                        jsonNumber(S0, "hma_indexd_request_ns", "sum");
      const double Bytes =
          jsonNumber(S1, "hma_indexd_bytes_read_total") - jsonNumber(S0, "hma_indexd_bytes_read_total") +
          jsonNumber(S1, "hma_indexd_bytes_written_total") - jsonNumber(S0, "hma_indexd_bytes_written_total");
      if (Reqs > 0) {
        ServerUs.push_back(Ns / Reqs / 1e3);
        BytesPerReq.push_back(Bytes / Reqs);
      }
    }
    openLoop(HighRps, HighN, LatHigh, RpsHigh, C, First);
    closedLoop(C, First);
    if (Full)
      f1(C);
    if (Traced)
      codec();
  }

  uint64_t opsPerRound() const override {
    return LowN + HighN + Batches + (Full ? F1Batches : 0);
  }
  uint64_t failed() const override { return Failed; }

  void finish(Checker &C) override {
    if (Pid <= 0)
      return;
    const std::string S = stats();
    C.expect(S.find("\"verified_collisions\"") != std::string::npos &&
                 jsonNumber(S, "verified_collisions") == 0,
             "daemon: verified collisions in ctl stats");
  }

  void report(MetricSink &E, MetricSink &L) override {
    E.set("rpc_batch_qps", BatchSize / median(BatchSecs), "queries/s");
    E.set("daemon_rss_mb", rssMb(), "MiB");
    if (!T.enabled())
      return;
    double Mean = 0;
    for (double V : LatLow)
      Mean += V;
    Mean = LatLow.empty() ? 0 : Mean / LatLow.size();
    // Open-loop latencies do not repeat from run to run on a shared
    // 4-core VM (a busy minute of the host turns a 45 µs median at
    // 12000/s into milliseconds of backlog), so they are reported here,
    // without a bound.
    L.offer("rpc_p50_us_low", percentile(LatLow, 0.5), "us");
    L.offer("rpc_p50_us_high", percentile(LatHigh, 0.5), "us");
    L.offer("rpc_p99_us_low", percentile(LatLow, 0.99), "us");
    L.offer("rpc_p99_us_high", percentile(LatHigh, 0.99), "us");
    L.offer("serve.encode_ns", median(EncodeNs), "ns");
    L.offer("serve.decode_ns", median(DecodeNs), "ns");
    L.offer("serve.server_us", median(ServerUs), "us");
    L.offer("serve.transport_us", Mean - median(ServerUs), "us");
    L.offer("serve.bytes_per_request", median(BytesPerReq), "bytes");
    L.offer("serve.send_lateness_us", percentile(Lateness, 0.99), "us");
    L.offer("serve.achieved_rps_low", median(RpsLow), "1/s");
    L.offer("serve.achieved_rps_high", median(RpsHigh), "1/s");
  }

  void teardown() override {
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      int Status = 0;
      for (int I = 0; I != 500 && ::waitpid(Pid, &Status, WNOHANG) == 0; ++I)
        ::usleep(10000);
      if (::waitpid(Pid, &Status, WNOHANG) == 0) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
      }
      Pid = -1;
    }
    removeTree(Dir);
    ::unlink(Sock.c_str());
  }

private:
  void start(Checker &C) {
    const std::string Log = O.WorkDir + "/indexd.log";
    Pid = ::fork();
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 1);
        ::dup2(Fd, 2);
      }
      execl(O.HmaPath.c_str(), "hma", "indexd", Dir.c_str(), "--socket",
            Sock.c_str(), "--threads", "2", static_cast<char *>(nullptr));
      _exit(127);
    }
    // Poll for the socket every 100 µs, then ping (the client's own
    // connect backoff would add tens of ms of sleep to set-up time).
    bool Up = false;
    for (int I = 0; I != 100000 && !Up && Pid > 0; ++I) {
      RawConn Conn;
      Status S;
      std::string Body;
      Up = Conn.open(Sock) && Conn.send(encodeRequest(Op::Ping)) &&
           Conn.recvFrame(S, Body) && S == Status::Ok;
      if (!Up)
        ::usleep(100);
    }
    C.expect(Up, "daemon: hma indexd did not answer a ping");
    if (!Up)
      teardown();
  }

  std::string stats() {
    ClientOptions CO;
    CO.UnixSocketPath = Sock;
    Client Cl(CO);
    std::string Report;
    Cl.stats(StatsFormat::Json, Report, nullptr);
    return Report;
  }

  void openLoop(double Rps, size_t N, std::vector<double> &Lat,
                std::vector<double> &Achieved, Checker &C, bool First) {
    RawConn Conn;
    if (!Conn.open(Sock)) {
      Failed += N;
      C.expect(false, "daemon: connect");
      return;
    }
    std::vector<uint64_t> Due(N), Recv(N, 0);
    std::vector<Answer> Answers(N);
    std::vector<std::string> Reps(N);
    const uint64_t Interval = static_cast<uint64_t>(1e9 / Rps);
    const uint64_t Start = nowNs() + 2000000;
    for (size_t I = 0; I != N; ++I)
      Due[I] = Start + I * Interval;
    size_t Got = 0;
    std::thread Receiver([&] {
      std::string Body;
      Status S;
      for (; Got != N; ++Got) {
        if (!Conn.recvFrame(S, Body))
          return;
        Recv[Got] = nowNs();
        std::string_view In(Body);
        WireLookup W;
        if (S != Status::Ok || !takeWireLookup(In, W))
          return;
        Answers[Got] = Answer{W.Present, W.Count, {}};
        Reps[Got] = std::move(W.CanonicalBytes);
      }
    });
    std::vector<uint64_t> Sent(N, 0);
    for (size_t I = 0; I != N; ++I) {
      waitUntil(Due[I]);
      Sent[I] = nowNs();
      if (!Conn.send(Frames[I % Frames.size()]))
        break;
    }
    Receiver.join();
    Failed += N - Got;
    C.expect(Got == N, "daemon: open-loop replies missing");
    if (!First) {
      for (size_t I = 0; I != Got; ++I) {
        Lat.push_back((Recv[I] - Due[I]) / 1e3);
        Lateness.push_back((Sent[I] - Due[I]) / 1e3);
      }
      if (Got)
        Achieved.push_back(Got / ((Recv[Got - 1] - Due[0]) / 1e9));
    }
    for (size_t I = 0; I != Got; ++I)
      Answers[I].Rep = Reps[I];
    if (First && Got == N) {
      std::vector<std::string> Forms(N);
      for (size_t I = 0; I != N; ++I)
        Forms[I] = Q.Forms[I % Q.Forms.size()];
      checkAnswers(Forms, Oracle, Answers, C, "daemon: Lookup");
    }
    for (size_t I = 0; I != Got; ++I)
      same(I % Q.Blobs.size(), Answers[I], C, "daemon: Lookup");
  }

  /// Every answer for query \p QI repeats the first one the daemon gave
  /// for it (which the warm-up round checked against the oracle).
  void same(size_t QI, const Answer &A, Checker &C, const char *What) {
    KnownAnswer &K = Known[QI];
    if (!K.Seen) {
      K = KnownAnswer{true, A.Present, A.Count, std::string(A.Rep)};
      return;
    }
    if (A.Present != K.Present || A.Count != K.Count || A.Rep != K.Rep)
      C.expect(false, std::string(What) + ": answer to query " + std::to_string(QI) +
                          " changed between requests");
  }

  void closedLoop(Checker &C, bool First) {
    ClientOptions CO;
    CO.UnixSocketPath = Sock;
    Client Cl(CO);
    std::vector<std::string> Batch;
    std::vector<std::string> Forms;
    std::vector<WireLookup> Out;
    for (size_t B = 0; B != Batches; ++B) {
      Batch.clear();
      for (size_t I = 0; I != BatchSize; ++I)
        Batch.push_back(Q.Blobs[(B * BatchSize + I) % Q.Blobs.size()]);
      const uint64_t T0 = nowNs();
      if (!Cl.lookupBatch(Batch, Out, nullptr) || Out.size() != BatchSize) {
        ++Failed;
        C.expect(false, "daemon: LookupBatch failed");
        continue;
      }
      if (!First)
        BatchSecs.push_back((nowNs() - T0) / 1e9);
      std::vector<Answer> A;
      for (size_t I = 0; I != BatchSize; ++I)
        A.push_back(Answer{Out[I].Present, Out[I].Count, Out[I].CanonicalBytes});
      if (First) {
        Forms.clear();
        for (size_t I = 0; I != BatchSize; ++I)
          Forms.push_back(Q.Forms[(B * BatchSize + I) % Q.Forms.size()]);
        checkAnswers(Forms, Oracle, A, C, "daemon: LookupBatch");
      }
      for (size_t I = 0; I != BatchSize; ++I)
        same((B * BatchSize + I) % Q.Blobs.size(), A[I], C, "daemon: LookupBatch");
    }
  }

  /// F1: a large batch frame delivered over two reads.
  void f1(Checker &C) {
    for (size_t K = 0; K != F1Batches; ++K) {
      RawConn Conn;
      Status S = Status::Internal;
      std::string Body;
      const size_t Half = F1Frame.size() / 2;
      bool Ok = Conn.open(Sock) && Conn.send(std::string_view(F1Frame).substr(0, Half));
      if (Ok) {
        // Send the rest only once the daemon has read the first half, so
        // the frame arrives over two reads on a loaded box too.
        Conn.waitDrained(2000);
        Ok = Conn.send(std::string_view(F1Frame).substr(Half)) &&
             Conn.recvFrame(S, Body) && S == Status::Ok;
      }
      std::vector<WireLookup> Out;
      if (!Ok || !parseBatchResponse(Body, Out)) {
        ++Failed;
        continue;
      }
      std::vector<Answer> A;
      for (const WireLookup &W : Out)
        A.push_back(Answer{W.Present, W.Count, W.CanonicalBytes});
      checkAnswers(F1Q.Forms, Oracle, A, C, "daemon: large LookupBatch");
    }
  }

  /// Request encode and reply parse, timed from outside.
  void codec() {
    const size_t N = Q.Blobs.size();
    uint64_t T0 = nowNs();
    size_t Sink = 0;
    for (size_t I = 0; I != N; ++I)
      Sink += encodeRequest(Op::Lookup, Q.Blobs[I]).size();
    EncodeNs.push_back(double(nowNs() - T0) / N);
    std::vector<std::string> Replies;
    for (size_t I = 0; I != N; ++I) {
      WireLookup W{I % 2 == 0, Hash128(1, I), 1, Q.Blobs[I]};
      std::string R;
      appendWireLookup(R, W);
      Replies.push_back(std::move(R));
    }
    T0 = nowNs();
    for (const std::string &R : Replies) {
      std::string_view In(R);
      WireLookup W;
      Sink += takeWireLookup(In, W);
    }
    DecodeNs.push_back(double(nowNs() - T0) / N);
    CodecSink += Sink;
  }

  double rssMb() const {
    if (Pid <= 0)
      return 0;
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024;
    return 0;
  }

  const RunOptions &O;
  Tracer &T;
  bool Full;
  std::string Dir, Sock;
  size_t LowN, HighN, Batches;
  Multiset Oracle;
  Corpus Q, F1Q;
  std::vector<std::string> Frames;
  struct KnownAnswer {
    bool Seen = false;
    bool Present = false;
    uint64_t Count = 0;
    std::string Rep;
  };
  std::vector<KnownAnswer> Known; ///< Per query in Q: its first answer.
  std::string F1Frame;
  pid_t Pid = -1;
  uint64_t Failed = 0;
  uint64_t CodecSink = 0; ///< Keeps the codec loops observable.
  std::vector<double> LatLow, LatHigh, RpsLow, RpsHigh, BatchSecs, Lateness,
      ServerUs, BytesPerReq, EncodeNs, DecodeNs;
};

} // namespace

std::unique_ptr<Phase> makeDaemonPhase(const RunOptions &O, bool Full, Tracer &T) {
  return std::make_unique<DaemonPhase>(O, Full, T);
}

} // namespace pb
