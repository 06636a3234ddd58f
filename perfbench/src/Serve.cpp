//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
///
/// \file
/// An in-process runtime::Server on a Unix socket, driven over the
/// efc-serve wire protocol by a single-threaded ppoll() client.  The
/// client holds nproc connections (nproc-1 interactive, one bulk) that
/// multiplex a few thousand sessions of the digit-echo spec.
///
/// The load is open loop: interactive connections send 512 B feeds on a
/// fixed schedule, and the bulk connection sends 64 KB feeds on its own
/// schedule.  Latency is timed from when a frame was due.
///
/// Each session's stream is generated once as whole rows and cut into
/// frames; every reply is checked against a digit-run-to-lines reference
/// of the bytes sent.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Layers.h"

#include "pipeline/PassManager.h"
#include "runtime/PipelineCache.h"
#include "runtime/Server.h"
#include "runtime/StreamSession.h"
#include "support/Stopwatch.h"

#include <cerrno>
#include <cstring>
#include <deque>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace efc;
using namespace efc::runtime;

namespace perfbench {
namespace {

constexpr size_t SmallFrame = 512;
constexpr size_t BulkFrame = 64u << 10;
constexpr unsigned SessionsPerConn = 1000;
constexpr unsigned BulkSessions = 4;
/// Offered load: 512 B feeds per second over all interactive connections,
/// under a fifth of their capacity with every connection keeping 16 feeds
/// in flight on a 4-core Xeon (3 shards, ~28 000 frames/s), so the server
/// stays out of saturation when a shared host runs at half speed.  Fixed,
/// so two builds are compared at the same offered load; a 20 s run gives
/// 100 000 latency samples, so p99 has a thousand beyond it.
constexpr double InteractiveRate = 5000;
/// 64 KB feeds per second (1.3 MB/s).  Each takes a shard about 10 ms, and
/// shares that shard with an interactive connection.
constexpr double BulkRate = 20;
constexpr unsigned SampleEvery = 64; ///< frames per traced send->reply span
constexpr double TraceWindowS = 0.5; ///< spans on/off alternation period

struct Session {
  std::string Name;
  SplitMix64 Rng{0};
  std::string Unsent;   ///< generated rows not yet cut into frames
  DigitLinesRef Ref;
  std::string Expected; ///< reference output not yet matched by replies
  bool Failed = false;
};

enum class Phase { Idle, Open };

struct Pending {
  uint32_t Sess = 0;
  char Op = 'F';
  Phase Ph = Phase::Idle; ///< phase the frame was sent in
  Clock::time_point Due;
  uint64_t Req = 0; ///< span request id, 0 when not sampled
  bool TraceOn = false;
};

struct Conn {
  int Fd = -1;
  bool Bulk = false;
  std::vector<uint32_t> Members;
  size_t NextMember = 0;
  std::string Out;
  size_t OutOff = 0;
  std::string In;
  std::deque<Pending> Pend;
  double Interval = 0; ///< open-loop seconds between frames
  Clock::time_point NextDue;
  std::string LastBody; ///< body of the last 'M'/'S' reply
};

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

double cpuSecondsThisThread() {
  rusage U{};
  getrusage(RUSAGE_THREAD, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

class Load {
public:
  Load(const Config &C, Result &R) : Cfg(C), Res(R) {}
  ~Load() { shutdown(); }
  Load(const Load &) = delete;
  Load &operator=(const Load &) = delete;

  bool start(std::string &Err);
  void shutdown();
  /// Opens every session; false on any failed open.
  bool openAll();
  bool openLoop(double Seconds);
  bool finishAll();
  /// Sends 'M' on the bulk connection and returns the reply's text.
  std::optional<PromSnapshot> scrape();

  std::vector<double> FeedLatMs, FeedLatOnMs, FeedLatOffMs, BulkRttMs,
      LateMs;
  int64_t QueueDepthMax = 0;
  double BytesSent = 0; ///< feed payload bytes

private:
  void queueFrame(Conn &C, Pending P, std::string_view Payload);
  void queueFeed(Conn &C, Clock::time_point Due);
  bool pumpWrite(Conn &C);
  bool pumpRead(Conn &C);
  void handleReply(Conn &C, std::string_view F);
  /// Polls until every pending reply arrived (deadline \p Seconds).
  bool drain(double Seconds);
  bool pollOnce(Clock::time_point WakeBy);

  const Config &Cfg;
  Result &Res;
  std::unique_ptr<Server> Srv;
  std::vector<Conn> Conns;
  std::vector<Session> Sessions;
  Phase M = Phase::Idle;
  Clock::time_point PhaseEnd, TraceEpoch;
  uint64_t Frames = 0;
};

bool Load::start(std::string &Err) {
  ServerOptions O;
  // Relative to the run's work dir (the cwd, see runServe): an absolute
  // path under a deep checkout could exceed sockaddr_un's 108 bytes.
  O.SocketPath = "s.sock";
  O.Shards = std::max(1u, Cfg.Nproc - 1);
  Srv = std::make_unique<Server>(O);
  if (!Srv->start(&Err))
    return false;
  unsigned Interactive = std::max(1u, Cfg.Nproc - 1);
  Conns.resize(Interactive + 1);
  Sessions.clear();
  for (size_t I = 0; I < Conns.size(); ++I) {
    Conn &C = Conns[I];
    C.Bulk = I == Interactive;
    C.Fd = connectUnix(O.SocketPath);
    if (C.Fd < 0) {
      Err = "connect " + O.SocketPath + ": " + strerror(errno);
      return false;
    }
    unsigned N = C.Bulk ? BulkSessions : SessionsPerConn;
    for (unsigned J = 0; J < N; ++J) {
      Session S;
      uint32_t Id = uint32_t(Sessions.size());
      S.Name = "s";
      S.Name += std::to_string(Id);
      S.Rng = SplitMix64(Cfg.Seed * 0x9e3779b97f4a7c15ull + Id);
      C.Members.push_back(Id);
      Sessions.push_back(std::move(S));
    }
  }
  return true;
}

void Load::shutdown() {
  for (Conn &C : Conns)
    if (C.Fd >= 0) {
      ::close(C.Fd);
      C.Fd = -1;
    }
  Conns.clear();
  if (Srv) {
    Srv->stop();
    Srv.reset();
  }
}

void Load::queueFrame(Conn &C, Pending P, std::string_view Payload) {
  uint32_t N = uint32_t(Payload.size());
  char Len[4] = {char(N & 0xFF), char((N >> 8) & 0xFF),
                 char((N >> 16) & 0xFF), char((N >> 24) & 0xFF)};
  C.Out.append(Len, 4);
  C.Out.append(Payload.data(), Payload.size());
  C.Pend.push_back(P);
  ++Res.Attempted;
}

/// Cuts the next frame of the next member session and queues it.
void Load::queueFeed(Conn &C, Clock::time_point Due) {
  uint32_t Id = C.Members[C.NextMember++ % C.Members.size()];
  Session &S = Sessions[Id];
  size_t Size = C.Bulk ? BulkFrame : SmallFrame;
  while (S.Unsent.size() < Size) {
    S.Unsent += std::to_string(S.Rng.below(100000000));
    S.Unsent += '\n';
  }
  std::string Payload = "F" + S.Name + "\n";
  Payload.append(S.Unsent, 0, Size);
  S.Ref.feed(S.Unsent.data(), Size, S.Expected);
  S.Unsent.erase(0, Size);
  BytesSent += double(Size);
  Pending P;
  P.Sess = Id;
  P.Op = 'F';
  P.Due = Due;
  P.Ph = M;
  if (Tracer::get().enabled()) {
    P.TraceOn = int(std::chrono::duration<double>(Due - TraceEpoch).count() /
                    TraceWindowS) %
                    2 ==
                0;
    if (P.TraceOn && ++Frames % SampleEvery == 0)
      P.Req = Frames;
  }
  queueFrame(C, P, Payload);
}

bool Load::pumpWrite(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    ssize_t W = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                       MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      if (errno == EINTR)
        continue;
      Res.Errors.push_back(std::string("send: ") + strerror(errno));
      return false;
    }
    C.OutOff += size_t(W);
  }
  C.Out.clear();
  C.OutOff = 0;
  return true;
}

void Load::handleReply(Conn &C, std::string_view F) {
  Clock::time_point Now = Clock::now();
  if (C.Pend.empty()) {
    Res.fail("unsolicited reply frame");
    return;
  }
  Pending P = C.Pend.front();
  C.Pend.pop_front();
  if (F.empty()) {
    Res.fail("empty reply frame");
    return;
  }
  char Status = F[0];
  size_t Nl = F.find('\n');
  std::string_view Name =
      F.substr(1, Nl == std::string_view::npos ? F.size() - 1 : Nl - 1);
  std::string_view Body =
      Nl == std::string_view::npos ? std::string_view() : F.substr(Nl + 1);
  if (P.Op == 'M') {
    C.LastBody = std::string(Body);
    return;
  }
  Session &S = Sessions[P.Sess];
  if (Status != 'k' || Name != S.Name) {
    Res.fail(std::string(1, P.Op) + " on " + S.Name + " failed: " +
             std::string(F.substr(0, 200)));
    S.Failed = true;
    return;
  }
  if (P.Op == 'F' || P.Op == 'E') {
    // Output may lag the reference (never lead it): the reply must be
    // the next unmatched stretch of the expected output.
    if (S.Expected.compare(0, Body.size(), Body) != 0) {
      if (!S.Failed)
        Res.fail(S.Name + ": reply differs from the digit-lines reference");
      S.Failed = true;
      return;
    }
    S.Expected.erase(0, Body.size());
    if (P.Op == 'E' && !S.Expected.empty() && !S.Failed) {
      Res.fail(S.Name + ": output ended before the reference did");
      S.Failed = true;
    }
  }
  if (P.Op != 'F')
    return;
  double Ms = std::chrono::duration<double, std::milli>(Now - P.Due).count();
  if (P.Req)
    Tracer::get().record("serve.frame", P.Req, P.Due, Now);
  if (P.Ph == Phase::Open) {
    if (C.Bulk) {
      BulkRttMs.push_back(Ms);
    } else {
      FeedLatMs.push_back(Ms);
      if (Tracer::get().enabled())
        (P.TraceOn ? FeedLatOnMs : FeedLatOffMs).push_back(Ms);
    }
  }
}

bool Load::pumpRead(Conn &C) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      if (errno == EINTR)
        continue;
      Res.Errors.push_back(std::string("recv: ") + strerror(errno));
      return false;
    }
    if (N == 0) {
      Res.Errors.push_back("server closed a connection");
      return false;
    }
    C.In.append(Buf, size_t(N));
  }
  size_t Off = 0;
  while (C.In.size() - Off >= 4) {
    const unsigned char *L =
        reinterpret_cast<const unsigned char *>(C.In.data() + Off);
    size_t Len = size_t(L[0]) | size_t(L[1]) << 8 | size_t(L[2]) << 16 |
                 size_t(L[3]) << 24;
    if (C.In.size() - Off - 4 < Len)
      break;
    handleReply(C, std::string_view(C.In).substr(Off + 4, Len));
    Off += 4 + Len;
  }
  C.In.erase(0, Off);
  return true;
}

bool Load::pollOnce(Clock::time_point WakeBy) {
  std::vector<pollfd> Pfds(Conns.size());
  for (size_t I = 0; I < Conns.size(); ++I) {
    short Ev = POLLIN;
    if (Conns[I].OutOff < Conns[I].Out.size())
      Ev |= POLLOUT;
    Pfds[I] = {Conns[I].Fd, Ev, 0};
  }
  auto Wait = std::max(Clock::duration(0), WakeBy - Clock::now());
  timespec Ts{};
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Wait).count();
  Ts.tv_sec = time_t(Ns / 1000000000);
  Ts.tv_nsec = long(Ns % 1000000000);
  int N = ::ppoll(Pfds.data(), nfds_t(Pfds.size()), &Ts, nullptr);
  if (N < 0 && errno != EINTR) {
    Res.Errors.push_back(std::string("ppoll: ") + strerror(errno));
    return false;
  }
  for (size_t I = 0; N > 0 && I < Conns.size(); ++I) {
    if (Pfds[I].revents & POLLOUT)
      if (!pumpWrite(Conns[I]))
        return false;
    if (Pfds[I].revents & (POLLIN | POLLERR | POLLHUP))
      if (!pumpRead(Conns[I]))
        return false;
  }
  return true;
}

bool Load::drain(double Seconds) {
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  for (;;) {
    size_t Outstanding = 0;
    for (Conn &C : Conns) {
      Outstanding += C.Pend.size();
      if (!pumpWrite(C))
        return false;
    }
    if (!Outstanding)
      return true;
    if (Clock::now() > Deadline) {
      Res.Failed += Outstanding;
      Res.Errors.push_back(std::to_string(Outstanding) +
                           " replies missing at the drain deadline");
      return false;
    }
    if (!pollOnce(std::min(Deadline, Clock::now() + std::chrono::milliseconds(50))))
      return false;
  }
}

bool Load::openAll() {
  for (Conn &C : Conns) {
    for (uint32_t Id : C.Members) {
      Pending P;
      P.Sess = Id;
      P.Op = 'O';
      P.Due = Clock::now();
      queueFrame(C, P,
                 "O" + Sessions[Id].Name + "\nfastpath\n" + EchoSpecText);
    }
  }
  return drain(60);
}

bool Load::finishAll() {
  for (Conn &C : Conns)
    for (uint32_t Id : C.Members) {
      Session &S = Sessions[Id];
      S.Ref.finish(S.Expected);
      Pending P;
      P.Sess = Id;
      P.Op = 'E';
      P.Due = Clock::now();
      queueFrame(C, P, "E" + S.Name);
    }
  return drain(60);
}

std::optional<PromSnapshot> Load::scrape() {
  Conn &C = Conns.back();
  Pending P;
  P.Op = 'M';
  P.Due = Clock::now();
  queueFrame(C, P, "M");
  if (!drain(10))
    return std::nullopt;
  return PromSnapshot::parse(C.LastBody);
}

bool Load::openLoop(double Seconds) {
  M = Phase::Open;
  Clock::time_point Start = Clock::now();
  TraceEpoch = Start;
  PhaseEnd = Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  size_t Interactive = Conns.size() - 1;
  for (Conn &C : Conns) {
    C.Interval = C.Bulk ? 1.0 / BulkRate
                        : double(Interactive) / InteractiveRate;
    C.NextDue = Start;
  }
  auto Step = [](double S) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(S));
  };
  Clock::time_point NextSample = Start;
  while (Clock::now() < PhaseEnd) {
    Clock::time_point Now = Clock::now();
    Clock::time_point WakeBy = PhaseEnd;
    for (Conn &C : Conns) {
      while (C.NextDue <= Now && C.NextDue < PhaseEnd) {
        LateMs.push_back(
            std::chrono::duration<double, std::milli>(Now - C.NextDue)
                .count());
        queueFeed(C, C.NextDue);
        C.NextDue += Step(C.Interval);
      }
      WakeBy = std::min(WakeBy, C.NextDue);
      if (!pumpWrite(C))
        return false;
    }
    if (Tracer::get().enabled() && Now >= NextSample) {
      // The server's reply-queue depth, sampled from the in-process
      // registry (traced runs only).
      PromSnapshot S = PromSnapshot::take();
      if (std::optional<double> D = S.get("efc_server_queue_depth", ""))
        QueueDepthMax = std::max(QueueDepthMax, int64_t(*D));
      NextSample = Now + std::chrono::milliseconds(50);
    }
    if (!pollOnce(WakeBy))
      return false;
  }
  M = Phase::Idle;
  return drain(30);
}

/// The same 512 B frames through a bare StreamSession, no server: the
/// pipeline's share of a served feed.  Returns the median feed time in
/// microseconds, or a negative value on failure.
double sessionFeedUs(const Config &C, uint64_t Req, LayerReport &L,
                     std::string &Err) {
  auto Spec = PipelineSpec::parse(EchoSpecText, &Err);
  if (!Spec)
    return -1;
  PipelineCache Cache(1);
  auto P = Cache.get(*Spec, false, &Err);
  if (!P)
    return -1;
  std::optional<StreamSession> S;
  {
    ScopedSpan Sp("StreamSession::open", Req);
    S = StreamSession::open(P, StreamSession::Backend::Fast, &Err);
  }
  if (!S)
    return -1;
  SplitMix64 Rng(C.Seed);
  DigitLinesRef Ref;
  std::string Unsent, Out, Expected;
  std::vector<double> Us;
  for (unsigned I = 0; I < 20000; ++I) {
    while (Unsent.size() < SmallFrame) {
      Unsent += std::to_string(Rng.below(100000000));
      Unsent += '\n';
    }
    Clock::time_point T0 = Clock::now();
    {
      ScopedSpan Sp("StreamSession::feed", Req);
      S->feed(Unsent.data(), SmallFrame);
      Out += S->takeOutput();
    }
    Us.push_back(secondsSince(T0) * 1e6);
    Ref.feed(Unsent.data(), SmallFrame, Expected);
    Unsent.erase(0, SmallFrame);
  }
  {
    ScopedSpan Sp("StreamSession::finish", Req);
    S->finish();
    Out += S->takeOutput();
  }
  Ref.finish(Expected);
  L.SpanFedBytes += 20000.0 * SmallFrame;
  if (S->rejected() || Out != Expected) {
    Err = "bare session output differs from the digit-lines reference";
    return -1;
  }
  return median(Us);
}

} // namespace

bool runServe(const Config &C, Result &R) {
  std::unique_ptr<Load> L;
  std::string Err;
  // Set-up: server start, connections, and opening every session (the
  // first open compiles the spec).  Done five times; each repetition
  // first tears down the previous server, untimed, and the last one's
  // server carries the load.
  if (chdir(C.WorkDir.c_str()) != 0) {
    R.Errors.push_back("chdir " + C.WorkDir + ": " + strerror(errno));
    return false;
  }
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep < 5; ++Rep) {
    L.reset();
    pipeline::PassManager::resetCacheForTests();
    Clock::time_point T0 = Clock::now();
    L = std::make_unique<Load>(C, R);
    if (!L->start(Err) || !L->openAll()) {
      R.Errors.push_back("set-up failed: " + Err);
      return false;
    }
    SetupTimes.push_back(secondsSince(T0));
  }
  double SetupS = median(SetupTimes);
  Tracer::get().setEnabled(C.Trace);
  LayerReport Layers;
  PromSnapshot Before = PromSnapshot::take();
  std::optional<PromSnapshot> M0 = C.Trace ? L->scrape() : PromSnapshot();
  double Cpu0 = cpuSecondsThisThread();
  bool Ok = L->openLoop(C.Seconds);
  double ClientCpu = cpuSecondsThisThread() - Cpu0;
  std::optional<PromSnapshot> M1 =
      Ok && C.Trace ? L->scrape() : PromSnapshot();
  Ok = Ok && L->finishAll();
  Tracer::get().setEnabled(false);
  PromSnapshot After = PromSnapshot::take();
  if (!Ok || !M0 || !M1)
    return false;
  for (const char *Series :
       {"efc_server_frames_dropped_total", "efc_server_sessions_evicted_total",
        "efc_server_rejected_total"})
    if (double D = delta(Before, After, Series).value_or(0); D > 0) {
      R.Failed += uint64_t(D);
      R.Errors.push_back(std::string(Series) + " rose by " +
                         std::to_string(uint64_t(D)));
    }
  R.Notes.push_back(std::to_string(L->FeedLatMs.size()) + " feed samples, " +
                    std::to_string(L->BulkRttMs.size()) + " bulk samples");

  double P50 = median(L->FeedLatMs);
  if (!C.Trace) {
    // Unscaled: these times are dominated by wakeups and syscalls across
    // the server's threads, which the yardstick does not track (scaling
    // widened the run-to-run spread of latency_ms from 3% to 27%).
    reportEndToEnd(R, nullptr, P50, median(L->BulkRttMs), SetupS);
    return true;
  }

  Layers.window(Before, After);
  Layers.FedBytes = L->BytesSent;
  Layers.RequestMs = L->FeedLatMs;
  Layers.QueueDepthMax = double(L->QueueDepthMax);
  auto W = delta(*M0, *M1, "efc_server_epoll_wakeups_total");
  auto F = delta(*M0, *M1, "efc_server_frames_in_total");
  if (W && F && *F > 0)
    Layers.WakeupsPerFrame = *W / *F;
  double On = median(L->FeedLatOnMs), Off = median(L->FeedLatOffMs);
  Layers.TraceOverhead = Off > 0 ? On / Off - 1 : 0;

  // The execution and compile sides of the pipeline the server runs,
  // measured here without the server.
  Tracer::get().setEnabled(true);
  uint64_t Req = uint64_t(1) << 40; // above the sampled frames' ids
  double SessUs = sessionFeedUs(C, ++Req, Layers, Err);
  auto Spec = PipelineSpec::parse(EchoSpecText, &Err);
  bool Profiled = SessUs >= 0 && Spec &&
                  Layers.profileCompiles({*Spec}, 3, Req, Err);
  Tracer::get().setEnabled(false);
  if (!Profiled) {
    R.Errors.push_back("traced session or compile: " + Err);
    return false;
  }
  char Note[256];
  std::string ServerUs = "absent";
  if (auto Q = histogramQuantile(*M0, *M1, "efc_server_feed_latency_seconds",
                                 0.5)) {
    char B[64];
    snprintf(B, sizeof(B), "%.2f us (transport %.2f us)", *Q * 1e6,
             P50 * 1e3 - *Q * 1e6);
    ServerUs = B;
  }
  snprintf(Note, sizeof(Note),
           "feed p50 %.4f ms; server feed p50 %s; bare session feed %.2f us; "
           "bulk rtt p50 %.3f ms; client cpu %.2f s, late p99 %.3f ms",
           P50, ServerUs.c_str(), SessUs, median(L->BulkRttMs), ClientCpu,
           percentile(L->LateMs, 0.99));
  R.Notes.push_back(Note);
  Layers.report(R);
  return true;
}

} // namespace perfbench
