//===- bench/serve_load.cpp - 10k-session serving-load benchmark ----------===//
///
/// \file
/// Load generator for the sharded epoll server: holds --sessions
/// streaming sessions open *concurrently* over --conns multiplexed
/// client connections against an in-process Server on a temp Unix
/// socket, then drives them through three phases — open-all,
/// interleaved windowed feeds, finish-all — with a single-threaded
/// nonblocking poll() client.  Every feed reply's round-trip latency is
/// recorded (p50/p99 under load, aggregate feed MB/s) and every byte of
/// server output is checked against a sequential StreamSession oracle
/// fed the identical chunk boundaries: any dropped, duplicated or
/// misrouted frame fails the run (exit 1), so the numbers can only come
/// from a correct run.
///
/// Results merge into BENCH_serve.json (same git_rev/nproc/isa stamping
/// and hardware-mismatch gate discipline as BENCH_throughput.json).
///
/// Defaults model the acceptance scenario: 10 000 sessions x 4 KB over
/// 200 connections on one shard.  EFC_SERVE_SESSIONS overrides the
/// default session count (the ci.sh smoke uses a smaller figure);
/// --shards measures kernel-balanced SO_REUSEPORT scaling on multi-core
/// hosts (meaningless on 1 core — see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#include "bench/common/ServeJson.h"
#include "runtime/NetBuffers.h"
#include "runtime/PipelineCache.h"
#include "runtime/Server.h"
#include "runtime/StreamSession.h"
#include "support/EnvParse.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fcntl.h>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

using namespace efc;
using namespace efc::runtime;
using Clock = std::chrono::steady_clock;

namespace {

// Echo pipeline: every digit run comes back as one line, so the reply
// stream is input-sized and byte-comparable against the oracle.  The
// pattern is anchored over the whole stream (regex-frontend semantics),
// so it must absorb newlines — and a digit run cut at a chunk boundary
// simply continues in the next frame.
const char *EchoSpec = "frontend=regex\n"
                       "pattern=(?:(?<v>\\d+)|\\n)*\n"
                       "agg=none\n"
                       "format=lines\n";

struct Config {
  uint64_t Sessions = 10000;
  unsigned Conns = 200;
  unsigned Shards = 1;
  size_t Chunk = 512;
  size_t BytesPerSession = 4096;
  unsigned Window = 32; ///< max in-flight requests per connection
  uint64_t Seed = 0x5e7f10ad;
  double TimeoutS = 300;
  std::string Backend = "fastpath";
  std::string Scenario = "serve_10k";
  std::string JsonPath; ///< empty: BENCH_serve.json / EFC_BENCH_SERVE_JSON
  bool WriteJson = true;
};

std::string sessionName(uint32_t Id) { return "s" + std::to_string(Id); }

/// Deterministic payload of frame \p FrameIdx of session \p SessId:
/// newline-separated decimal rows, truncated to exactly Chunk bytes (a
/// cut row simply continues into the next frame — the oracle sees the
/// identical byte stream, so equality is unaffected).
std::string framePayload(const Config &C, uint32_t SessId, uint32_t FrameIdx) {
  SplitMix64 R(C.Seed ^ (uint64_t(SessId) << 20) ^ (uint64_t(FrameIdx) + 1));
  std::string P;
  P.reserve(C.Chunk + 24);
  while (P.size() < C.Chunk) {
    P += std::to_string(R.next() % 100000000);
    P += '\n';
  }
  P.resize(C.Chunk);
  return P;
}

std::string wireBytes(std::string_view Payload) {
  std::string W;
  W.reserve(4 + Payload.size());
  uint32_t N = uint32_t(Payload.size());
  W.push_back(char(N & 0xFF));
  W.push_back(char((N >> 8) & 0xFF));
  W.push_back(char((N >> 16) & 0xFF));
  W.push_back(char((N >> 24) & 0xFF));
  W.append(Payload.data(), Payload.size());
  return W;
}

struct Pending {
  uint32_t Sess;
  char Op;
  Clock::time_point SentAt;
};

struct ClientConn {
  int Fd = -1;
  std::string Out; ///< encoded-but-unsent wire bytes
  size_t OutOff = 0;
  InputSlab In;
  std::deque<Pending> Pend;
  std::vector<uint32_t> Members; ///< session ids served by this conn
  size_t Cursor = 0;             ///< next request index in this phase
  size_t Total = 0;              ///< requests this phase
  size_t Replies = 0;
};

enum class Phase { Open, Feed, Finish };

struct Load {
  Config Cfg;
  uint32_t FramesPerSession = 0;
  std::vector<ClientConn> Conns;
  std::vector<std::string> Actual; ///< per-session reply-body concat
  std::vector<double> FeedLatMs;
  std::string FirstError;

  bool fail(std::string Msg) {
    if (FirstError.empty())
      FirstError = std::move(Msg);
    return false;
  }

  /// Request #Idx of \p Ph on \p C.  Feeds interleave round-robin:
  /// round j sends frame j of every member session, so all sessions on
  /// the conn (and, conns being pumped together, in the whole run) are
  /// mid-stream at once — the 10k-concurrent shape, not 10k sequential.
  std::string makeRequest(Phase Ph, ClientConn &C, size_t Idx, Pending &P) {
    switch (Ph) {
    case Phase::Open:
      P = {C.Members[Idx], 'O', Clock::now()};
      return "O" + sessionName(P.Sess) + "\n" + Cfg.Backend + "\n" + EchoSpec;
    case Phase::Feed: {
      uint32_t Frame = uint32_t(Idx / C.Members.size());
      P = {C.Members[Idx % C.Members.size()], 'F', Clock::now()};
      return "F" + sessionName(P.Sess) + "\n" +
             framePayload(Cfg, P.Sess, Frame);
    }
    case Phase::Finish:
      P = {C.Members[Idx], 'E', Clock::now()};
      return "E" + sessionName(P.Sess);
    }
    return "";
  }

  /// Encodes requests up to the window and writes until EAGAIN.
  bool pumpWrite(Phase Ph, ClientConn &C) {
    for (;;) {
      while (C.Cursor < C.Total && C.Pend.size() < Cfg.Window &&
             C.Out.size() - C.OutOff < (256u << 10)) {
        Pending P;
        std::string Req = makeRequest(Ph, C, C.Cursor, P);
        // Timestamp at enqueue: the client-perceived latency includes
        // local queueing, as it would for a real caller.
        C.Out += wireBytes(Req);
        C.Pend.push_back(P);
        ++C.Cursor;
      }
      if (C.OutOff >= C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
        return true; // nothing more encodable right now
      }
      ssize_t W = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                         MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          return true;
        if (errno == EINTR)
          continue;
        return fail("send: " + std::string(strerror(errno)));
      }
      C.OutOff += size_t(W);
      if (C.OutOff >= C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
        if (C.Cursor >= C.Total || C.Pend.size() >= Cfg.Window)
          return true;
      }
    }
  }

  bool handleReply(ClientConn &C, std::string_view F) {
    if (C.Pend.empty())
      return fail("unsolicited reply frame");
    Pending P = C.Pend.front();
    C.Pend.pop_front();
    ++C.Replies;
    if (F.empty())
      return fail("empty reply frame");
    char Status = F[0];
    size_t Nl = F.find('\n');
    std::string_view Name =
        F.substr(1, Nl == std::string_view::npos ? F.size() - 1 : Nl - 1);
    std::string_view Body =
        Nl == std::string_view::npos ? std::string_view() : F.substr(Nl + 1);
    if (Name != sessionName(P.Sess))
      return fail("reply routed to wrong request: expected " +
                  sessionName(P.Sess) + ", got '" + std::string(Name) + "'");
    if (Status != 'k')
      return fail("'" + std::string(1, P.Op) + "' on " + sessionName(P.Sess) +
                  " failed: " + std::string(Body));
    if (P.Op == 'F')
      FeedLatMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - P.SentAt)
              .count());
    if (P.Op == 'F' || P.Op == 'E')
      Actual[P.Sess].append(Body.data(), Body.size());
    return true;
  }

  bool pumpRead(ClientConn &C) {
    for (;;) {
      C.In.reserveWritable(64u << 10);
      ssize_t R = ::recv(C.Fd, C.In.writePtr(), C.In.writable(), 0);
      if (R < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          return true;
        if (errno == EINTR)
          continue;
        return fail("recv: " + std::string(strerror(errno)));
      }
      if (R == 0)
        return fail("server closed connection with " +
                    std::to_string(C.Pend.size()) + " replies outstanding");
      C.In.commit(size_t(R));
      for (;;) {
        std::string_view F;
        auto PR = C.In.nextFrame(64u << 20, &F);
        if (PR == InputSlab::ParseResult::NeedMore)
          break;
        if (PR != InputSlab::ParseResult::Frame)
          return fail("malformed reply framing from server");
        if (!handleReply(C, F))
          return false;
        C.In.consumeFrame(F.size());
      }
    }
  }

  /// Runs one phase to completion: every conn's Total requests sent and
  /// every reply received, or failure/deadline.
  bool runPhase(Phase Ph, const char *What) {
    size_t Outstanding = 0;
    for (ClientConn &C : Conns) {
      C.Cursor = 0;
      C.Replies = 0;
      C.Total = Ph == Phase::Feed ? C.Members.size() * FramesPerSession
                                  : C.Members.size();
      Outstanding += C.Total;
    }
    Clock::time_point Deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Cfg.TimeoutS));
    std::vector<pollfd> Pfds(Conns.size());
    while (Outstanding) {
      for (size_t I = 0; I < Conns.size(); ++I) {
        ClientConn &C = Conns[I];
        short Ev = 0;
        if (C.Replies < C.Total)
          Ev |= POLLIN;
        if (C.OutOff < C.Out.size() ||
            (C.Cursor < C.Total && C.Pend.size() < Cfg.Window))
          Ev |= POLLOUT;
        Pfds[I] = {C.Fd, Ev, 0};
      }
      int N = ::poll(Pfds.data(), nfds_t(Pfds.size()), 1000);
      if (N < 0 && errno != EINTR)
        return fail("poll: " + std::string(strerror(errno)));
      if (Clock::now() > Deadline)
        return fail(std::string(What) + " phase timed out with " +
                    std::to_string(Outstanding) + " replies outstanding");
      if (N <= 0)
        continue;
      for (size_t I = 0; I < Conns.size(); ++I) {
        ClientConn &C = Conns[I];
        size_t Before = C.Replies;
        if (Pfds[I].revents & POLLOUT)
          if (!pumpWrite(Ph, C))
            return false;
        if (Pfds[I].revents & (POLLIN | POLLERR | POLLHUP))
          if (!pumpRead(C))
            return false;
        Outstanding -= C.Replies - Before;
      }
    }
    return true;
  }
};

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
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

/// Sequential oracle: the same pipeline fed the same bytes at the same
/// chunk boundaries on one thread, no server.  Returns false on
/// mismatch.
bool verifySession(const Config &Cfg, PipelineCache &Cache, uint32_t SessId,
                   uint32_t FramesPerSession, const std::string &Actual,
                   std::string *Err) {
  std::string E;
  auto Spec = PipelineSpec::parse(EchoSpec, &E);
  if (!Spec) {
    *Err = "oracle spec: " + E;
    return false;
  }
  auto P = Cache.get(*Spec, Cfg.Backend == "native", &E);
  if (!P) {
    *Err = "oracle compile: " + E;
    return false;
  }
  StreamSession::Backend B = Cfg.Backend == "vm" ? StreamSession::Backend::Vm
                             : Cfg.Backend == "native"
                                 ? StreamSession::Backend::Native
                                 : StreamSession::Backend::Fast;
  auto St = StreamSession::open(std::move(P), B, &E);
  if (!St) {
    *Err = "oracle open: " + E;
    return false;
  }
  std::string Expected;
  for (uint32_t J = 0; J < FramesPerSession; ++J) {
    if (!St->feed(framePayload(Cfg, SessId, J))) {
      *Err = "oracle rejected stream";
      return false;
    }
    Expected += St->takeOutput();
  }
  St->finish();
  Expected += St->takeOutput();
  if (Expected != Actual) {
    size_t At = 0;
    while (At < Expected.size() && At < Actual.size() &&
           Expected[At] == Actual[At])
      ++At;
    *Err = "output diverges from sequential oracle at byte " +
           std::to_string(At) + " (expected " +
           std::to_string(Expected.size()) + " bytes, got " +
           std::to_string(Actual.size()) + ")";
    return false;
  }
  return true;
}

void raiseFdLimit(uint64_t Need) {
  rlimit RL{};
  if (getrlimit(RLIMIT_NOFILE, &RL) != 0)
    return;
  if (RL.rlim_cur >= Need)
    return;
  RL.rlim_cur = std::min<rlim_t>(std::max<rlim_t>(Need, RL.rlim_cur),
                                 RL.rlim_max);
  setrlimit(RLIMIT_NOFILE, &RL);
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t K = std::min(V.size() - 1, size_t(P * double(V.size() - 1) + 0.5));
  std::nth_element(V.begin(), V.begin() + ptrdiff_t(K), V.end());
  return V[K];
}

int usage(const char *Argv0) {
  fprintf(stderr,
          "usage: %s [--sessions N] [--conns N] [--shards N] [--chunk BYTES]\n"
          "          [--bytes-per-session BYTES] [--window N] [--seed N]\n"
          "          [--backend vm|fastpath|native] [--scenario NAME]\n"
          "          [--timeout-s SECS] [--json PATH] [--no-json]\n"
          "\n"
          "Drives N concurrent streaming sessions over multiplexed client\n"
          "connections against an in-process sharded server; verifies every\n"
          "reply byte against a sequential oracle and merges p50/p99 feed\n"
          "latency + MB/s into BENCH_serve.json.  EFC_SERVE_SESSIONS\n"
          "overrides the default session count.\n",
          Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Config Cfg;
  Cfg.Sessions = env::u64("EFC_SERVE_SESSIONS", Cfg.Sessions, 1, 1u << 20);
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&](uint64_t &Out) {
      if (I + 1 >= argc)
        return false;
      Out = strtoull(argv[++I], nullptr, 10);
      return true;
    };
    uint64_t V = 0;
    if (A == "--sessions" && Next(V))
      Cfg.Sessions = V;
    else if (A == "--conns" && Next(V))
      Cfg.Conns = unsigned(V);
    else if (A == "--shards" && Next(V))
      Cfg.Shards = unsigned(V);
    else if (A == "--chunk" && Next(V))
      Cfg.Chunk = size_t(V);
    else if (A == "--bytes-per-session" && Next(V))
      Cfg.BytesPerSession = size_t(V);
    else if (A == "--window" && Next(V))
      Cfg.Window = unsigned(V);
    else if (A == "--seed" && Next(V))
      Cfg.Seed = V;
    else if (A == "--timeout-s" && Next(V))
      Cfg.TimeoutS = double(V);
    else if (A == "--backend" && I + 1 < argc)
      Cfg.Backend = argv[++I];
    else if (A == "--scenario" && I + 1 < argc)
      Cfg.Scenario = argv[++I];
    else if (A == "--json" && I + 1 < argc)
      Cfg.JsonPath = argv[++I];
    else if (A == "--no-json")
      Cfg.WriteJson = false;
    else
      return usage(argv[0]);
  }
  if (!Cfg.Sessions || !Cfg.Conns || !Cfg.Chunk || !Cfg.Window)
    return usage(argv[0]);
  Cfg.Conns = unsigned(std::min<uint64_t>(Cfg.Conns, Cfg.Sessions));

  Load L;
  L.Cfg = Cfg;
  L.FramesPerSession =
      uint32_t(std::max<size_t>(1, Cfg.BytesPerSession / Cfg.Chunk));
  raiseFdLimit(uint64_t(Cfg.Conns) * 2 + 64);

  // In-process server on a temp Unix socket.  IdleMs defaults high so
  // a slow run can never trip the reaper mid-measurement; a small
  // EFC_SESSION_IDLE_MS makes it fire, which the eviction check below
  // must then report.
  std::string Sock =
      "/tmp/efc_serve_load_" + std::to_string(uint64_t(getpid())) + ".sock";
  ServerOptions O;
  O.SocketPath = Sock;
  O.Shards = Cfg.Shards;
  O.CacheCapacity = 8;
  O.IdleMs = env::u64("EFC_SESSION_IDLE_MS", 3600000);
  Server Srv(O);
  std::string Err;
  if (!Srv.start(&Err)) {
    fprintf(stderr, "serve_load: server start failed: %s\n", Err.c_str());
    return 1;
  }

  L.Conns.resize(Cfg.Conns);
  L.Actual.resize(Cfg.Sessions);
  L.FeedLatMs.reserve(size_t(Cfg.Sessions) * L.FramesPerSession);
  for (unsigned I = 0; I < Cfg.Conns; ++I) {
    int Fd = connectUnix(Sock);
    if (Fd < 0) {
      fprintf(stderr, "serve_load: connect %u/%u failed: %s\n", I, Cfg.Conns,
              strerror(errno));
      return 1;
    }
    int Flags = fcntl(Fd, F_GETFL, 0);
    fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
    L.Conns[I].Fd = Fd;
  }
  // Sessions pinned round-robin to connections: every frame of a
  // session travels one connection, so per-session reply order is the
  // per-connection FIFO the protocol guarantees.
  for (uint32_t S = 0; S < Cfg.Sessions; ++S)
    L.Conns[S % Cfg.Conns].Members.push_back(S);

  fprintf(stderr,
          "serve_load: %llu sessions x %u frames x %zu B over %u conns, "
          "%u shard(s), window %u\n",
          (unsigned long long)Cfg.Sessions, L.FramesPerSession, Cfg.Chunk,
          Cfg.Conns, Cfg.Shards, Cfg.Window);

  // Frames lost and sessions evicted during the run, as registry deltas
  // (the server's counters are process totals).
  metrics::Counter &DroppedC = metrics::Registry::instance().counter(
      "efc_server_frames_dropped_total");
  metrics::Counter &EvictedC = metrics::Registry::instance().counter(
      "efc_server_sessions_evicted_total");
  uint64_t Dropped0 = DroppedC.value(), Evicted0 = EvictedC.value();

  int Rc = 0;
  auto T0 = Clock::now();
  double OpenS = 0, FeedS = 0, FinishS = 0;
  if (!L.runPhase(Phase::Open, "open"))
    Rc = 1;
  auto T1 = Clock::now();
  OpenS = std::chrono::duration<double>(T1 - T0).count();
  if (!Rc) {
    if (!L.runPhase(Phase::Feed, "feed"))
      Rc = 1;
    auto T2 = Clock::now();
    FeedS = std::chrono::duration<double>(T2 - T1).count();
    if (!Rc && !L.runPhase(Phase::Finish, "finish"))
      Rc = 1;
    FinishS = std::chrono::duration<double>(Clock::now() - T2).count();
  }

  uint64_t Dropped = DroppedC.value() - Dropped0;
  uint64_t Evicted = EvictedC.value() - Evicted0;
  for (ClientConn &C : L.Conns)
    ::close(C.Fd);
  Srv.stop();
  ::unlink(Sock.c_str());

  // Both checks report: an eviction usually also fails a phase, and the
  // counts say why.
  if (Dropped || Evicted)
    fprintf(stderr,
            "serve_load: FAILED: server dropped %llu frame(s), evicted %llu "
            "session(s) during the run\n",
            (unsigned long long)Dropped, (unsigned long long)Evicted);
  if (Rc)
    fprintf(stderr, "serve_load: FAILED: %s\n", L.FirstError.c_str());
  if (Rc || Dropped || Evicted)
    return 1;

  // Byte-exact divergence check against the sequential oracle.
  PipelineCache OracleCache(4);
  for (uint32_t S = 0; S < Cfg.Sessions; ++S) {
    std::string VErr;
    if (!verifySession(Cfg, OracleCache, S, L.FramesPerSession, L.Actual[S],
                       &VErr)) {
      fprintf(stderr, "serve_load: FAILED: session %s: %s\n",
              sessionName(S).c_str(), VErr.c_str());
      return 1;
    }
  }

  uint64_t Frames = uint64_t(Cfg.Sessions) * L.FramesPerSession;
  double FeedMb = double(Frames * Cfg.Chunk) / 1e6;
  double P50 = percentile(L.FeedLatMs, 0.50);
  double P99 = percentile(L.FeedLatMs, 0.99);
  double MbPerS = FeedS > 0 ? FeedMb / FeedS : 0;
  printf("serve_load: OK — %llu sessions verified byte-identical to the "
         "sequential oracle\n",
         (unsigned long long)Cfg.Sessions);
  printf("  open   %8.2fs  (%0.0f sessions/s)\n", OpenS,
         OpenS > 0 ? double(Cfg.Sessions) / OpenS : 0);
  printf("  feed   %8.2fs  %llu frames, %.1f MB payload, %.2f MB/s\n", FeedS,
         (unsigned long long)Frames, FeedMb, MbPerS);
  printf("  finish %8.2fs\n", FinishS);
  printf("  feed RTT under load: p50 %.3f ms, p99 %.3f ms (%zu samples)\n",
         P50, P99, L.FeedLatMs.size());

  if (Cfg.WriteJson) {
    efc::bench::ServeRow Row;
    Row.Scenario = Cfg.Scenario;
    Row.Sessions = Cfg.Sessions;
    Row.Shards = Cfg.Shards;
    Row.Conns = Cfg.Conns;
    Row.Chunk = Cfg.Chunk;
    Row.Frames = Frames;
    Row.P50Ms = P50;
    Row.P99Ms = P99;
    Row.MbPerS = MbPerS;
    efc::bench::writeServeJson(Cfg.JsonPath, Row);
  }
  return 0;
}
