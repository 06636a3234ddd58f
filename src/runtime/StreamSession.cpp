//===- runtime/StreamSession.cpp ------------------------------------------===//

#include "runtime/StreamSession.h"

#include "parallel/Parallel.h"
#include "support/EnvParse.h"

#include <array>
#include <cstdlib>
#include <thread>

using namespace efc;
using namespace efc::runtime;

void StreamSession::bindMetrics() {
  // Per-backend series, resolved once per process (indexed by Backend),
  // so opening a session looks nothing up by name.
  struct Series {
    metrics::Counter *Sessions, *BytesIn, *BytesOut;
  };
  static const std::array<Series, 3> ByBackend = [] {
    auto &R = metrics::Registry::instance();
    auto Make = [&R](const char *Label) {
      return Series{
          &R.counter("efc_stream_sessions_total", "Stream sessions opened",
                     Label),
          &R.counter("efc_stream_bytes_in_total",
                     "Input bytes fed into stream sessions", Label),
          &R.counter("efc_stream_bytes_out_total",
                     "Output bytes drained from stream sessions", Label)};
    };
    return std::array<Series, 3>{Make("backend=\"vm\""),
                                 Make("backend=\"fastpath\""),
                                 Make("backend=\"native\"")};
  }();
  const Series &S = ByBackend[int(Kind)];
  S.Sessions->inc();
  MBytesIn = S.BytesIn;
  MBytesOut = S.BytesOut;
}

StreamSession StreamSession::overVm(const CompiledTransducer &T) {
  StreamSession S;
  S.Kind = Backend::Vm;
  S.Cur.emplace(T);
  S.bindMetrics();
  return S;
}

StreamSession StreamSession::overFast(const FastPathPlan &P,
                                      const CompiledTransducer &T) {
  StreamSession S;
  S.Kind = Backend::Fast;
  S.FCur.emplace(P, T);
  S.FPlan = &P;
  S.FVm = &T;
  S.bindMetrics();
  return S;
}

void StreamSession::enableParallel(const parallel::ParallelPlan &Plan,
                                   unsigned Threads, size_t MinBytes) {
  if (Kind != Backend::Fast || !Plan.eligible() || Threads < 2 || !MinBytes)
    return;
  ParPlan = &Plan;
  ParThreads = Threads;
  ParMinBytes = MinBytes;
}

std::optional<StreamSession>
StreamSession::overNative(const NativeTransducer &T) {
  if (!T.streamingAvailable())
    return std::nullopt;
  StreamSession S;
  S.Kind = Backend::Native;
  S.Nat = &T;
  S.NatState.assign(T.stateWords(), 0);
  T.streamInit(S.NatState.data());
  S.bindMetrics();
  return S;
}

std::optional<StreamSession>
StreamSession::open(std::shared_ptr<const CompiledPipeline> P, Backend B,
                    std::string *Err) {
  if (!P || !P->Vm) {
    if (Err)
      *Err = "no compiled pipeline";
    return std::nullopt;
  }
  std::optional<StreamSession> S;
  if (B == Backend::Vm) {
    S = overVm(*P->Vm);
  } else if (B == Backend::Fast) {
    // Entries always carry a plan; a hand-built CompiledPipeline without
    // one transparently degrades to plain bytecode.
    if (P->Fast)
      S = overFast(*P->Fast, *P->Vm);
    else
      S = overVm(*P->Vm);
  } else {
    std::string NErr;
    const NativeTransducer *N = P->native(&NErr);
    if (!N) {
      if (Err)
        *Err = "native backend unavailable: " + NErr;
      return std::nullopt;
    }
    S = overNative(*N);
    if (!S) {
      if (Err)
        *Err = "native artifact lacks streaming entry points";
      return std::nullopt;
    }
  }
  // Large feeds on the fast path can fan out across cores; the
  // threshold keeps ordinary streaming chunks on the sequential cursor.
  // EFC_PARALLEL_MIN_BYTES=0 disables (default 8 MB);
  // EFC_PARALLEL_THREADS defaults to min(4, hardware threads).
  if (S->Kind == Backend::Fast && P->Par && P->Par->eligible()) {
    size_t MinBytes =
        size_t(env::u64("EFC_PARALLEL_MIN_BYTES", 8u << 20, 0,
                        UINT64_MAX, /*Base=*/0));
    unsigned HW = std::thread::hardware_concurrency();
    unsigned Threads = std::min(4u, HW ? HW : 1u);
    Threads = unsigned(env::u64("EFC_PARALLEL_THREADS", Threads, 1, 1024));
    S->enableParallel(*P->Par, Threads, MinBytes);
  }
  S->Keep = std::move(P);
  return S;
}

void StreamSession::drain() {
  // Pipeline boundaries are byte valued (utf8-encode is the last stage),
  // so each emitted element is one output byte.
  Output.reserve(Output.size() + Staged.size());
  for (uint64_t V : Staged)
    Output.push_back(char(V));
  BytesOut += Staged.size();
  if (MBytesOut && !Staged.empty())
    MBytesOut->inc(Staged.size());
  Staged.clear();
  // Fold the cursor's local run counters as a delta, so counts survive
  // sessions that are dropped without finish().
  if (FCur)
    foldRunCounters(FCur->runCounters(), Folded);
}

bool StreamSession::feed(const void *Data, size_t N) {
  if (Rejected || Finished)
    return !Rejected && N == 0;
  BytesIn += N;
  if (MBytesIn)
    MBytesIn->inc(N);
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  if (Kind == Backend::Vm) {
    if (Staged.capacity() < N)
      Staged.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      if (!Cur->feed(Bytes[I], Staged)) {
        Rejected = true;
        drain();
        return false;
      }
    }
  } else if (Kind == Backend::Fast) {
    // Widen into the reused chunk buffer so the cursor gets one
    // contiguous span per feed (the fast loop is chunk-oriented).
    Chunk.clear();
    Chunk.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Chunk.push_back(Bytes[I]);
    if (ParPlan && N >= ParMinBytes) {
      // Large feed: suspend the cursor, run the chunk through the
      // data-parallel executor, resume at its exit state.  Output is
      // byte-identical to the sequential cursor by construction.
      unsigned St = FCur->state();
      std::span<const uint64_t> RS = FCur->regSlots();
      std::vector<uint64_t> Regs(RS.begin(), RS.end());
      parallel::ParallelOptions PO;
      PO.Threads = ParThreads;
      bool Ok =
          parallel::parallelFeed(*ParPlan, *FPlan, *FVm, St, Regs, Chunk,
                                 Staged, PO);
      FCur->restore(St, Regs);
      ++ParFeeds;
      if (!Ok) {
        Rejected = true;
        drain();
        return false;
      }
    } else if (!FCur->feed(Chunk, Staged)) {
      Rejected = true;
      drain();
      return false;
    }
  } else {
    Chunk.clear();
    Chunk.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Chunk.push_back(Bytes[I]);
    if (!Nat->streamFeed(NatState.data(), Chunk.data(), Chunk.size(),
                         Staged)) {
      Rejected = true;
      drain();
      return false;
    }
  }
  drain();
  return true;
}

bool StreamSession::finish() {
  if (Rejected)
    return false;
  if (Finished)
    return true;
  Finished = true;
  bool Ok = Kind == Backend::Vm     ? Cur->finish(Staged)
            : Kind == Backend::Fast ? FCur->finish(Staged)
                                    : Nat->streamFinish(NatState.data(),
                                                        Staged);
  if (!Ok)
    Rejected = true;
  drain();
  return Ok;
}
