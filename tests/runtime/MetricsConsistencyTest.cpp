//===- tests/runtime/MetricsConsistencyTest.cpp - Cross-backend metrics ---===//
//
// The same Figure 9 pipeline over the same input must tell the same story
// in the metrics registry regardless of backend: per-backend
// efc_stream_bytes_{in,out}_total deltas equal the session's own
// byte counters, which in turn agree across VM, byte-class fast path and
// native.  The five fast-path run counters a session folds into the
// registry must match those of a FastPathCursor fed the same chunks
// exactly (the delta fold in StreamSession::drain must neither drop a
// field nor double-count across chunks).
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "data/Datasets.h"
#include "runtime/StreamSession.h"
#include "support/Metrics.h"
#include "vm/FastPath.h"

#include "common/AccelMachines.h"

#include <gtest/gtest.h>

using namespace efc;
using namespace efc::bench;
using namespace efc::runtime;

namespace {

/// Registry deltas for one backend label, snapshotted at construction.
struct StreamDeltas {
  metrics::Counter &Sessions, &In, &Out;
  uint64_t Sessions0, In0, Out0;

  explicit StreamDeltas(const char *Label)
      : Sessions(metrics::Registry::instance().counter(
            "efc_stream_sessions_total", "", Label)),
        In(metrics::Registry::instance().counter(
            "efc_stream_bytes_in_total", "", Label)),
        Out(metrics::Registry::instance().counter(
            "efc_stream_bytes_out_total", "", Label)),
        Sessions0(Sessions.value()), In0(In.value()), Out0(Out.value()) {}

  uint64_t sessions() const { return Sessions.value() - Sessions0; }
  uint64_t in() const { return In.value() - In0; }
  uint64_t out() const { return Out.value() - Out0; }
};

/// Registry deltas of the five efc_fastpath_* run series, one per
/// FastPathCursor::RunCounters field, snapshotted at construction.
struct RunDeltas {
  metrics::Counter *C[5];
  uint64_t V0[5];

  RunDeltas() {
    const char *Names[5] = {
        "efc_fastpath_runs_total", "efc_fastpath_run_elements_total",
        "efc_fastpath_wide_elements_total", "efc_fastpath_spec_runs_total",
        "efc_fastpath_spec_elements_total"};
    for (int I = 0; I < 5; ++I) {
      C[I] = &metrics::Registry::instance().counter(Names[I]);
      V0[I] = C[I]->value();
    }
  }
  uint64_t at(int I) const { return C[I]->value() - V0[I]; }
};

/// Each registry delta must equal the matching cursor counter.
void expectFolded(const RunDeltas &D, const FastPathCursor::RunCounters &W,
                  const std::string &What) {
  EXPECT_EQ(D.at(0), W.Runs) << What;
  EXPECT_EQ(D.at(1), W.RunElements) << What;
  EXPECT_EQ(D.at(2), W.WideElements) << What;
  EXPECT_EQ(D.at(3), W.SpecRuns) << What;
  EXPECT_EQ(D.at(4), W.SpecElements) << What;
}

/// Streams \p In through \p S in \p Chunk-byte pieces and returns the
/// output.  The default 97 is coprime with the run kernels' span
/// lengths, so runs get cut mid-chunk.
std::string pump(StreamSession &S, const std::string &In,
                 size_t Chunk = 97) {
  std::string Got;
  for (size_t I = 0; I < In.size(); I += Chunk) {
    EXPECT_TRUE(S.feed(std::string_view(In).substr(I, Chunk)));
    Got += S.takeOutput();
  }
  EXPECT_TRUE(S.finish());
  Got += S.takeOutput();
  return Got;
}

/// The run counters of a FastPathCursor fed \p In in the same pieces
/// pump() feeds a session.
FastPathCursor::RunCounters cursorCounters(const FastPathPlan &P,
                                           const CompiledTransducer &T,
                                           const std::string &In,
                                           size_t Chunk = 97) {
  FastPathCursor C(P, T);
  std::vector<uint64_t> Out;
  for (size_t I = 0; I < In.size(); I += Chunk) {
    std::vector<uint64_t> Piece(In.begin() + I,
                                In.begin() + std::min(In.size(), I + Chunk));
    EXPECT_TRUE(C.feed(Piece, Out));
  }
  EXPECT_TRUE(C.finish(Out));
  return C.runCounters();
}

TEST(MetricsConsistency, Fig9CsvAgreesAcrossBackends) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused && P.FastPlan);
  std::string In = data::makeCsv(77, 8192, 6, 4, 9999);

  StreamDeltas VmD("backend=\"vm\"");
  StreamSession Vm = StreamSession::overVm(*P.CompiledFused);
  std::string VmOut = pump(Vm, In);
  EXPECT_EQ(VmD.sessions(), 1u);
  EXPECT_EQ(VmD.in(), In.size());
  EXPECT_EQ(VmD.in(), Vm.bytesIn());
  EXPECT_EQ(VmD.out(), Vm.bytesOut());
  EXPECT_EQ(VmD.out(), VmOut.size());

  StreamDeltas FastD("backend=\"fastpath\"");
  RunDeltas Runs;
  StreamSession Fast = StreamSession::overFast(*P.FastPlan,
                                               *P.CompiledFused);
  std::string FastOut = pump(Fast, In);
  EXPECT_EQ(FastD.sessions(), 1u);
  EXPECT_EQ(FastD.in(), In.size());
  EXPECT_EQ(FastD.out(), Fast.bytesOut());
  // The registry fold must equal the cursor-local telemetry exactly:
  // drain() folds per chunk, and double-counting would show here.
  FastPathCursor::RunCounters Want =
      cursorCounters(*P.FastPlan, *P.CompiledFused, In);
  expectFolded(Runs, Want, "fig9 csv max");
  EXPECT_GT(Want.Runs, 0u) << "CSV max should drive run kernels";

  // The backends must agree with each other, not just with themselves.
  EXPECT_EQ(FastOut, VmOut);
  EXPECT_EQ(Fast.bytesOut(), Vm.bytesOut());

  if (!P.Native)
    GTEST_SKIP() << "no host compiler: native backend unavailable";
  auto Nat = StreamSession::overNative(*P.Native);
  ASSERT_TRUE(Nat.has_value());
  StreamDeltas NatD("backend=\"native\"");
  // overNative already bumped sessions before the snapshot; re-open so
  // the delta covers a whole session.
  Nat = StreamSession::overNative(*P.Native);
  std::string NatOut = pump(*Nat, In);
  EXPECT_EQ(NatD.sessions(), 1u);
  EXPECT_EQ(NatD.in(), In.size());
  EXPECT_EQ(NatD.out(), Nat->bytesOut());
  EXPECT_EQ(NatOut, VmOut);
}

// Sessions fold every run counter, not just runs and run elements: the
// spec-pair spans of a stream fed through a session (as every served
// stream is) must reach the registry exactly as a cursor fed the same
// odd-sized chunks counts them.  Byte feeds cannot carry elements >= 256,
// so the wide-domain machine's wide counts are zero on both sides; it
// still checks the fold adds nothing twice.
TEST(MetricsConsistency, SessionFoldsEveryRunCounter) {
  TermContext Ctx;
  std::string In;
  for (int I = 0; I < 1500; ++I)
    In += I % 301 == 300 ? '\n' : 'q';
  for (bool Spec : {true, false}) {
    Bst A = Spec ? test::makePingPong(Ctx) : test::makeWidePlusOne(Ctx);
    auto T = CompiledTransducer::compile(A);
    ASSERT_TRUE(T.has_value());
    FastPathPlan P = FastPathPlan::build(A, *T);
    for (size_t Chunk : {size_t(7), size_t(97)}) {
      std::string What = std::string(Spec ? "spec pair" : "wide") +
                         " chunk=" + std::to_string(Chunk);
      RunDeltas D;
      StreamSession S = StreamSession::overFast(P, *T);
      pump(S, In, Chunk);
      FastPathCursor::RunCounters Want = cursorCounters(P, *T, In, Chunk);
      expectFolded(D, Want, What);
      if (Spec) {
        EXPECT_GT(Want.SpecElements, 0u) << What << ": spec pair unused";
      }
    }
  }
}

// A rejecting stream must still account its bytes: everything fed before
// the reject counts as input, everything drained counts as output.
TEST(MetricsConsistency, RejectedStreamStillCounts) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused);
  StreamDeltas D("backend=\"vm\"");
  StreamSession S = StreamSession::overVm(*P.CompiledFused);
  std::string Bad = "a,17,x\n\xff"; // 0xFF rejects at the UTF-8 decoder
  EXPECT_FALSE(S.feed(Bad) && S.finish());
  EXPECT_EQ(D.in(), S.bytesIn());
  EXPECT_EQ(D.out(), S.bytesOut());
  EXPECT_GT(D.in(), 0u);
}

// The one-shot runFastPath entry point folds the cursor's counters too —
// and must not interfere with the streaming fold.
TEST(MetricsConsistency, OneShotRunFastPathFoldsCounters) {
  BuiltPipeline P = makeCsvMaxPipeline();
  ASSERT_TRUE(P.CompiledFused && P.FastPlan);
  std::string In = data::makeCsv(78, 4096, 6, 4, 9999);
  std::vector<uint64_t> Raw;
  Raw.reserve(In.size());
  for (unsigned char C : In)
    Raw.push_back(C);

  metrics::Counter &Runs = metrics::Registry::instance().counter(
      "efc_fastpath_runs_total");
  uint64_t Runs0 = Runs.value();
  auto Out = runFastPath(*P.FastPlan, *P.CompiledFused, Raw);
  ASSERT_TRUE(Out.has_value());
  EXPECT_GT(Runs.value(), Runs0) << "run kernels should have fired";
}

} // namespace
