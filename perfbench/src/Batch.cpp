//===- perfbench/src/Batch.cpp - The batch workload -----------------------===//
///
/// \file
/// Multi-MB generated inputs run through StreamSession over pipelines
/// compiled in set-up, in two feed shapes: fixed 64 KB chunks (well below
/// the parallel arm threshold, so the sequential fast path runs) and one
/// whole-stream feed (serving defaults, so data-parallel execution arms
/// on inputs above its threshold).  Reps go round-robin over pipelines and
/// shapes; every output is compared with a hand-written reference.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Layers.h"

#include "pipeline/PassManager.h"
#include "runtime/PipelineCache.h"
#include "runtime/StreamSession.h"

#include <cstdio>
#include <memory>

using namespace efc;
using namespace efc::runtime;

namespace perfbench {
namespace {

/// Input per pipeline: above the 8 MB parallel arm threshold and larger
/// than the L2 caches of the machines this was tuned on.
constexpr size_t InputBytes = 9u << 20;
constexpr size_t ChunkBytes = 64u << 10;

/// Chosen so that run kernels, nibble SIMD, spec pairs and bytecode
/// fallback each carry elements (see the vm.* per-layer fractions).
const char *const BatchSpecs[] = {"csv-max", "cc-ids", "sbo-receipts",
                                  "dblp-years", "mondial-pop"};

struct Pipe {
  const BenchSpec *B = nullptr;
  std::shared_ptr<const CompiledPipeline> P;
  std::string Input, Expected;
  /// Wall time of each 64 KB feed of the chunked shape, spans off / on.
  std::vector<double> FeedMs, FeedMsTraced;
  /// Wall time of each whole-stream request (open, one feed, finish).
  std::vector<double> BulkMs;
};

/// One session over \p P fed \p In in \p Chunk-byte feeds (0: one feed),
/// appending each feed's wall time in ms to \p FeedMs.  Returns the wall
/// time, or a negative value on failure.
double runOnce(const std::shared_ptr<const CompiledPipeline> &P,
               const std::string &In, size_t Chunk, uint64_t Req,
               std::string &Out, std::vector<double> &FeedMs,
               std::string &Err) {
  Out.clear();
  Clock::time_point T0 = Clock::now();
  std::optional<StreamSession> S;
  {
    ScopedSpan Sp("StreamSession::open", Req);
    S = StreamSession::open(P, StreamSession::Backend::Fast, &Err);
  }
  if (!S)
    return -1;
  size_t Step = Chunk ? Chunk : In.size();
  for (size_t Off = 0; Off < In.size(); Off += Step) {
    size_t N = std::min(Step, In.size() - Off);
    Clock::time_point F0 = Clock::now();
    {
      ScopedSpan Sp("StreamSession::feed", Req);
      S->feed(In.data() + Off, N);
      Out += S->takeOutput();
    }
    FeedMs.push_back(secondsSince(F0) * 1e3);
  }
  {
    ScopedSpan Sp("StreamSession::finish", Req);
    S->finish();
    Out += S->takeOutput();
  }
  double Dt = secondsSince(T0);
  if (S->rejected()) {
    Err = "stream rejected";
    return -1;
  }
  return Dt;
}

} // namespace

bool runBatch(const Config &C, Result &R) {
  std::vector<Pipe> Pipes;
  for (const char *Name : BatchSpecs) {
    Pipe Pp;
    Pp.B = &specNamed(Name);
    Pipes.push_back(std::move(Pp));
  }

  // Set-up: generate inputs, compute references, compile every pipeline
  // cold (so a compile-time change shows in setup_s too).
  std::string Err;
  double SetupS = medianSetup(3, [&](unsigned) {
    for (size_t I = 0; I < Pipes.size(); ++I) {
      Pipe &Pp = Pipes[I];
      Pp.Input = makeInput(*Pp.B, C.Seed * 16 + I, InputBytes);
      Pp.Expected = referenceOutput(*Pp.B, Pp.Input).value_or("");
      CompileSample S;
      Pp.P = coldCompile(Pp.B->Spec, 0, S, Err) ? S.P : nullptr;
      if (!Pp.P || Pp.Expected.empty())
        Err = Pp.B->Name + ": " + (Pp.P ? "no reference output" : Err);
    }
  });
  for (const Pipe &Pp : Pipes)
    if (!Pp.P || Pp.Expected.empty()) {
      R.Errors.push_back("set-up failed: " + Err);
      return false;
    }

  LayerReport L;
  Yardstick Y;
  uint64_t Req = 0;
  std::string Out;
  PromSnapshot WinBefore = PromSnapshot::take();
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round < 3 || secondsSince(Start) < C.Seconds;
       ++Round) {
    bool SpansOn = C.Trace && Round % 2 == 0;
    Tracer::get().setEnabled(SpansOn);
    for (Pipe &Pp : Pipes) {
      Y.sample();
      for (size_t Chunk : {ChunkBytes, size_t(0)}) {
        std::vector<double> Feeds;
        double Dt = runOnce(Pp.P, Pp.Input, Chunk, ++Req, Out, Feeds, Err);
        ++R.Attempted;
        L.FedBytes += double(Pp.Input.size());
        if (SpansOn)
          L.SpanFedBytes += double(Pp.Input.size());
        if (Dt < 0) {
          R.fail(Pp.B->Name + ": " + Err);
          continue;
        }
        if (Out != Pp.Expected) {
          R.fail(Pp.B->Name + (Chunk ? " chunked" : " bulk") +
                 ": output differs from the reference (" +
                 std::to_string(Out.size()) + " vs " +
                 std::to_string(Pp.Expected.size()) + " bytes)");
          continue;
        }
        if (!Chunk) {
          Pp.BulkMs.push_back(Dt * 1e3);
          continue;
        }
        std::vector<double> &F = SpansOn ? Pp.FeedMsTraced : Pp.FeedMs;
        F.insert(F.end(), Feeds.begin(), Feeds.end());
        L.RequestMs.insert(L.RequestMs.end(), Feeds.begin(), Feeds.end());
      }
    }
  }
  Tracer::get().setEnabled(false);
  L.window(WinBefore, PromSnapshot::take());

  // Per pipeline the median, geometric mean over the pipelines.  Every
  // 64 KB feed is one sample (thousands per run), so a short host stall
  // moves a few samples, not the figure.
  auto GeoMedian = [&](auto Pick) {
    std::vector<double> V;
    for (const Pipe &Pp : Pipes)
      V.push_back(median(Pick(Pp)));
    return geomean(V);
  };
  std::string Raw = "raw MB/s chunked/whole:";
  for (const Pipe &Pp : Pipes) {
    double Mb = double(Pp.Input.size()) / 1e6;
    char B[128];
    snprintf(B, sizeof(B), " %s %.1f/%.1f", Pp.B->Name.c_str(),
             double(ChunkBytes) / 1e3 / median(Pp.FeedMs),
             Mb * 1e3 / median(Pp.BulkMs));
    Raw += B;
  }
  R.Notes.push_back(Raw);
  double Latency = GeoMedian([](const Pipe &Pp) { return Pp.FeedMs; });
  if (!C.Trace) {
    reportEndToEnd(R, &Y, Latency,
                   GeoMedian([](const Pipe &Pp) { return Pp.BulkMs; }),
                   SetupS);
    return true;
  }

  // The compile side of the pipelines set-up compiled.
  Tracer::get().setEnabled(true);
  std::vector<PipelineSpec> Specs;
  for (const Pipe &Pp : Pipes)
    Specs.push_back(Pp.B->Spec);
  if (!L.profileCompiles(Specs, 1, Req, Err)) {
    R.Errors.push_back("traced compile failed: " + Err);
    return false;
  }
  Tracer::get().setEnabled(false);
  double On = GeoMedian([](const Pipe &Pp) { return Pp.FeedMsTraced; });
  L.TraceOverhead = Latency > 0 ? On / Latency - 1 : 0;
  L.report(R);
  return true;
}

} // namespace perfbench
