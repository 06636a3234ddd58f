//===- perfbench/src/Compile.cpp - The compile workload -------------------===//
///
/// \file
/// Cold compiles of the paper's regex and XPath specs through
/// PipelineCache::get, each with an empty pipeline cache and an empty
/// per-pass cache, then restart compiles: one fresh efcc process per spec
/// against the warm EFC_CACHE_DIR.  Reps go round-robin over the spec set
/// (seeded order per round) so a slow host period spreads over all specs;
/// each headline figure is a geometric mean over specs of that spec's
/// median.
///
/// Every compile's counts (solver checks, product states, branches
/// pruned/removed, states removed) and the entering/leaving IR hash of
/// each pass must repeat exactly: across reps, against the efcc process,
/// against earlier runs of the same binary, and — in the traced mode —
/// against the same passes run one at a time over a single PassContext.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Layers.h"

#include "pipeline/PassManager.h"
#include "runtime/PipelineCache.h"
#include "runtime/StreamSession.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <fcntl.h>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace efc;
using namespace efc::runtime;

namespace perfbench {
namespace {

/// The efcc command line equivalent to \p S.
std::vector<std::string> efccArgs(const std::string &Efcc,
                                  const PipelineSpec &S) {
  std::vector<std::string> A = {Efcc};
  A.push_back(S.Kind == PipelineSpec::Frontend::Regex ? "--regex" : "--xpath");
  A.push_back(S.Pattern);
  A.insert(A.end(), {"--agg", S.Agg, "--format", S.Format, "--opt-level",
                     S.Minimize ? "2" : S.Rbbe ? "1" : "0", "--metrics"});
  return A;
}

/// Runs efcc to completion, stdout discarded and stderr (the Prometheus
/// text of --metrics) captured.  False when it cannot start or exits
/// non-zero.
bool runEfcc(const std::vector<std::string> &Args, std::string &Stderr,
             std::string &Err) {
  int Pipe[2];
  if (pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&Fa, Pipe[1], 2);
  posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
  posix_spawn_file_actions_addclose(&Fa, Pipe[1]);
  std::vector<char *> Argv;
  for (const std::string &S : Args)
    Argv.push_back(const_cast<char *>(S.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Argv[0], &Fa, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  close(Pipe[1]);
  if (Rc != 0) {
    close(Pipe[0]);
    Err = "cannot start " + Args[0] + ": " + strerror(Rc);
    return false;
  }
  Stderr.clear();
  char Buf[65536];
  for (;;) {
    ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0)
      Stderr.append(Buf, size_t(N));
    else if (N == 0 || errno != EINTR)
      break;
  }
  close(Pipe[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "efcc exited with status " + std::to_string(Status);
    return false;
  }
  return true;
}

/// FNV-1a of this executable: keys the counts file, so counts are compared
/// only between runs of the same build.
uint64_t selfHash() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  uint64_t H = 0xcbf29ce484222325ull;
  char Buf[1 << 16];
  while (In.read(Buf, sizeof(Buf)) || In.gcount() > 0) {
    for (std::streamsize I = 0; I < In.gcount(); ++I) {
      H ^= uint8_t(Buf[I]);
      H *= 0x100000001b3ull;
    }
  }
  return H;
}

struct SpecRun {
  const BenchSpec *B = nullptr;
  std::string Input, Expected; ///< small correctness probe
  std::vector<double> Cold, ColdTraced, Restart;
  std::string Fingerprint;
  std::map<std::string, double> Counts;
};

/// Feeds the small probe input through a session over \p P and compares
/// with the hand-written reference.
bool probeOutput(const std::shared_ptr<const CompiledPipeline> &P,
                 const SpecRun &Run, uint64_t Req, LayerReport &L,
                 std::string &Err) {
  std::optional<StreamSession> Sess;
  {
    ScopedSpan Sp("StreamSession::open", Req);
    Sess = StreamSession::open(P, StreamSession::Backend::Fast, &Err);
  }
  if (!Sess)
    return false;
  {
    ScopedSpan Sp("StreamSession::feed", Req);
    Sess->feed(Run.Input);
  }
  L.FedBytes += double(Run.Input.size());
  if (Tracer::get().enabled())
    L.SpanFedBytes += double(Run.Input.size());
  {
    ScopedSpan Sp("StreamSession::finish", Req);
    Sess->finish();
  }
  if (Sess->rejected()) {
    Err = "stream rejected";
    return false;
  }
  if (Sess->output() != Run.Expected) {
    Err = "output differs from the reference (" +
          std::to_string(Sess->output().size()) + " vs " +
          std::to_string(Run.Expected.size()) + " bytes)";
    return false;
  }
  return true;
}

} // namespace

bool runCompile(const Config &C, Result &R) {
  std::vector<SpecRun> Runs;
  for (const BenchSpec &B : allSpecs()) {
    SpecRun Run;
    Run.B = &B;
    Runs.push_back(std::move(Run));
  }
  std::string CacheDir = C.WorkDir + "/cache";

  // Set-up: a fresh artifact cache dir, the probe inputs and their
  // references, and one warm compile in-process and through efcc so lazy
  // process state and the page cache are settled before timing.  It takes
  // tens of milliseconds and includes a process start, so it is repeated
  // more often than the other workloads' set-ups for a steady median.
  PipelineSpec Tiny = specNamed("cc-id").Spec;
  Tiny.Rbbe = false;
  std::string SetupErr;
  double SetupS = medianSetup(15, [&](unsigned) {
    std::error_code Ec;
    std::filesystem::remove_all(CacheDir, Ec);
    std::filesystem::create_directories(CacheDir, Ec);
    for (SpecRun &Run : Runs) {
      Run.Input = makeInput(*Run.B, C.Seed, 64 << 10);
      Run.Expected = referenceOutput(*Run.B, Run.Input).value_or("");
    }
    pipeline::PassManager::resetCacheForTests();
    PipelineCache Cache(1);
    if (!Cache.get(Tiny, false, &SetupErr))
      SetupErr = "warm compile: " + SetupErr;
    std::string Out;
    if (!runEfcc(efccArgs(C.Efcc, Tiny), Out, SetupErr))
      SetupErr = "warm efcc: " + SetupErr;
  });
  if (!SetupErr.empty()) {
    R.Errors.push_back(SetupErr);
    return false;
  }
  for (SpecRun &Run : Runs)
    if (Run.Expected.empty()) {
      R.Errors.push_back("no reference output for " + Run.B->Name);
      return false;
    }

  auto SelfTest = [&](const std::string &What) {
    R.SelfTestOk = false;
    R.fail("determinism: " + What);
  };

  LayerReport L;
  Yardstick Y;
  SplitMix64 Rng(C.Seed);
  std::vector<size_t> Order(Runs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  uint64_t Req = 0;
  PromSnapshot WinBefore = PromSnapshot::take();
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round < 3 || secondsSince(Start) < C.Seconds;
       ++Round) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.below(I)]);
    // Traced runs alternate spans on and off per round; the difference
    // between the two halves is the tracing overhead.
    bool SpansOn = C.Trace && Round % 2 == 0;
    Tracer::get().setEnabled(SpansOn);
    for (size_t Idx : Order) {
      SpecRun &Run = Runs[Idx];
      const PipelineSpec &S = Run.B->Spec;
      const std::string &Name = Run.B->Name;
      L.ownReq(++Req, Idx);
      Y.sample();

      // Cold compile: both caches empty.
      std::string Err;
      CompileSample Cold;
      bool Compiled = coldCompile(S, Req, Cold, Err);
      ++R.Attempted;
      if (!Compiled) {
        R.fail(Name + ": compile failed: " + Err);
        continue;
      }
      (SpansOn ? Run.ColdTraced : Run.Cold).push_back(Cold.Seconds);
      L.RequestMs.push_back(Cold.Seconds * 1e3);
      L.addCompile(Idx, Cold);
      std::string Fp = Cold.fingerprint();
      if (Run.Fingerprint.empty()) {
        Run.Fingerprint = Fp;
        Run.Counts = Cold.Counts;
        ++R.Attempted;
        if (!probeOutput(Cold.P, Run, Req, L, Err))
          R.fail(Name + ": " + Err);
      } else if (Fp != Run.Fingerprint) {
        SelfTest(Name + ": counts or IR hashes changed between reps");
      }

      // Restart compile: a fresh efcc process, warm EFC_CACHE_DIR.
      std::string Stderr;
      Clock::time_point T0 = Clock::now();
      bool Ok = runEfcc(efccArgs(C.Efcc, S), Stderr, Err);
      double Restart = secondsSince(T0);
      ++R.Attempted;
      if (!Ok) {
        R.fail(Name + ": " + Err);
        continue;
      }
      Run.Restart.push_back(Restart);
      PromSnapshot Proc = PromSnapshot::parse(Stderr);
      if (compileCounts(PromSnapshot(), Proc) != Cold.Counts)
        SelfTest(Name + ": efcc counts differ from the in-process compile");
      double Hits = Proc.sum("efc_pass_cache_hits_total").value_or(0);
      L.PassHits += Hits;
      L.PassLookups +=
          Hits + Proc.sum("efc_pass_cache_misses_total").value_or(0);

      // Traced path: the same passes one at a time, same hashes and counts.
      if (SpansOn) {
        pipeline::PassManager::resetCacheForTests();
        std::vector<pipeline::PassRun> TRuns;
        PromSnapshot TB = PromSnapshot::take();
        ++R.Attempted;
        if (!tracedCompile(S, Req, TRuns, Err)) {
          R.fail(Name + ": traced compile failed: " + Err);
          continue;
        }
        PromSnapshot TA = PromSnapshot::take();
        if (passHashes(TRuns) != Cold.Hashes)
          SelfTest(Name + ": traced pass-at-a-time IR hashes differ from "
                          "PipelineCache::get");
        if (compileCounts(TB, TA) != Cold.Counts)
          SelfTest(Name + ": traced path counts differ from "
                          "PipelineCache::get");
      }
    }
  }
  Tracer::get().setEnabled(C.Trace);
  L.window(WinBefore, PromSnapshot::take());

  // Counts must also repeat across runs of this build (any seed).
  std::string Digest;
  for (const SpecRun &Run : Runs)
    Digest += Run.B->Name + " " + Run.Fingerprint + "\n";
  char Key[32];
  snprintf(Key, sizeof(Key), "%016llx", (unsigned long long)selfHash());
  std::string CountsFile = std::filesystem::path(C.WorkDir).parent_path() /
                           ("compile-counts-" + std::string(Key) + ".txt");
  if (std::ifstream In{CountsFile}) {
    std::stringstream Prev;
    Prev << In.rdbuf();
    if (Prev.str() != Digest)
      SelfTest("counts differ from an earlier run of this build (" +
               CountsFile + ")");
  } else {
    std::ofstream(CountsFile) << Digest;
  }

  // Headline figures: per spec the median over its reps, geometric mean
  // over the spec set, so every spec weighs the same.
  auto GeoMedian = [&](auto Pick) {
    std::vector<double> V;
    for (SpecRun &Run : Runs)
      V.push_back(median(Pick(Run)) * 1e3);
    return geomean(V);
  };
  std::string PerSpec = "cold ms:";
  for (SpecRun &Run : Runs) {
    char B[96];
    snprintf(B, sizeof(B), " %s %.1f", Run.B->Name.c_str(),
             median(Run.Cold) * 1e3);
    PerSpec += B;
  }
  R.Notes.push_back(PerSpec);
  if (!C.Trace) {
    reportEndToEnd(R, &Y, GeoMedian([](SpecRun &Run) { return Run.Cold; }),
                   GeoMedian([](SpecRun &Run) { return Run.Restart; }),
                   SetupS);
    return true;
  }
  double On = GeoMedian([](SpecRun &Run) { return Run.ColdTraced; });
  double Off = GeoMedian([](SpecRun &Run) { return Run.Cold; });
  L.TraceOverhead = Off > 0 ? On / Off - 1 : 0;
  L.report(R);
  return true;
}

} // namespace perfbench
