//===- bench/runtime_cache.cpp - PipelineCache hit/miss latency -----------===//
//
// Measures what the serving runtime buys: the latency of satisfying a
// pipeline request cold (fuse + optimize + VM compile, plus the host
// compiler for the native backend) versus warm (in-memory cache hit, or
// on-disk artifact cache across process restarts).  This is the
// cached-vs-cold gap EXPERIMENTS.md discusses next to Figure 11's
// compilation-cost table.
//
//===----------------------------------------------------------------------===//

#include "runtime/PipelineCache.h"
#include "runtime/StreamSession.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <cstdlib>

using namespace efc;
using namespace efc::runtime;

namespace {

PipelineSpec spec(const char *Pattern, const char *Agg, const char *Format) {
  PipelineSpec S;
  S.Kind = PipelineSpec::Frontend::Regex;
  S.Pattern = Pattern;
  S.Agg = Agg;
  S.Format = Format;
  return S;
}

double msSince(const Stopwatch &W) { return W.seconds() * 1e3; }

} // namespace

int main() {
  // Scratch artifact dir so the "cold" numbers really are cold.
  std::string Dir = "/tmp/efc-bench-cache-" + std::to_string(getpid());
  setenv("EFC_CACHE_DIR", Dir.c_str(), 1);

  const struct {
    const char *Name;
    PipelineSpec Spec;
  } Specs[] = {
      {"CSV-max",
       spec("(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*", "max", "decimal")},
      {"CSV-avg",
       spec("(?:(?:[^,\\n]*,){3}(?<v>\\d+),[^\\n]*\\n)*", "avg", "decimal")},
      {"CSV-sql",
       spec("(?:(?:[^,\\n]*,){2}(?<v>\\d+),[^\\n]*\\n)*", "none", "sql")},
  };

  printf("Pipeline request latency, cold vs cached (ms):\n\n");
  printf("%-10s %10s %12s %12s %12s\n", "Pipeline", "cold(vm)", "hit(mem)",
         "cold(nat)", "hit(disk)");
  printf("-----------------------------------------------------------\n");

  for (const auto &Case : Specs) {
    std::string Err;

    // Cold VM-only request: fusion + optimization + bytecode compile.
    PipelineCache Cold(8);
    Stopwatch W1;
    auto P = Cold.get(Case.Spec, false, &Err);
    double ColdVm = msSince(W1);
    if (!P) {
      fprintf(stderr, "build failed: %s\n", Err.c_str());
      return 1;
    }

    // Warm in-memory hit: the steady-state cost an efc-serve session
    // open pays once the cache is populated.
    Stopwatch W2;
    for (int I = 0; I < 1000; ++I)
      (void)Cold.get(Case.Spec, false, &Err);
    double HitMem = msSince(W2) / 1000;

    // Cold native request: the above plus the host compiler.
    Stopwatch W3;
    auto PN = Cold.get(Case.Spec, true, &Err);
    double ColdNat = msSince(W3) + ColdVm; // fusion happened in W1
    bool HaveNative = PN != nullptr;

    // Simulated restart: a fresh cache re-fuses but must satisfy the
    // native artifact from disk without the compiler.
    double HitDisk = -1;
    if (HaveNative) {
      metrics::Counter &Compiles = metrics::Registry::instance().counter(
          "efc_native_compiles_total");
      uint64_t Compiles0 = Compiles.value();
      PipelineCache Fresh(8);
      Stopwatch W4;
      auto PF = Fresh.get(Case.Spec, true, &Err);
      HitDisk = msSince(W4);
      if (!PF || Compiles.value() != Compiles0) {
        fprintf(stderr, "expected a disk artifact hit\n");
        return 1;
      }
    }

    printf("%-10s %10.1f %12.4f", Case.Name, ColdVm, HitMem);
    if (HaveNative)
      printf(" %12.1f %12.1f\n", ColdNat, HitDisk);
    else
      printf(" %12s %12s\n", "n/a", "n/a");
    fflush(stdout);

    // Sanity: a warm entry still serves correct streamed requests.
    auto S = StreamSession::open(P, StreamSession::Backend::Vm, &Err);
    if (!S || !S->feed(std::string_view("a,1,2,3,x\n")))
      fprintf(stderr, "  (stream sanity feed failed)\n");
  }

  printf("\nhit(mem) is the per-request cost once warm; hit(disk) is a\n"
         "process restart with a warm artifact cache (re-fuses, but no\n"
         "host compiler).  Cache dir: %s\n",
         Dir.c_str());
  return 0;
}
