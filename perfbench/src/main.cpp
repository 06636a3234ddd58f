//===- perfbench/src/main.cpp - Benchmark harness entry point --------------===//
///
/// \file
///   perfbench --workload compile|batch|serve --seed N --seconds S
///             --trace 0|1 --efcc PATH --work-dir DIR [--trace-out FILE]
///             [--git-rev REV]
///
/// Runs one workload through the program's public entry points, checks
/// every output against an independent reference, and prints as its last
/// stdout line one JSON object: {"correct", "attempted", "failed",
/// "metrics"}.  Untraced runs report the end-to-end metrics, traced runs
/// (--trace 1) the per-layer metrics instead, and write the recorded spans
/// as JSONL to --trace-out.  Every workload reports the same metric names,
/// each measured on that workload's own requests.  perfbench/run.py builds
/// the binary and supplies the paths.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

#ifndef EFC_BUILD_TYPE
#define EFC_BUILD_TYPE "unknown"
#endif

extern char **environ;

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  fprintf(stderr,
          "perfbench: %s\n"
          "usage: perfbench --workload compile|batch|serve --seed N "
          "--seconds S --trace 0|1\n"
          "                 --efcc PATH --work-dir DIR [--trace-out FILE] "
          "[--git-rev REV]\n",
          Msg);
  return 2;
}

/// Every EFC_* knob goes back to its default: the library's own tracing,
/// IR verification and certification stay off, and the parallel and
/// fast-path knobs keep their (nproc-capped) defaults.  The harness sets
/// only EFC_CACHE_DIR, to a fresh directory of its own.
void pinEnvironment(const std::string &CacheDir) {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (strncmp(*E, "EFC_", 4) == 0)
      Names.push_back(std::string(*E, strchr(*E, '=') - *E));
  for (const std::string &N : Names)
    unsetenv(N.c_str());
  setenv("EFC_CACHE_DIR", CacheDir.c_str(), 1);
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      O += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      continue;
    O += Ch;
  }
  return O;
}

std::string simdName() {
  // Exported by the runtime once a PipelineCache exists.
  std::optional<double> L = PromSnapshot::take().sum("efc_simd_level");
  static const char *Names[] = {"scalar", "sse2", "avx2", "avx512"};
  if (!L || *L < 0 || *L > 3)
    return "unknown";
  return Names[int(*L)];
}

std::string fmt(double V) {
  char B[64];
  snprintf(B, sizeof(B), "%.9g", std::isfinite(V) ? V : 0.0);
  return B;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  std::string GitRev = "unknown";
  int TraceFlag = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = Next();
    if (!V)
      return usage(("missing value for " + A).c_str());
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = atof(V);
    else if (A == "--trace")
      TraceFlag = atoi(V);
    else if (A == "--efcc")
      C.Efcc = V;
    else if (A == "--work-dir")
      C.WorkDir = V;
    else if (A == "--trace-out")
      C.TraceOut = V;
    else if (A == "--git-rev")
      GitRev = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  if (C.Workload != "compile" && C.Workload != "batch" &&
      C.Workload != "serve")
    return usage("--workload must be compile, batch or serve");
  if (TraceFlag != 0 && TraceFlag != 1)
    return usage("--trace must be 0 or 1");
  if (!(C.Seconds > 0))
    return usage("--seconds must be positive");
  if (C.WorkDir.empty() || C.Efcc.empty())
    return usage("--work-dir and --efcc are required");
  C.Trace = TraceFlag == 1;
  unsigned HW = std::thread::hardware_concurrency();
  C.Nproc = HW ? HW : 1;

  // A private directory per run: the artifact cache and the server socket
  // live here, never in the user's .efc-cache.
  std::error_code Ec;
  C.WorkDir = std::filesystem::absolute(C.WorkDir).string() + "/run-" +
              std::to_string(getpid());
  std::filesystem::remove_all(C.WorkDir, Ec);
  if (!std::filesystem::create_directories(C.WorkDir + "/cache", Ec)) {
    fprintf(stderr, "perfbench: cannot create %s\n", C.WorkDir.c_str());
    return 1;
  }
  pinEnvironment(C.WorkDir + "/cache");

  Result R;
  bool Ok = C.Workload == "compile" ? runCompile(C, R)
            : C.Workload == "batch" ? runBatch(C, R)
                                    : runServe(C, R);
  std::filesystem::remove_all(C.WorkDir, Ec);
  if (!Ok) {
    for (const std::string &E : R.Errors)
      fprintf(stderr, "perfbench: %s\n", E.c_str());
    fprintf(stderr, "perfbench: workload %s could not run\n",
            C.Workload.c_str());
    return 1;
  }

  std::string Stamp = "{\"workload\":\"" + C.Workload +
                      "\",\"seed\":" + std::to_string(C.Seed) +
                      ",\"seconds\":" + fmt(C.Seconds) +
                      ",\"trace\":" + (C.Trace ? "1" : "0") +
                      ",\"cpu\":\"" + jsonEscape(cpuModel()) +
                      "\",\"nproc\":" + std::to_string(C.Nproc) +
                      ",\"simd\":\"" + simdName() +
                      "\",\"build_type\":\"" EFC_BUILD_TYPE
                      "\",\"git_rev\":\"" + jsonEscape(GitRev) + "\"}";
  if (C.Trace && !C.TraceOut.empty() &&
      !Tracer::get().writeJsonl(C.TraceOut, Stamp))
    fprintf(stderr, "perfbench: cannot write %s\n", C.TraceOut.c_str());

  for (const std::string &E : R.Errors)
    fprintf(stderr, "perfbench: failure: %s\n", E.c_str());
  printf("stamp %s\n", Stamp.c_str());
  for (const std::string &N : R.Notes)
    printf("%s\n", N.c_str());
  for (auto &[Name, VU] : R.Metrics)
    printf("%-40s %14.6g %s\n", Name.c_str(), VU.first, VU.second.c_str());

  bool Correct = R.Failed == 0 && R.SelfTestOk && R.Attempted > 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  bool First = true;
  for (auto &[Name, VU] : R.Metrics) {
    J += (First ? "" : ", ") + ("\"" + Name + "\": {\"value\": ") +
         fmt(VU.first) + ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  J += "}}";
  printf("%s\n", J.c_str());
  fflush(stdout);
  return 0;
}
