//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Pieces every workload of the benchmark harness shares: the run
/// configuration, the result being built (end-to-end or per-layer metrics
/// plus attempted/failed operation counts), sample statistics, counters
/// read by name from the metrics registry's Prometheus text, and the
/// in-memory span recorder of the traced mode.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_COMMON_H
#define EFC_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Efcc;     ///< path of the efcc binary (compile workload)
  std::string WorkDir;  ///< private work dir: cache dir, socket
  std::string TraceOut; ///< JSONL span file written at exit (traced mode)
  unsigned Nproc = 1;
};

/// What one invocation reports.  Metrics keep insertion order so the
/// human-readable listing follows the workload's own order.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool SelfTestOk = true; ///< determinism self-test (compile workload)
  std::vector<std::string> Errors; ///< first few failure descriptions
  std::vector<std::string> Notes;  ///< printed before the metrics
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one failed operation and keeps its description (bounded).
  void fail(const std::string &Why);
};

// --- Sample statistics ------------------------------------------------------

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Repeats \p Setup \p Reps times and returns the median wall time.  The
/// state the last repetition leaves behind is what the workload uses.
template <typename Fn> double medianSetup(unsigned Reps, Fn &&Setup) {
  std::vector<double> T;
  for (unsigned I = 0; I < Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Setup(I);
    T.push_back(secondsSince(T0));
  }
  return median(T);
}

/// Peak resident set of this process, in MB (1e6 bytes).
double peakRssMb();

// --- Host-speed yardstick ------------------------------------------------------

/// A fixed piece of the benchmark's own CPU work (string-keyed map inserts
/// and a sort: allocation, branches and pointer chasing, as in a compile),
/// timed between a workload's requests.  A shared host's speed drifts by
/// tens of percent over minutes; the yardstick drifts with it, so the
/// end-to-end times are reported scaled by NominalS / median(samples):
/// at the speed of the machine the benchmark was tuned on.  A change to
/// the program moves only the measured times, never the yardstick.
class Yardstick {
public:
  /// The yardstick's median on a 4-core Intel Xeon (AVX-512).
  static constexpr double NominalS = 0.030;

  void sample(unsigned N = 1);
  double medianS() const { return median(T); }
  double scale() const { return T.empty() ? 1 : NominalS / medianS(); }
  size_t samples() const { return T.size(); }

private:
  std::vector<double> T;
};

/// The end-to-end metrics every workload reports, times scaled by \p Y
/// (unscaled when null), with the raw figures on a note line.
/// \p LatencyMs: the workload's small request; \p BulkMs: its large
/// request; \p SetupS: its set-up.
void reportEndToEnd(Result &R, const Yardstick *Y, double LatencyMs,
                    double BulkMs, double SetupS);

// --- Registry counters by name ------------------------------------------------

/// A parsed snapshot of metrics::Registry::renderPrometheus() text.  A
/// series that the program no longer exports reads as absent.
class PromSnapshot {
public:
  static PromSnapshot take(); ///< in-process registry
  static PromSnapshot parse(std::string_view Text);

  /// Sum over every label variant of series \p Name (exact name, e.g.
  /// "efc_solver_checks_total" or "efc_x_bucket").  nullopt if absent.
  std::optional<double> sum(std::string_view Name) const;
  /// One labelled series, e.g. ("efc_pass_seconds_total", "pass=\"fuse\"").
  std::optional<double> get(std::string_view Name,
                            std::string_view Labels) const;
  /// Every series of \p Name as (labels, value), in text order.
  std::vector<std::pair<std::string, double>>
  series(std::string_view Name) const;

private:
  struct Row {
    std::string Name, Labels;
    double Value;
  };
  std::vector<Row> Rows;
};

/// After - Before for series \p Name; nullopt when absent in either.
std::optional<double> delta(const PromSnapshot &Before,
                            const PromSnapshot &After, std::string_view Name);

/// Median (\p Q = 0.5) of a Prometheus histogram's samples taken between
/// two snapshots, interpolated linearly inside the bucket.  nullopt when
/// the histogram is absent or saw no samples.
std::optional<double> histogramQuantile(const PromSnapshot &Before,
                                        const PromSnapshot &After,
                                        std::string_view Name, double Q);

// --- Spans of the traced mode -------------------------------------------------

/// In-memory span recorder.  Spans are recorded only in the benchmark's
/// own code, around each call it makes into a layer; nothing is recorded
/// while disabled (the untraced mode never enables it).
class Tracer {
public:
  struct Span {
    uint64_t Id = 0, Parent = 0, Req = 0;
    std::string Name;
    double T0 = 0, T1 = 0; ///< seconds since the tracer was created
  };

  static Tracer &get();

  bool enabled() const { return On; }
  void setEnabled(bool E) { On = E; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  uint64_t begin(std::string_view Name, uint64_t Req);
  void end(uint64_t Id);
  /// Records an already-measured interval (replies matched later).
  void record(std::string_view Name, uint64_t Req, Clock::time_point T0,
              Clock::time_point T1);

  const std::vector<Span> &spans() const { return Spans; }
  /// Self time (duration minus the part covered by child spans) summed
  /// per span name.
  std::map<std::string, double> selfSeconds() const;
  /// Per-request self time of spans named \p Name, keyed by request id.
  std::map<uint64_t, double> selfByReq(std::string_view Name) const;
  bool writeJsonl(const std::string &Path,
                  const std::string &StampJson) const;

private:
  Tracer();
  double now() const;

  bool On = false;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Open; ///< indices of open spans, innermost last
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
public:
  ScopedSpan(std::string_view Name, uint64_t Req)
      : Id(Tracer::get().begin(Name, Req)) {}
  ~ScopedSpan() { Tracer::get().end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  uint64_t Id;
};

// --- Workloads ------------------------------------------------------------------

bool runCompile(const Config &C, Result &R);
bool runBatch(const Config &C, Result &R);
bool runServe(const Config &C, Result &R);

} // namespace perfbench

#endif // EFC_PERFBENCH_COMMON_H
