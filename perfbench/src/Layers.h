//===- perfbench/src/Layers.h - Compiles and per-layer figures --*- C++ -*-===//
///
/// \file
/// The compile calls every workload makes (a cold PipelineCache::get, and
/// the same passes run one PassManager::run at a time under spans), and
/// LayerReport, which turns what a workload gathered into the per-layer
/// metrics of the traced mode.  Every workload compiles and executes, so
/// every workload reports the same per-layer metrics: the compile-side
/// ones over the specs it compiles, the execution-side ones over the bytes
/// it feeds.  A layer the workload does not reach reads 0 (a count or a
/// ratio, never a time).  Counters are read by name from the registry's
/// Prometheus text; a series the program stops exporting reads as 0 and
/// is listed on an "absent" line.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_LAYERS_H
#define EFC_PERFBENCH_LAYERS_H

#include "Common.h"

#include "pipeline/PassManager.h"
#include "runtime/PipelineCache.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one cold compile left behind.  Counts and hashes must repeat
/// exactly between compiles of the same spec.
struct CompileSample {
  std::shared_ptr<const efc::runtime::CompiledPipeline> P;
  double Seconds = 0;     ///< wall time of PipelineCache::get
  double GetOverhead = 0; ///< get minus the sum of its passes
  std::map<std::string, double> Counts; ///< registry deltas, by series
  std::map<std::string, double> Plan;   ///< fast-path plan counts
  unsigned StatesRemoved = 0;           ///< by minimize (MStats)
  std::string Hashes; ///< entering and leaving IR hash of every pass

  /// Counts, minimize removals and hashes in one comparable string.
  std::string fingerprint() const;
};

/// Compiles \p S with the pipeline cache and the per-pass cache both empty,
/// inside a "PipelineCache::get" span under \p Req.
bool coldCompile(const efc::runtime::PipelineSpec &S, uint64_t Req,
                 CompileSample &Out, std::string &Err);

/// The compile passes of \p S run one PassManager::run at a time over a
/// single PassContext, after assembleStages, each inside its own span
/// under \p Req.  \p Runs receives the context's pass rows.
bool tracedCompile(const efc::runtime::PipelineSpec &S, uint64_t Req,
                   std::vector<efc::pipeline::PassRun> &Runs,
                   std::string &Err);

std::string passHashes(const std::vector<efc::pipeline::PassRun> &Runs);

/// Registry deltas of the per-compile counters between two snapshots.
std::map<std::string, double> compileCounts(const PromSnapshot &Before,
                                            const PromSnapshot &After);

/// Gathers a workload's per-layer figures and reports them.
class LayerReport {
public:
  /// A cold compile of spec number \p Spec (the workload's own index).
  void addCompile(size_t Spec, const CompileSample &S);
  /// Spans recorded under \p Req belong to spec number \p Spec.
  void ownReq(uint64_t Req, size_t Spec) { ReqSpec[Req] = Spec; }
  /// Cold compiles (spans on) of every spec in \p Specs, then the traced
  /// pass-at-a-time path: the compile side of a workload whose compiles
  /// happen in set-up.  Request ids continue from \p Req.
  bool profileCompiles(const std::vector<efc::runtime::PipelineSpec> &Specs,
                       unsigned Reps, uint64_t &Req, std::string &Err);
  /// Registry snapshots around the workload's timed execution.
  void window(const PromSnapshot &Before, const PromSnapshot &After);

  double FedBytes = 0;      ///< bytes fed to sessions in the window
  double SpanFedBytes = 0;  ///< bytes the harness fed with spans on
  double PassHits = 0, PassLookups = 0; ///< per-pass cache, every compile
  std::vector<double> RequestMs;        ///< small-request latencies
  double QueueDepthMax = 0;
  double WakeupsPerFrame = 0;
  double TraceOverhead = 0; ///< traced / untraced headline, minus 1

  /// Appends every per-layer metric to \p R.
  void report(Result &R) const;

private:
  std::map<uint64_t, size_t> ReqSpec;
  std::map<size_t, std::vector<double>> GetOverhead;
  std::map<size_t, CompileSample> First; ///< counts of each spec
  std::map<std::string, double> Window;  ///< execution counter deltas
};

} // namespace perfbench

#endif // EFC_PERFBENCH_LAYERS_H
