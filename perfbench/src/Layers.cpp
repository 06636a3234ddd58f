//===- perfbench/src/Layers.cpp -------------------------------------------===//

#include "Layers.h"

#include <sstream>

using namespace efc;
using namespace efc::runtime;

namespace perfbench {
namespace {

/// Registry series whose per-compile delta must repeat exactly, with the
/// per-layer metric each one feeds (nullptr: checked, not reported).
const std::pair<const char *, const char *> CountSeries[] = {
    {"efc_fusion_product_states_total", "fusion.product_states"},
    {"efc_fusion_branches_pruned_total", "fusion.branches_pruned"},
    {"efc_fusion_ites_collapsed_total", "fusion.ites_collapsed"},
    {"efc_rbbe_reach_calls_total", "rbbe.reach_calls"},
    {"efc_rbbe_branches_removed_total", "rbbe.branches_removed"},
    {"efc_rbbe_states_removed_total", nullptr},
    {"efc_solver_checks_total", "solver.checks"},
    {"efc_solver_cdcl_calls_total", "solver.cdcl_calls"},
    {"efc_solver_cdcl_conflicts_total", "solver.cdcl_conflicts"},
};

/// Fast-path plan counters a compile adds to, with their metrics.
const std::pair<const char *, const char *> PlanSeries[] = {
    {"efc_fastpath_plan_table_states_total", "vm.plan_table_states"},
    {"efc_fastpath_plan_accel_states_total", "vm.plan_accel_states"},
    {"efc_fastpath_plan_nibble_kernels_total", "vm.plan_nibble_kernels"},
    {"efc_fastpath_plan_spec_pairs_total", "vm.plan_spec_pairs"},
};

/// Execution counters read around the timed window.
const char *const WindowSeries[] = {
    "efc_fastpath_run_elements_total",   "efc_parallel_feeds_total",
    "efc_parallel_lanes_started_total",  "efc_parallel_lanes_abandoned_total",
    "efc_parallel_replay_elements_total",
};

/// Compile spans and the per-layer time metric each one feeds.
const std::pair<const char *, const char *> PassSpans[] = {
    {"assembleStages", "frontends.assemble_s"},
    {"fuse", "fusion.fuse_s"},
    {"rbbe", "rbbe.rbbe_s"},
    {"vm_compile", "vm.vm_compile_s"},
    {"fastpath_plan", "vm.fastpath_plan_s"},
    {"parallel_plan", "parallel.parallel_plan_s"},
};

double at(const std::map<std::string, double> &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0 : It->second;
}

} // namespace

std::string CompileSample::fingerprint() const {
  std::ostringstream O;
  for (auto &[K, V] : Counts)
    O << K << '=' << uint64_t(V) << ';';
  O << "minimize_states_removed=" << StatesRemoved << ';' << Hashes;
  return O.str();
}

std::map<std::string, double> compileCounts(const PromSnapshot &B,
                                            const PromSnapshot &A) {
  std::map<std::string, double> M;
  for (auto &[Series, Layer] : CountSeries)
    if (std::optional<double> D = delta(B, A, Series))
      M[Series] = *D;
  return M;
}

std::string passHashes(const std::vector<pipeline::PassRun> &Runs) {
  std::ostringstream O;
  O << std::hex;
  for (const pipeline::PassRun &R : Runs)
    O << R.PassName << ':' << R.InHash << '>' << R.OutHash << ';';
  return O.str();
}

bool coldCompile(const PipelineSpec &S, uint64_t Req, CompileSample &Out,
                 std::string &Err) {
  pipeline::PassManager::resetCacheForTests();
  PipelineCache Cache(1);
  PromSnapshot Before = PromSnapshot::take();
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Sp("PipelineCache::get", Req);
    Out.P = Cache.get(S, false, &Err);
  }
  Out.Seconds = secondsSince(T0);
  if (!Out.P)
    return false;
  PromSnapshot After = PromSnapshot::take();
  double PassSum = 0;
  for (const pipeline::PassRun &Ran : Out.P->PassRuns)
    PassSum += Ran.Seconds;
  Out.GetOverhead = Out.Seconds - PassSum;
  Out.Counts = compileCounts(Before, After);
  Out.Plan.clear();
  for (auto &[Series, Name] : PlanSeries)
    if (std::optional<double> D = delta(Before, After, Series))
      Out.Plan[Name] = *D;
  Out.StatesRemoved = Out.P->MStats.StatesBefore - Out.P->MStats.StatesAfter;
  Out.Hashes = passHashes(Out.P->PassRuns);
  return true;
}

bool tracedCompile(const PipelineSpec &S, uint64_t Req,
                   std::vector<pipeline::PassRun> &Runs, std::string &Err) {
  ScopedSpan Root("compile.traced", Req);
  auto Ctx = std::make_shared<TermContext>();
  std::optional<std::vector<Bst>> Stages;
  {
    ScopedSpan Sp("assembleStages", Req);
    Stages = assembleStages(S, *Ctx, &Err);
  }
  if (!Stages)
    return false;
  pipeline::PassContext PC;
  PC.Chain = std::make_shared<pipeline::IrChain>(Ctx);
  for (const Bst &St : *Stages)
    PC.Stages.push_back(&St);
  // The options PipelineCache::get compiles with.
  pipeline::PipelineOptions PO;
  PO.Rbbe.ConflictBudget = 0;
  if (S.RbbeBudget != 0)
    PO.Rbbe.MaxSolverChecks = S.RbbeBudget;
  PO.FastPath = FastPathOptions::fromEnv();
  for (const std::string &Name :
       pipeline::PassManager::defaultPasses(S.Rbbe, S.Minimize)) {
    ScopedSpan Sp(Name, Req);
    if (!pipeline::PassManager({Name}).run(PC, PO, &Err))
      return false;
  }
  Runs = std::move(PC.Runs);
  return true;
}

void LayerReport::addCompile(size_t Spec, const CompileSample &S) {
  GetOverhead[Spec].push_back(S.GetOverhead);
  if (auto [It, New] = First.try_emplace(Spec, S); New)
    It->second.P.reset(); // keep the counts, not the pipeline
}

bool LayerReport::profileCompiles(const std::vector<PipelineSpec> &Specs,
                                  unsigned Reps, uint64_t &Req,
                                  std::string &Err) {
  PromSnapshot Before = PromSnapshot::take();
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t I = 0; I < Specs.size(); ++I) {
      ownReq(++Req, I);
      CompileSample S;
      if (!coldCompile(Specs[I], Req, S, Err))
        return false;
      addCompile(I, S);
      pipeline::PassManager::resetCacheForTests();
      std::vector<pipeline::PassRun> Runs;
      if (!tracedCompile(Specs[I], Req, Runs, Err))
        return false;
    }
  PromSnapshot After = PromSnapshot::take();
  double Hits = delta(Before, After, "efc_pass_cache_hits_total").value_or(0);
  PassHits += Hits;
  PassLookups +=
      Hits + delta(Before, After, "efc_pass_cache_misses_total").value_or(0);
  return true;
}

void LayerReport::window(const PromSnapshot &Before,
                         const PromSnapshot &After) {
  for (const char *S : WindowSeries)
    if (std::optional<double> D = delta(Before, After, S))
      Window[S] += *D;
}

void LayerReport::report(Result &R) const {
  // A series the program no longer exports reads as 0 and is named here.
  std::string Absent;
  auto Seen = [&](const std::string &Series, auto Has) {
    bool Any = false;
    for (auto &[Spec, S] : First)
      Any = Any || Has(S);
    if (!Any)
      Absent += " " + Series;
  };
  for (auto &[Series, Name] : CountSeries)
    Seen(Series, [&](const CompileSample &S) { return S.Counts.count(Series); });
  for (auto &[Series, Name] : PlanSeries)
    Seen(Series, [&](const CompileSample &S) { return S.Plan.count(Name); });
  for (const char *Series : WindowSeries)
    if (!Window.count(Series))
      Absent += std::string(" ") + Series;
  if (!Absent.empty())
    R.Notes.push_back("absent registry series, read as 0:" + Absent);

  // Compile side: per spec the median self time over its compiles, summed
  // over the workload's specs; counts per spec (they repeat), summed.
  const Tracer &T = Tracer::get();
  for (auto &[Span, Name] : PassSpans) {
    std::map<size_t, std::vector<double>> PerSpec;
    for (auto &[Rq, Self] : T.selfByReq(Span))
      if (auto It = ReqSpec.find(Rq); It != ReqSpec.end())
        PerSpec[It->second].push_back(Self);
    double Sum = 0;
    for (auto &[Spec, V] : PerSpec)
      Sum += median(V);
    R.metric(Name, Sum, "s");
  }
  double Overhead = 0;
  for (auto &[Spec, V] : GetOverhead)
    Overhead += median(V);
  R.metric("runtime.cache_get_overhead_s", Overhead, "s");
  for (auto &[Series, Name] : CountSeries) {
    if (!Name)
      continue;
    double Sum = 0;
    for (auto &[Spec, S] : First)
      Sum += at(S.Counts, Series);
    R.metric(Name, Sum, "count");
  }
  double Removed = 0;
  for (auto &[Spec, S] : First)
    Removed += S.StatesRemoved;
  R.metric("bst.states_removed", Removed, "count");
  for (auto &[Series, Name] : PlanSeries) {
    double Sum = 0;
    for (auto &[Spec, S] : First)
      Sum += at(S.Plan, Name);
    R.metric(Name, Sum, "count");
  }
  R.metric("pipeline.pass_cache_hit_frac",
           PassLookups > 0 ? PassHits / PassLookups : 0, "ratio");

  // Execution side: the harness's own StreamSession calls (spans on),
  // and the registry's execution counters over the timed window.
  std::map<std::string, double> Self = T.selfSeconds();
  double FeedSelf = at(Self, "StreamSession::feed");
  R.metric("runtime.open_self_s", at(Self, "StreamSession::open"), "s");
  R.metric("runtime.feed_self_s", FeedSelf, "s");
  R.metric("runtime.finish_self_s", at(Self, "StreamSession::finish"), "s");
  R.metric("runtime.feed_mb_per_s",
           FeedSelf > 0 ? SpanFedBytes / 1e6 / FeedSelf : 0, "MB/s");
  R.metric("vm.run_elem_frac",
           FedBytes > 0
               ? at(Window, "efc_fastpath_run_elements_total") / FedBytes
               : 0,
           "ratio");
  double Started = at(Window, "efc_parallel_lanes_started_total");
  R.metric("parallel.feeds", at(Window, "efc_parallel_feeds_total"), "count");
  R.metric("parallel.lanes_abandoned_frac",
           Started > 0
               ? at(Window, "efc_parallel_lanes_abandoned_total") / Started
               : 0,
           "ratio");
  R.metric("parallel.replay_elem_frac",
           FedBytes > 0
               ? at(Window, "efc_parallel_replay_elements_total") / FedBytes
               : 0,
           "ratio");

  // Serving side (0 where the workload runs no server) and the request.
  R.metric("server.queue_depth_max", QueueDepthMax, "count");
  R.metric("server.epoll_wakeups_per_frame", WakeupsPerFrame, "ratio");
  R.metric("request.p99_ms", percentile(RequestMs, 0.99), "ms");
  R.metric("trace.overhead_frac", TraceOverhead, "ratio");
  R.metric("trace.spans", double(T.spans().size()), "count");
}

} // namespace perfbench
