//===- tests/integration/CliToolTest.cpp - efcc end-to-end ----------------===//

#include "common/TempPath.h"
#include "runtime/PipelineCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string efccPath() {
  // ctest may run from the build root or build/tests.
  for (const char *P : {"./tools/efcc", "../tools/efcc", "build/tools/efcc"}) {
    std::ifstream F(P, std::ios::binary);
    if (F.good())
      return P;
  }
  return "";
}

bool efccAvailable() { return !efccPath().empty(); }

/// Runs a shell command, captures stdout.
int runCmd(const std::string &Cmd, std::string &Out) {
  std::string File = efc::test::tempPath("out.txt");
  int Rc = std::system((Cmd + " > " + File + " 2>/dev/null").c_str());
  std::ifstream F(File);
  std::ostringstream Buf;
  Buf << F.rdbuf();
  Out = Buf.str();
  return Rc;
}

TEST(CliToolTest, CsvMaxEndToEnd) {
  if (!efccAvailable())
    GTEST_SKIP() << "efcc not built in expected location";
  std::string Csv = efc::test::tempPath("in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\nb,99,y\nc,40,z\n";
  }
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
                      " --agg max --format decimal --run " +
                  Csv, Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, "99");
}

TEST(CliToolTest, XPathSqlEndToEnd) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Xml = efc::test::tempPath("in.xml");
  {
    std::ofstream F(Xml);
    F << "<r><v>5</v><pad/><v>6</v></r>";
  }
  std::string Out;
  int Rc = runCmd(efccPath() + " --xpath /r/v --format sql --run " + Xml,
                  Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, "INSERT INTO t VALUES (5);\nINSERT INTO t VALUES (6);\n");
}

TEST(CliToolTest, EmitCppProducesCompilableSource) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Cpp = efc::test::tempPath("gen.cpp");
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?<v>\\d+)' --format decimal --emit-cpp " +
                  Cpp, Out);
  EXPECT_EQ(Rc, 0);
  // The unit must at least compile as an object file.
  std::string Obj = efc::test::tempPath("gen.o");
  int CRc = std::system(
      ("c++ -std=c++17 -c -o " + Obj + " " + Cpp + " 2>/dev/null").c_str());
  EXPECT_EQ(CRc, 0);
}

TEST(CliToolTest, RejectsInvalidInput) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = efc::test::tempPath("bad.csv");
  {
    std::ofstream F(Csv);
    F << "not matching the pattern at all";
  }
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?:(?<v>\\d+),\\n)*' --run " + Csv, Out);
  EXPECT_NE(Rc, 0);
}

/// Runs a shell command, captures stderr (stdout discarded).
int runCmdErr(const std::string &Cmd, std::string &Err) {
  std::string File = efc::test::tempPath("err.txt");
  int Rc = std::system((Cmd + " > /dev/null 2>" + File).c_str());
  std::ifstream F(File);
  std::ostringstream Buf;
  Buf << F.rdbuf();
  Err = Buf.str();
  return Rc;
}

TEST(CliToolTest, MetricsDumpOnStderr) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = efc::test::tempPath("metrics_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\nb,99,y\n";
  }
  std::string Err;
  int Rc = runCmdErr(efccPath() +
                         " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),"
                         "[^\\n]*\\n)*' --agg max --format decimal --run " +
                         Csv + " --metrics",
                     Err);
  EXPECT_EQ(Rc, 0);
  // A fresh process exercised solver, fusion, cache and fast path; all
  // must appear in the Prometheus dump.  The default opt-level does not
  // run RBBE, yet its series exist from the rbbe pass's registration.
  for (const char *Family :
       {"# TYPE efc_solver_checks_total counter", "efc_fusion_runs_total",
        "efc_rbbe_runs_total 0", "efc_rbbe_seconds_total 0",
        "efc_cache_builds_total 1", "efc_fastpath_runs_total"})
    EXPECT_NE(Err.find(Family), std::string::npos)
        << "missing from --metrics dump: " << Family << "\n" << Err;
  // --run output stays machine-clean: the dump must not be on stdout.
  std::string Out;
  runCmd(efccPath() +
             " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
             " --agg max --format decimal --run " +
             Csv + " --metrics",
         Out);
  EXPECT_EQ(Out, "99");
}

TEST(CliToolTest, TraceEmitsCompileSpanTree) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = efc::test::tempPath("trace_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\n";
  }
  std::string Trace = efc::test::tempPath("trace.jsonl");
  std::remove(Trace.c_str());
  std::string Out;
  int Rc = runCmd("EFC_TRACE=" + Trace + " " + efccPath() +
                      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),"
                      "[^\\n]*\\n)*' --agg max --format decimal"
                      " --opt-level 1 --run " +
                      Csv,
                  Out);
  EXPECT_EQ(Rc, 0);
  std::ifstream F(Trace);
  ASSERT_TRUE(F.good()) << "EFC_TRACE file was not created";
  std::ostringstream Buf;
  Buf << F.rdbuf();
  std::string Spans = Buf.str();
  // The compile-phase tree: a root "compile" span with fuse, rbbe,
  // vm_compile and fastpath_plan children.
  for (const char *Name : {"\"name\":\"compile\"", "\"name\":\"fuse\"",
                           "\"name\":\"rbbe\"", "\"name\":\"vm_compile\"",
                           "\"name\":\"fastpath_plan\""})
    EXPECT_NE(Spans.find(Name), std::string::npos)
        << "missing span: " << Name << "\n" << Spans;
  // Children carry a parent id; the root must not.
  size_t CompileLine = Spans.find("\"name\":\"compile\"");
  ASSERT_NE(CompileLine, std::string::npos);
  size_t LineStart = Spans.rfind('\n', CompileLine);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  size_t LineEnd = Spans.find('\n', CompileLine);
  std::string Root = Spans.substr(LineStart, LineEnd - LineStart);
  EXPECT_EQ(Root.find("\"parent\""), std::string::npos) << Root;
  size_t FuseLine = Spans.find("\"name\":\"fuse\"");
  std::string Fuse =
      Spans.substr(FuseLine, Spans.find('\n', FuseLine) - FuseLine);
  EXPECT_NE(Fuse.find("\"parent\":"), std::string::npos) << Fuse;
}

TEST(CliToolTest, UsageErrors) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Out;
  EXPECT_NE(runCmd(efccPath(), Out), 0);
  EXPECT_NE(runCmd(efccPath() + " --regex a --xpath /b --stats", Out), 0);
  EXPECT_NE(runCmd(efccPath() + " --regex a --agg bogus --stats", Out), 0);
}

TEST(CliToolTest, ParallelFlagErrors) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = efc::test::tempPath("par_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\nb,99,y\n";
  }
  const std::string Rx =
      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
      " --agg max --format decimal";
  // Contradictory combinations are usage errors (exit 2), never silent
  // sequential runs.
  std::string Err;
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --run " + Csv +
                          " --parallel 4 --backend vm",
                      Err),
            2 << 8);
  EXPECT_NE(Err.find("fastpath"), std::string::npos) << Err;
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --run " + Csv + " --parallel 0",
                      Err),
            2 << 8);
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --run " + Csv + " --parallel -2",
                      Err),
            2 << 8);
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --run " + Csv + " --parallel x",
                      Err),
            2 << 8);
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --parallel 4 --stats", Err),
            2 << 8);
  EXPECT_NE(Err.find("--run"), std::string::npos) << Err;
  // A 2-line input is far below EFC_PARALLEL_MIN_BYTES: refuse loudly.
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --run " + Csv + " --parallel 4",
                      Err),
            2 << 8);
  EXPECT_NE(Err.find("too small"), std::string::npos) << Err;
}

TEST(CliToolTest, ParallelRunMatchesSequential) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = efc::test::tempPath("par_big.csv");
  {
    std::ofstream F(Csv);
    for (int I = 0; I < 2000; ++I)
      F << "row" << I << "," << (I * 7) % 10000 << ",tail\n";
  }
  const std::string Rx =
      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
      " --agg max --format decimal";
  std::string Seq, Par;
  EXPECT_EQ(runCmd(efccPath() + Rx + " --run " + Csv, Seq), 0);
  // Lower the eligibility floor so this test input parallelizes.
  EXPECT_EQ(runCmd("EFC_PARALLEL_MIN_BYTES=1024 " + efccPath() + Rx +
                       " --run " + Csv + " --parallel 4",
                   Par),
            0);
  EXPECT_EQ(Seq, Par);
  EXPECT_EQ(Seq, "9996");
}

const char *const CsvMaxRegex =
    "(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*";

/// `efcc --explain-passes` over the CSV-max pipeline, plus \p Flags.
std::string explainPasses(const std::string &Flags) {
  std::string Out;
  EXPECT_EQ(runCmd(efccPath() + " --regex '" + CsvMaxRegex +
                       "' --agg max --format decimal --explain-passes" +
                       Flags,
                   Out),
            0)
      << Flags;
  return Out;
}

/// One "  ran NAME: ..." line of `efcc --explain-passes`.
struct RanLine {
  std::string Pass;
  unsigned StatesIn = 0, StatesOut = 0, BranchesIn = 0, BranchesOut = 0;
  unsigned long long Checks = 0;
};

std::vector<RanLine> ranLines(const std::string &Explain) {
  std::vector<RanLine> Lines;
  std::istringstream In(Explain);
  for (std::string L; std::getline(In, L);) {
    char Name[64];
    unsigned long long InH, OutH;
    double Secs;
    RanLine R;
    if (L.rfind("  ran ", 0) != 0)
      continue;
    int N = sscanf(L.c_str(),
                   "  ran %63[^:]: in=%llx out=%llx %lfs states %u->%u "
                   "branches %u->%u checks %llu",
                   Name, &InH, &OutH, &Secs, &R.StatesIn, &R.StatesOut,
                   &R.BranchesIn, &R.BranchesOut, &R.Checks);
    EXPECT_EQ(N, 9) << "unparsed pass line: " << L;
    R.Pass = Name;
    Lines.push_back(R);
  }
  return Lines;
}

std::vector<std::string> passNames(const std::vector<RanLine> &Lines) {
  std::vector<std::string> Names;
  for (const RanLine &R : Lines)
    Names.push_back(R.Pass);
  return Names;
}

/// The pass list PipelineCache::get runs for \p Spec.
std::vector<std::string> cachePasses(const efc::runtime::PipelineSpec &Spec) {
  efc::runtime::PipelineCache Cache(1);
  std::string Err;
  auto P = Cache.get(Spec, /*WantNative=*/false, &Err);
  EXPECT_TRUE(P) << Err;
  std::vector<std::string> Names;
  if (P)
    for (const efc::pipeline::PassRun &R : P->PassRuns)
      Names.push_back(R.PassName);
  return Names;
}

// efcc's --opt-level ladder and PipelineSpec select the same passes:
// level 0 = {}, 1 = {Rbbe}, 2 = {Minimize} at the default Rbbe.  A
// client's spec then compiles exactly what the matching efcc level does.
TEST(CliToolTest, OptLevelLadderMatchesPipelineSpec) {
  if (!efccAvailable())
    GTEST_SKIP();
  const std::vector<std::string> Plans = {"vm_compile", "fastpath_plan",
                                          "parallel_plan"};
  auto withPlans = [&](std::vector<std::string> Ir) {
    Ir.insert(Ir.end(), Plans.begin(), Plans.end());
    return Ir;
  };
  const std::vector<std::vector<std::string>> Want = {
      withPlans({"fuse"}), withPlans({"fuse", "rbbe"}),
      withPlans({"fuse", "rbbe", "minimize"})};

  efc::runtime::PipelineSpec Base;
  Base.Pattern = CsvMaxRegex;
  Base.Agg = "max";
  Base.Format = "decimal";
  efc::runtime::PipelineSpec Level[3] = {Base, Base, Base};
  Level[1].Rbbe = true;
  Level[2].Minimize = true;

  for (unsigned L = 0; L < 3; ++L) {
    std::vector<std::string> Efcc =
        passNames(ranLines(explainPasses(" --opt-level " + std::to_string(L))));
    EXPECT_EQ(Efcc, Want[L]) << "efcc --opt-level " << L;
    EXPECT_EQ(cachePasses(Level[L]), Want[L]) << "PipelineSpec, level " << L;
  }

  // Neither the default efcc nor the default spec runs rbbe.
  EXPECT_EQ(passNames(ranLines(explainPasses(""))), Want[0]);
  EXPECT_EQ(cachePasses(Base), Want[0]);

  // minimize=1 is level 2 on the wire too, even beside rbbe=0.
  std::string Err;
  auto Parsed = efc::runtime::PipelineSpec::parse(
      "frontend=regex\npattern=" + std::string(CsvMaxRegex) +
          "\nagg=max\nformat=decimal\nrbbe=0\nminimize=1\n",
      &Err);
  ASSERT_TRUE(Parsed) << Err;
  EXPECT_EQ(cachePasses(*Parsed), Want[2]);
}

// --explain-passes prints each pass's effect beside its time, so a pass
// that costs much and removes nothing shows without a benchmark.
TEST(CliToolTest, ExplainPassesShowsEachPassEffect) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::vector<RanLine> Lines = ranLines(explainPasses(" --opt-level 2"));
  ASSERT_EQ(Lines.size(), 6u);
  const RanLine &Fuse = Lines[0], &Rbbe = Lines[1], &Min = Lines[2];
  ASSERT_EQ(Fuse.Pass, "fuse");
  // fuse starts from no IR and spends solver checks pruning the product.
  EXPECT_EQ(Fuse.StatesIn, 0u);
  EXPECT_EQ(Fuse.BranchesIn, 0u);
  EXPECT_GT(Fuse.StatesOut, 0u);
  EXPECT_GT(Fuse.BranchesOut, 0u);
  EXPECT_GT(Fuse.Checks, 0u);
  // rbbe enters with what fuse left and may only remove.
  ASSERT_EQ(Rbbe.Pass, "rbbe");
  EXPECT_EQ(Rbbe.StatesIn, Fuse.StatesOut);
  EXPECT_EQ(Rbbe.BranchesIn, Fuse.BranchesOut);
  EXPECT_LE(Rbbe.StatesOut, Rbbe.StatesIn);
  EXPECT_LE(Rbbe.BranchesOut, Rbbe.BranchesIn);
  EXPECT_GT(Rbbe.Checks, 0u);
  // minimize uses no solver.
  ASSERT_EQ(Min.Pass, "minimize");
  EXPECT_EQ(Min.StatesIn, Rbbe.StatesOut);
  EXPECT_LE(Min.StatesOut, Min.StatesIn);
  EXPECT_EQ(Min.Checks, 0u);
  // Plan passes leave the IR as it is.
  for (size_t I = 3; I < Lines.size(); ++I) {
    EXPECT_EQ(Lines[I].StatesIn, Lines[I].StatesOut) << Lines[I].Pass;
    EXPECT_EQ(Lines[I].BranchesIn, Min.BranchesOut) << Lines[I].Pass;
    EXPECT_EQ(Lines[I].BranchesOut, Min.BranchesOut) << Lines[I].Pass;
    EXPECT_EQ(Lines[I].Checks, 0u) << Lines[I].Pass;
  }
}

// Off-ladder requests are usage errors, not silently different compiles.
TEST(CliToolTest, RemovedAndOffLadderFlagsAreRejected) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Err;
  const std::string Rx = std::string(" --regex '") + CsvMaxRegex + "'";
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --no-rbbe --stats", Err), 2 << 8);
  EXPECT_NE(Err.find("unknown option '--no-rbbe'"), std::string::npos)
      << Err;
  EXPECT_EQ(runCmdErr(efccPath() + Rx + " --passes fuse,minimize --stats",
                      Err),
            2 << 8);
  EXPECT_NE(Err.find("minimize runs after rbbe"), std::string::npos) << Err;
}

} // namespace
