//===- tests/integration/CliToolTest.cpp - efcc end-to-end ----------------===//

#include "common/TempPath.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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
  // A fresh process exercised solver, fusion, RBBE, cache and fast path;
  // all must appear in the Prometheus dump.
  for (const char *Family :
       {"# TYPE efc_solver_checks_total counter", "efc_fusion_runs_total",
        "efc_rbbe_runs_total 1", "efc_cache_builds_total 1",
        "efc_fastpath_runs_total"})
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
                      "[^\\n]*\\n)*' --agg max --format decimal --run " +
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

} // namespace
