//===- tests/common/TempPath.h - Per-test temporary paths -------*- C++ -*-===//
//
// Temporary file names private to the running test: `ctest -j` runs the
// tests of one binary in parallel processes that share TempDir(), so a
// fixed file name there is a race between them.
//
//===----------------------------------------------------------------------===//

#ifndef EFC_TESTS_COMMON_TEMPPATH_H
#define EFC_TESTS_COMMON_TEMPPATH_H

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace efc::test {

/// TempDir()/<suite>.<test>.<Leaf>, with '/' of parameterized names
/// replaced so the result is one file name.
inline std::string tempPath(const std::string &Leaf) {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = std::string(T->test_suite_name()) + "." + T->name();
  std::replace(Name.begin(), Name.end(), '/', '_');
  return ::testing::TempDir() + "/" + Name + "." + Leaf;
}

} // namespace efc::test

#endif // EFC_TESTS_COMMON_TEMPPATH_H
