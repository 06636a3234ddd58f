//===- tests/common/RegistryDelta.h - Registry deltas -----------*- C++ -*-===//
//
// Every suite in a test binary shares the one process-wide metrics
// registry, so a test asserts on what its own work added — a delta taken
// around it — and never on an absolute value, which depends on the tests
// that ran before it in the same process.
//
//===----------------------------------------------------------------------===//

#ifndef EFC_TESTS_COMMON_REGISTRYDELTA_H
#define EFC_TESTS_COMMON_REGISTRYDELTA_H

#include "support/Metrics.h"

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

namespace efc::test {

class RegistryDelta {
public:
  RegistryDelta() : Before(sums()) {}

  /// Growth of series \p Name since construction, summed over its label
  /// variants (e.g. every shard="N" of a per-shard family).
  double operator()(std::string_view Name) const {
    return at(sums(), Name) - at(Before, Name);
  }

  /// Per series name, the sum over label variants of the current
  /// Prometheus exposition.
  static std::map<std::string, double, std::less<>> sums() {
    std::map<std::string, double, std::less<>> S;
    std::string Text = metrics::Registry::instance().renderPrometheus();
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      if (Eol == std::string::npos)
        Eol = Text.size();
      std::string_view Line(Text.data() + Pos, Eol - Pos);
      Pos = Eol + 1;
      size_t Sp = Line.rfind(' ');
      if (Line.empty() || Line[0] == '#' || Sp == std::string_view::npos)
        continue;
      std::string_view Name = Line.substr(0, Line.find_first_of("{ "));
      S[std::string(Name)] +=
          std::strtod(std::string(Line.substr(Sp + 1)).c_str(), nullptr);
    }
    return S;
  }

private:
  static double at(const std::map<std::string, double, std::less<>> &S,
                   std::string_view Name) {
    auto It = S.find(Name);
    return It == S.end() ? 0 : It->second;
  }

  std::map<std::string, double, std::less<>> Before;
};

} // namespace efc::test

#endif // EFC_TESTS_COMMON_REGISTRYDELTA_H
