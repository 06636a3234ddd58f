//===- perfbench/src/Inputs.h - Specs, inputs and references ----*- C++ -*-===//
///
/// \file
/// The paper's regex and XPath pipelines as runtime::PipelineSpecs, the
/// seeded input each one reads (src/data generators), and a hand-written
/// reference computation of its expected output.  The expected output is
/// never produced by the compiler under test: CSV specs are answered by
/// splitting rows on commas, XPath specs by the bench/baselines streaming
/// XML engine.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_INPUTS_H
#define EFC_PERFBENCH_INPUTS_H

#include "runtime/PipelineCache.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct BenchSpec {
  std::string Name;
  efc::runtime::PipelineSpec Spec;
  /// Which src/data generator makes the input, and (CSV) its geometry.
  enum class Data { Csv, Chsi, Sbo, Cc, TpcDi, Pir, Dblp, Mondial } Source;
  unsigned Column = 0; ///< queried CSV column (CSV sources)
  std::string Query;   ///< XPath query (XML sources)
};

/// Every spec the benchmark knows, by name (compile set and batch set
/// draw from it).
const std::vector<BenchSpec> &allSpecs();
const BenchSpec &specNamed(const std::string &Name);

/// Seeded input of roughly \p Bytes bytes for \p S.
std::string makeInput(const BenchSpec &S, uint64_t Seed, size_t Bytes);

/// Expected pipeline output for \p Input, computed without the compiler.
/// nullopt when the reference itself cannot parse the input.
std::optional<std::string> referenceOutput(const BenchSpec &S,
                                           const std::string &Input);

/// Digit-run-to-lines reference used by the serve workload's echo spec
/// (`(?:(?<v>\d+)|\n)*`, agg none, format lines), fed incrementally.
class DigitLinesRef {
public:
  /// Appends to \p Out the lines completed by \p Bytes.
  void feed(const char *Bytes, size_t N, std::string &Out);
  /// Flushes a trailing digit run.
  void finish(std::string &Out);

private:
  uint32_t Acc = 0;
  bool InRun = false;
};

/// The serve workload's pipeline spec text (OPEN frame body).
extern const char *const EchoSpecText;

} // namespace perfbench

#endif // EFC_PERFBENCH_INPUTS_H
