//===- perfbench/src/Inputs.cpp -------------------------------------------===//

#include "Inputs.h"

#include "bench/baselines/XmlLib.h"
#include "data/Datasets.h"

#include <cstdio>
#include <stdexcept>

using namespace efc;

namespace perfbench {

const char *const EchoSpecText = "frontend=regex\n"
                                 "pattern=(?:(?<v>\\d+)|\\n)*\n"
                                 "agg=none\n"
                                 "format=lines\n";

namespace {

BenchSpec csvSpec(std::string Name, BenchSpec::Data Src, unsigned Column,
                  std::string Agg, std::string Format, bool Minimize = false) {
  BenchSpec B;
  B.Name = std::move(Name);
  B.Source = Src;
  B.Column = Column;
  B.Spec.Kind = runtime::PipelineSpec::Frontend::Regex;
  B.Spec.Pattern = "(?:(?:[^,\\n]*,){" + std::to_string(Column) +
                   "}(?<v>\\d+),[^\\n]*\\n)*";
  B.Spec.Agg = std::move(Agg);
  B.Spec.Format = std::move(Format);
  B.Spec.Minimize = Minimize;
  return B;
}

BenchSpec xmlSpec(std::string Name, BenchSpec::Data Src, std::string Query,
                  std::string Agg, std::string Format, bool Minimize = false) {
  BenchSpec B;
  B.Name = std::move(Name);
  B.Source = Src;
  B.Query = Query;
  B.Spec.Kind = runtime::PipelineSpec::Frontend::XPath;
  B.Spec.Pattern = std::move(Query);
  B.Spec.Agg = std::move(Agg);
  B.Spec.Format = std::move(Format);
  B.Spec.Minimize = Minimize;
  return B;
}

std::vector<BenchSpec> buildSpecs() {
  using D = BenchSpec::Data;
  return {
      csvSpec("csv-max", D::Csv, 5, "max", "decimal"),
      csvSpec("chsi-deaths", D::Chsi, 3, "max", "lines"),
      csvSpec("sbo-receipts", D::Sbo, 6, "min", "decimal"),
      csvSpec("cc-id", D::Cc, 0, "max", "decimal"),
      csvSpec("cc-ids", D::Cc, 0, "none", "lines"),
      xmlSpec("tpcdi-account", D::TpcDi, "/customers/customer/account", "max",
              "sql"),
      xmlSpec("pir-length", D::Pir, "/proteins/protein/length", "max",
              "lines"),
      xmlSpec("dblp-years", D::Dblp, "/dblp/article/year", "none", "lines"),
      xmlSpec("mondial-pop", D::Mondial, "/mondial/country/city/population",
              "min", "sql"),
      csvSpec("csv-max-o2", D::Csv, 5, "max", "decimal", /*Minimize=*/true),
      xmlSpec("dblp-oldest-o2", D::Dblp, "/dblp/article/year", "min",
              "decimal", /*Minimize=*/true),
  };
}

std::string formatValue(const std::string &Format, uint32_t V) {
  std::string D = std::to_string(V);
  if (Format == "lines")
    return D + "\n";
  if (Format == "sql")
    return "INSERT INTO t VALUES (" + D + ");\n";
  return D;
}

/// Aggregates then formats, the way the pipeline's tail stages do.
std::optional<std::string> finishValues(const runtime::PipelineSpec &Spec,
                                        const std::vector<uint32_t> &Vals) {
  std::string Out;
  if (Spec.Agg == "none") {
    for (uint32_t V : Vals)
      Out += formatValue(Spec.Format, V);
    return Out;
  }
  if (Vals.empty())
    return std::nullopt;
  uint32_t A = Vals[0];
  for (uint32_t V : Vals)
    A = Spec.Agg == "max" ? std::max(A, V) : std::min(A, V);
  return formatValue(Spec.Format, A);
}

/// Decimal digits to a 32-bit value, wrapping like the ToInt stage.
std::optional<uint32_t> parseDigits(const char *B, const char *E) {
  if (B == E)
    return std::nullopt;
  uint32_t V = 0;
  for (; B != E; ++B) {
    if (*B < '0' || *B > '9')
      return std::nullopt;
    V = V * 10 + uint32_t(*B - '0');
  }
  return V;
}

std::optional<std::vector<uint32_t>> csvColumn(const std::string &In,
                                               unsigned Column) {
  std::vector<uint32_t> Vals;
  size_t Pos = 0;
  while (Pos < In.size()) {
    size_t Eol = In.find('\n', Pos);
    if (Eol == std::string::npos)
      return std::nullopt; // rows are newline-terminated
    size_t F = Pos;
    for (unsigned C = 0; C < Column; ++C) {
      F = In.find(',', F);
      if (F == std::string::npos || F > Eol)
        return std::nullopt;
      ++F;
    }
    size_t FEnd = In.find(',', F);
    if (FEnd == std::string::npos || FEnd > Eol)
      return std::nullopt;
    std::optional<uint32_t> V = parseDigits(In.data() + F, In.data() + FEnd);
    if (!V)
      return std::nullopt;
    Vals.push_back(*V);
    Pos = Eol + 1;
  }
  return Vals;
}

std::optional<std::vector<uint32_t>> xmlValues(const std::string &In,
                                               const std::string &Query) {
  std::u16string Doc(In.begin(), In.end()); // generated XML is ASCII
  auto Texts = baselines::streamingXPath(Doc, baselines::splitPath(Query));
  if (!Texts)
    return std::nullopt;
  std::vector<uint32_t> Vals;
  for (const std::u16string &T : *Texts) {
    std::string A(T.begin(), T.end());
    std::optional<uint32_t> V = parseDigits(A.data(), A.data() + A.size());
    if (!V)
      return std::nullopt;
    Vals.push_back(*V);
  }
  return Vals;
}

} // namespace

const std::vector<BenchSpec> &allSpecs() {
  static const std::vector<BenchSpec> Specs = buildSpecs();
  return Specs;
}

const BenchSpec &specNamed(const std::string &Name) {
  for (const BenchSpec &S : allSpecs())
    if (S.Name == Name)
      return S;
  throw std::invalid_argument("unknown benchmark spec " + Name);
}

std::string makeInput(const BenchSpec &S, uint64_t Seed, size_t Bytes) {
  using D = BenchSpec::Data;
  switch (S.Source) {
  case D::Csv:
    return data::makeCsv(Seed, Bytes, 10, S.Column, 1000000);
  case D::Chsi:
    return data::makeChsiCsv(Seed, Bytes, S.Column);
  case D::Sbo:
    return data::makeSboCsv(Seed, Bytes, S.Column);
  case D::Cc:
    return data::makeCcCsv(Seed, Bytes);
  case D::TpcDi:
    return data::makeTpcDiXml(Seed, Bytes);
  case D::Pir:
    return data::makePirXml(Seed, Bytes);
  case D::Dblp:
    return data::makeDblpXml(Seed, Bytes);
  case D::Mondial:
    return data::makeMondialXml(Seed, Bytes);
  }
  return {};
}

std::optional<std::string> referenceOutput(const BenchSpec &S,
                                           const std::string &Input) {
  std::optional<std::vector<uint32_t>> Vals =
      S.Query.empty() ? csvColumn(Input, S.Column) : xmlValues(Input, S.Query);
  if (!Vals)
    return std::nullopt;
  return finishValues(S.Spec, *Vals);
}

void DigitLinesRef::feed(const char *Bytes, size_t N, std::string &Out) {
  for (size_t I = 0; I < N; ++I) {
    char Ch = Bytes[I];
    if (Ch >= '0' && Ch <= '9') {
      Acc = Acc * 10 + uint32_t(Ch - '0');
      InRun = true;
    } else {
      finish(Out);
    }
  }
}

void DigitLinesRef::finish(std::string &Out) {
  if (!InRun)
    return;
  Out += std::to_string(Acc);
  Out += '\n';
  Acc = 0;
  InRun = false;
}

} // namespace perfbench
