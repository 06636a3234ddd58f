//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <string>
#include <sys/resource.h>

namespace perfbench {

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (P == 0.5 && V.size() % 2 == 0)
    return (V[V.size() / 2 - 1] + V[V.size() / 2]) / 2;
  size_t K = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, K ? K - 1 : 0)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is in KiB
}

//===----------------------------------------------------------------------===//
// Yardstick
//===----------------------------------------------------------------------===//

void Yardstick::sample(unsigned N) {
  for (unsigned Rep = 0; Rep < N; ++Rep) {
    Clock::time_point T0 = Clock::now();
    uint64_t X = 0x9e3779b97f4a7c15ull; // xorshift64: the same work every run
    auto Next = [&X] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    std::map<std::string, uint64_t> M;
    for (int I = 0; I < 30000; ++I)
      M[std::to_string(Next() % 1000000)] += uint64_t(I);
    std::vector<uint64_t> V(150000);
    for (uint64_t &E : V)
      E = Next();
    std::sort(V.begin(), V.end());
    volatile uint64_t Sink = M.size() + V[V.size() / 2];
    (void)Sink;
    T.push_back(secondsSince(T0));
  }
}

void reportEndToEnd(Result &R, const Yardstick *Y, double LatencyMs,
                    double BulkMs, double SetupS) {
  char Note[256];
  int N = snprintf(Note, sizeof(Note),
                   "raw: latency_ms %.6g, bulk_ms %.6g, setup_s %.6g",
                   LatencyMs, BulkMs, SetupS);
  if (Y)
    snprintf(Note + N, sizeof(Note) - size_t(N),
             "; yardstick median %.3f ms over %zu samples, scale %.4f",
             Y->medianS() * 1e3, Y->samples(), Y->scale());
  R.Notes.push_back(Note);
  double K = Y ? Y->scale() : 1;
  R.metric("latency_ms", LatencyMs * K, "ms");
  R.metric("bulk_ms", BulkMs * K, "ms");
  R.metric("setup_s", SetupS * K, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
}

//===----------------------------------------------------------------------===//
// Prometheus text
//===----------------------------------------------------------------------===//

PromSnapshot PromSnapshot::take() {
  return parse(efc::metrics::Registry::instance().renderPrometheus());
}

PromSnapshot PromSnapshot::parse(std::string_view Text) {
  PromSnapshot S;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Text.size();
    std::string_view Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Sp = Line.rfind(' ');
    if (Sp == std::string_view::npos)
      continue;
    std::string_view Key = Line.substr(0, Sp);
    Row R;
    size_t Br = Key.find('{');
    if (Br == std::string_view::npos) {
      R.Name = std::string(Key);
    } else {
      R.Name = std::string(Key.substr(0, Br));
      size_t Close = Key.rfind('}');
      R.Labels = std::string(Key.substr(Br + 1, Close - Br - 1));
    }
    R.Value = std::strtod(std::string(Line.substr(Sp + 1)).c_str(), nullptr);
    S.Rows.push_back(std::move(R));
  }
  return S;
}

std::optional<double> PromSnapshot::sum(std::string_view Name) const {
  std::optional<double> Out;
  for (const Row &R : Rows)
    if (R.Name == Name)
      Out = Out.value_or(0) + R.Value;
  return Out;
}

std::optional<double> PromSnapshot::get(std::string_view Name,
                                        std::string_view Labels) const {
  for (const Row &R : Rows)
    if (R.Name == Name && R.Labels == Labels)
      return R.Value;
  return std::nullopt;
}

std::vector<std::pair<std::string, double>>
PromSnapshot::series(std::string_view Name) const {
  std::vector<std::pair<std::string, double>> Out;
  for (const Row &R : Rows)
    if (R.Name == Name)
      Out.push_back({R.Labels, R.Value});
  return Out;
}

std::optional<double> delta(const PromSnapshot &Before,
                            const PromSnapshot &After, std::string_view Name) {
  std::optional<double> A = After.sum(Name);
  if (!A)
    return std::nullopt;
  return *A - Before.sum(Name).value_or(0);
}

std::optional<double> histogramQuantile(const PromSnapshot &Before,
                                        const PromSnapshot &After,
                                        std::string_view Name, double Q) {
  std::string Bucket = std::string(Name) + "_bucket";
  auto Parse = [&](const PromSnapshot &S) {
    // (upper bound, cumulative count), summed over label variants.
    std::map<double, double> M;
    for (auto &[Labels, V] : S.series(Bucket)) {
      size_t At = Labels.find("le=\"");
      if (At == std::string::npos)
        continue;
      std::string Le = Labels.substr(At + 4, Labels.find('"', At + 4) - At - 4);
      double B = Le == "+Inf" ? INFINITY : std::strtod(Le.c_str(), nullptr);
      M[B] += V;
    }
    return M;
  };
  std::map<double, double> A = Parse(After), B = Parse(Before);
  if (A.empty())
    return std::nullopt;
  std::vector<std::pair<double, double>> Cum; // bound, cumulative delta
  for (auto &[Bound, V] : A)
    Cum.push_back({Bound, V - (B.count(Bound) ? B[Bound] : 0)});
  double Total = Cum.back().second;
  if (Total <= 0)
    return std::nullopt;
  double Want = Q * Total, PrevBound = 0, PrevCum = 0;
  for (auto &[Bound, C] : Cum) {
    if (C >= Want) {
      if (std::isinf(Bound))
        return PrevBound;
      double Frac = C > PrevCum ? (Want - PrevCum) / (C - PrevCum) : 1;
      return PrevBound + Frac * (Bound - PrevBound);
    }
    PrevBound = Bound;
    PrevCum = C;
  }
  return PrevBound;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer() : Epoch(Clock::now()) {}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

uint64_t Tracer::begin(std::string_view Name, uint64_t Req) {
  if (!On)
    return 0;
  Span S;
  S.Id = Spans.size() + 1;
  S.Parent = Open.empty() ? 0 : Spans[Open.back()].Id;
  S.Req = Req;
  S.Name = std::string(Name);
  S.T0 = now();
  Spans.push_back(std::move(S));
  Open.push_back(Spans.size() - 1);
  return Spans.back().Id;
}

void Tracer::end(uint64_t Id) {
  if (!Id)
    return;
  Spans[Id - 1].T1 = now();
  while (!Open.empty() && Spans[Open.back()].Id >= Id)
    Open.pop_back();
}

void Tracer::record(std::string_view Name, uint64_t Req, Clock::time_point T0,
                    Clock::time_point T1) {
  if (!On)
    return;
  Span S;
  S.Id = Spans.size() + 1;
  S.Req = Req;
  S.Name = std::string(Name);
  S.T0 = std::chrono::duration<double>(T0 - Epoch).count();
  S.T1 = std::chrono::duration<double>(T1 - Epoch).count();
  Spans.push_back(std::move(S));
}

namespace {
/// Child-covered time per span index.  Children nest strictly inside
/// their parent (recorded by one thread through ScopedSpan).
std::vector<double> childTime(const std::vector<Tracer::Span> &Spans) {
  std::vector<double> C(Spans.size(), 0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent)
      C[S.Parent - 1] += S.T1 - S.T0;
  return C;
}
} // namespace

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> C = childTime(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Spans[I].T1 - Spans[I].T0 - C[I];
  return Out;
}

std::map<uint64_t, double> Tracer::selfByReq(std::string_view Name) const {
  std::vector<double> C = childTime(Spans);
  std::map<uint64_t, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == Name)
      Out[Spans[I].Req] += Spans[I].T1 - Spans[I].T0 - C[I];
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path,
                        const std::string &StampJson) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  fprintf(F, "{\"stamp\":%s}\n", StampJson.c_str());
  for (const Span &S : Spans)
    fprintf(F,
            "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
            "\"start_s\":%.9f,\"end_s\":%.9f}\n",
            (unsigned long long)S.Id, (unsigned long long)S.Parent,
            (unsigned long long)S.Req, S.Name.c_str(), S.T0, S.T1);
  return fclose(F) == 0;
}

} // namespace perfbench
