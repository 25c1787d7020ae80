//===- perfbench/src/Spans.cpp - Layer spans of the traced run ----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Common.h"

#include "obs/Json.h"

#include <fstream>

using namespace perfbench;
namespace json = stird::obs::json;

SpanRecorder *perfbench::Tracer = nullptr;

namespace {
/// Innermost open span of the calling thread.
thread_local long OpenSpan = -1;

std::int64_t steadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}
} // namespace

SpanRecorder::SpanRecorder() : Epoch(steadyMicros()) {}

double SpanRecorder::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
             .count() -
         static_cast<double>(Epoch);
}

long SpanRecorder::begin(std::string Name, std::uint64_t Request) {
  const double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  const long Parent = OpenSpan;
  if (Parent >= 0 && Request == 0)
    Request = List[Parent].Request;
  List.push_back({std::move(Name), Now, Now, Parent, Request});
  OpenSpan = static_cast<long>(List.size()) - 1;
  return OpenSpan;
}

void SpanRecorder::end(long Id) {
  const double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  List[Id].EndUs = Now;
  OpenSpan = List[Id].Parent;
}

long SpanRecorder::add(std::string Name, double StartUs, double EndUs,
                       long Parent, std::uint64_t Request) {
  std::lock_guard<std::mutex> Lock(M);
  if (Parent >= 0 && Request == 0)
    Request = List[Parent].Request;
  List.push_back({std::move(Name), StartUs, EndUs, Parent, Request});
  return static_cast<long>(List.size()) - 1;
}

double SpanRecorder::startUs(long Id) const {
  std::lock_guard<std::mutex> Lock(M);
  return List[Id].StartUs;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return List.size();
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(M);
  // Children of one span run one after another on the parent's thread
  // (imported engine spans nest the same way), so their durations add.
  std::vector<double> Covered(List.size(), 0);
  for (const Span &S : List)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I < List.size(); ++I) {
    const double Own = List[I].EndUs - List[I].StartUs - Covered[I];
    Self[List[I].Name] += std::max(0.0, Own) / 1e6;
  }
  return Self;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  json::Array Spans;
  Spans.reserve(List.size());
  for (const Span &S : List)
    Spans.push_back(json::Object{{"name", S.Name},
                                 {"start_us", S.StartUs},
                                 {"end_us", S.EndUs},
                                 {"parent", static_cast<std::int64_t>(S.Parent)},
                                 {"request", S.Request}});
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << json::Value(json::Object{{"schema", "stird-perfbench-spans-v1"},
                                  {"spans", std::move(Spans)}})
             .dump()
      << '\n';
  return static_cast<bool>(Out);
}
