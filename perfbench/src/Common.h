//===- perfbench/src/Common.h - Benchmark driver utilities -------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver: the seeded generator, clocks,
/// order statistics, resident-memory readings, and the outcome every
/// workload fills: its metrics and the counts behind `correct`,
/// `attempted` and `failed`.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_PERFBENCH_COMMON_H
#define STIRD_PERFBENCH_COMMON_H

#include "util/RamTypes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using stird::DynTuple;
using stird::RamDomain;

/// SplitMix64: identical streams on every platform and standard library,
/// unlike the std:: distributions.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound).
  RamDomain below(std::uint64_t Bound) {
    return static_cast<RamDomain>(next() % Bound);
  }
  /// Uniform in [Lo, Hi].
  RamDomain range(RamDomain Lo, RamDomain Hi) {
    return Lo + below(static_cast<std::uint64_t>(Hi - Lo + 1));
  }
  /// True with probability Pct / 100.
  bool chance(unsigned Pct) { return next() % 100 < Pct; }

private:
  std::uint64_t State;
};

/// Derives an independent stream seed for one generated input.
inline std::uint64_t subSeed(std::uint64_t Seed, std::uint64_t Salt) {
  return Rng(Seed * 0x100000001B3ULL ^ (Salt + 0x51ED270B27ULL)).next();
}

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// The \p Q quantile (0..1) of \p Values by nearest rank; 0 when empty.
inline double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  std::size_t Rank = static_cast<std::size_t>(Q * Values.size());
  return Values[std::min(Rank, Values.size() - 1)];
}

inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  const std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

inline double sum(const std::vector<double> &Values) {
  double S = 0;
  for (double V : Values)
    S += V;
  return S;
}

/// Current resident set size of this process in MiB (/proc/self/statm).
double currentRssMb();

/// Peak resident set size of this process so far in MiB (the kernel's
/// high-water mark, getrusage). Workloads read it before their
/// correctness references run, so the references never raise it.
double peakRssMb();

/// Runs this driver in a fresh process that compiles \p SourceFile,
/// evaluates it once over the fact files in \p FactDir on \p Threads
/// threads and reports its own peak resident set (VmHWM). Returns that
/// peak in MiB, or 0 when the process failed. Waits for the process.
double evaluationPeakRssMb(const std::string &SourceFile,
                           const std::string &FactDir, std::size_t Threads);

/// What every workload returns: measured metrics by name, and the count
/// of checked operations and of those that failed (a wrong result, an
/// error reply, a refused request).
struct Outcome {
  std::map<std::string, double> Metrics;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void set(const std::string &Name, double Value) { Metrics[Name] = Value; }
  /// Records one checked operation.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Errors.size() < 20)
        Errors.push_back(What);
    }
  }
};

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for fact files and trace output, inside the
  /// checkout.
  std::string WorkDir;
};

/// Sorted copy, for comparing relation contents regardless of the order
/// a backend enumerates them in.
inline std::vector<DynTuple> sorted(std::vector<DynTuple> Tuples) {
  std::sort(Tuples.begin(), Tuples.end());
  return Tuples;
}

} // namespace perfbench

#endif // STIRD_PERFBENCH_COMMON_H
