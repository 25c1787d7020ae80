//===- perfbench/src/main.cpp - Benchmark driver entry point ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stird_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 --work-dir DIR
///
/// Runs one workload and prints one JSON object on its last stdout line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
/// value, ...}}. run.py attaches units and checks the metric names against
/// BENCHMARK.json. Exits 1 when any check failed, 2 on a usage error.
///
/// stird_perfbench --evaluate-once FILE FACT_DIR THREADS
///
/// The one-shot workloads' peak_rss_mb probe: compiles FILE, evaluates it
/// once over FACT_DIR, and prints the process's peak resident set in KiB.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Spans.h"
#include "Workloads.h"

#include "core/Program.h"
#include "obs/Json.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
namespace json = stird::obs::json;

double perfbench::currentRssMb() {
  std::ifstream Statm("/proc/self/statm");
  double Pages = 0, Resident = 0;
  Statm >> Pages >> Resident;
  static const double PageMb =
      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  return Resident * PageMb;
}

double perfbench::peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

double perfbench::evaluationPeakRssMb(const std::string &SourceFile,
                                      const std::string &FactDir,
                                      std::size_t Threads) {
  const std::string Self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string ThreadArg = std::to_string(Threads);
  const char *Args[] = {Self.c_str(),    "--evaluate-once", SourceFile.c_str(),
                        FactDir.c_str(), ThreadArg.c_str(), nullptr};
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return 0;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  pid_t Pid = 0;
  const int Spawned = posix_spawn(&Pid, Self.c_str(), &Actions, nullptr,
                                  const_cast<char *const *>(Args), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  std::string Output;
  char Buffer[256];
  while (Spawned == 0) {
    const ssize_t N = ::read(Pipe[0], Buffer, sizeof Buffer);
    if (N > 0)
      Output.append(Buffer, static_cast<std::size_t>(N));
    else if (N == 0 || errno != EINTR)
      break;
  }
  ::close(Pipe[0]);
  if (Spawned != 0)
    return 0;
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return 0;
  return std::strtod(Output.c_str(), nullptr) / 1024.0;
}

namespace {

/// --evaluate-once: one compilation and evaluation, then VmHWM (KiB) on
/// stdout. The high-water mark of this process's own image, unlike
/// getrusage's, which also counts the image it was spawned from.
int evaluateOnce(const std::string &SourceFile, const std::string &FactDir,
                 const std::string &Threads) {
  std::ifstream In(SourceFile, std::ios::binary);
  std::stringstream Source;
  Source << In.rdbuf();
  auto Compiled = stird::core::Program::fromSource(Source.str());
  if (!In || !Compiled)
    return 1;
  stird::interp::EngineOptions Options;
  Options.FactDir = FactDir;
  Options.OutputDir = FactDir;
  Options.EchoPrintSize = false;
  Options.NumThreads = std::strtoull(Threads.c_str(), nullptr, 10);
  auto Eng = Compiled->makeEngine(Options);
  Eng->run();
  if (!Eng->getIoErrors().empty())
    return 1;
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::printf("%s\n", Line.substr(6).c_str());
      return 0;
    }
  return 1;
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "stird_perfbench: %s\n"
               "usage: stird_perfbench --workload paper-suite|program-scale|"
               "parallel-skew|serve-churn --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               Message);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 5 && std::string(Argv[1]) == "--evaluate-once")
    return evaluateOnce(Argv[2], Argv[3], Argv[4]);
  RunConfig Config;
  bool HaveWorkload = false, HaveWorkDir = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Config.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Config.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End)
        return usage("--seed takes a whole number");
    } else if (Arg == "--seconds") {
      Config.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(Config.Seconds > 0))
        return usage("--seconds takes a positive number");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Config.Trace = Value == "1";
    } else if (Arg == "--work-dir") {
      Config.WorkDir = Value;
      HaveWorkDir = true;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveWorkload || !HaveWorkDir)
    return usage("--workload and --work-dir are required");

  Outcome (*Run)(const RunConfig &) = nullptr;
  if (Config.Workload == "paper-suite")
    Run = runPaperSuite;
  else if (Config.Workload == "program-scale")
    Run = runProgramScale;
  else if (Config.Workload == "parallel-skew")
    Run = runParallelSkew;
  else if (Config.Workload == "serve-churn")
    Run = runServeChurn;
  else
    return usage(("unknown workload " + Config.Workload).c_str());

  Config.WorkDir += "/" + Config.Workload;
  std::filesystem::remove_all(Config.WorkDir);
  std::filesystem::create_directories(Config.WorkDir);

  SpanRecorder Recorder;
  if (Config.Trace)
    Tracer = &Recorder;
  Outcome Out = Run(Config);
  if (Config.Trace) {
    const std::string SpanFile = Config.WorkDir + "/spans.json";
    Recorder.write(SpanFile);
    std::fprintf(stderr, "stird_perfbench: %zu spans written to %s\n",
                 Recorder.size(), SpanFile.c_str());
    std::fprintf(stderr, "self time by span:\n");
    for (const auto &[Name, Seconds] : Recorder.selfSeconds())
      std::fprintf(stderr, "  %-36s %12.6f s\n", Name.c_str(), Seconds);
    Tracer = nullptr;
  }

  for (const std::string &Error : Out.Errors)
    std::fprintf(stderr, "stird_perfbench: check failed: %s\n",
                 Error.c_str());
  json::Object Metrics;
  for (const auto &[Name, Value] : Out.Metrics)
    Metrics.emplace_back(Name, Value);
  const bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  json::Value Result(json::Object{{"correct", Correct},
                                  {"attempted", Out.Attempted},
                                  {"failed", Out.Failed},
                                  {"metrics", std::move(Metrics)}});
  std::printf("%s\n", Result.dump().c_str());
  return Correct ? 0 : 1;
}
