//===- perfbench/src/OneShot.cpp - paper-suite, program-scale, parallel-skew -===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot workloads: each evaluation compiles a program from source
/// (set-up), runs it over fact files read through its own `.input`
/// directives (evaluation), and is checked against a reference outside
/// the timed sections — the legacy executor for the paper-shaped programs,
/// the generator's closed-form contents for program-scale.
///
/// An untraced run repeats passes over the workload's programs for the
/// measured window and reports, per program, the fastest of its set-ups
/// and of its evaluations in the window, summed over the programs; its
/// peak resident set comes from fresh processes that each evaluate one
/// program once. A traced run spends half the window on untraced passes
/// (the base of obs.trace_overhead) and half on traced ones, which also
/// call each compilation phase separately so that its time can be
/// attributed.
///
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Spans.h"
#include "Workloads.h"

#include "ast/Parser.h"
#include "ast/SemanticAnalysis.h"
#include "core/Program.h"
#include "interp/Scheduler.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "ram/Transforms.h"
#include "translate/AstToRam.h"

#include <filesystem>
#include <fstream>
#include <functional>

using namespace perfbench;
using namespace stird;
namespace json = stird::obs::json;

namespace {

/// Runs \p Fn inside a span named \p Name and returns its wall seconds.
template <class F> double timed(const char *Name, F &&Fn) {
  SpanScope Span(Name);
  const auto From = Clock::now();
  Fn();
  return secondsSince(From);
}

std::string writeFacts(const std::string &Dir, const Program &P) {
  std::filesystem::create_directories(Dir);
  for (const auto &[Relation, Tuples] : P.Facts) {
    std::ofstream Out(Dir + "/" + Relation + ".facts",
                      std::ios::binary | std::ios::trunc);
    for (const DynTuple &Tuple : Tuples) {
      for (std::size_t I = 0; I < Tuple.size(); ++I)
        Out << (I ? "\t" : "") << Tuple[I];
      Out << '\n';
    }
  }
  return Dir;
}

/// FNV-1a over every declared relation's sorted contents.
std::uint64_t fingerprint(const core::Program &Prog,
                          const interp::Engine &Eng) {
  std::uint64_t H = 0xCBF29CE484222325ULL;
  auto mix = [&](std::uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xFF;
      H *= 0x100000001B3ULL;
    }
  };
  for (const auto &Decl : Prog.getAst().Relations) {
    for (char C : Decl->getName())
      mix(static_cast<unsigned char>(C));
    const std::vector<DynTuple> Tuples = sorted(Eng.getTuples(Decl->getName()));
    mix(Tuples.size());
    for (const DynTuple &Tuple : Tuples)
      for (RamDomain V : Tuple)
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(V)));
  }
  return H;
}

/// Counters summed from an engine's StatsBlock.
struct DerTotals {
  double Inserts = 0, InsertsNew = 0, Contains = 0, IndexScans = 0,
         IndexScanHits = 0, PointLookups = 0, RangeScans = 0,
         ScanTuples = 0, Reorders = 0, PeakTuples = 0;

  void add(const obs::StatsBlock &Block) {
    for (const obs::RelationStats &S : Block) {
      Inserts += S.Inserts;
      InsertsNew += S.InsertsNew;
      Contains += S.Contains;
      IndexScans += S.IndexScans;
      IndexScanHits += S.IndexScanHits;
      PointLookups += S.PointLookups;
      RangeScans += S.RangeScans;
      ScanTuples += S.ScanTuples + S.IndexScanTuples;
      Reorders += S.Reorders;
      PeakTuples += S.PeakSize;
    }
  }
};

/// One pass over the workload's programs.
struct Pass {
  /// Per program: set-up, and the fastest of its evaluations.
  std::vector<double> ProgramSetup, ProgramEval;
  // Traced passes only.
  double Parse = 0, Sema = 0, Translate = 0, Optimize = 0, IndexSel = 0,
         Indexes = 0, FromSource = 0, MakeEngine = 0, Tree = 0, Exec = 0,
         Merge = 0;
  double Dispatches = 0;
  DerTotals Der;
  interp::SchedulerTelemetry Sched;
};

struct OneShotSpec {
  std::vector<Program> Programs;
  std::size_t Threads = 1;
  /// Engine runs per compiled program (program-scale evaluates its one
  /// program several times per set-up to get enough evaluation samples).
  std::size_t EvalsPerSetup = 1;
  /// Checks one evaluation; returns a description of the mismatch, or
  /// empty. Null means "compare with the legacy executor".
  std::function<std::string(const interp::Engine &)> Check;
};

/// Imports the engine's own trace spans (tree generation, execution,
/// merge barriers) under the driver's span \p RunSpan, and adds their
/// durations to \p P.
void importEngineTrace(const interp::Engine &Eng, long RunSpan, Pass &P) {
  const obs::TraceRecorder *Rec = Eng.getTrace();
  if (!Rec)
    return;
  std::optional<json::Value> Doc = json::parse(Rec->toJson());
  const json::Value *Events = Doc ? Doc->find("traceEvents") : nullptr;
  if (!Events || !Events->isArray())
    return;
  struct Interval {
    std::string Name;
    double Begin, End;
  };
  std::vector<Interval> Phases, Merges;
  std::vector<std::pair<std::string, double>> Open;
  double First = -1;
  for (const json::Value &E : Events->asArray()) {
    const json::Value *Ph = E.find("ph"), *Tid = E.find("tid"),
                      *Ts = E.find("ts");
    if (!Ph || !Tid || !Ts || Tid->asNumber() != 0)
      continue;
    const double T = Ts->asNumber();
    if (First < 0)
      First = T;
    if (Ph->asString() == "B") {
      const json::Value *Name = E.find("name");
      Open.push_back({Name ? Name->asString() : "", T});
      continue;
    }
    if (Ph->asString() != "E" || Open.empty())
      continue;
    auto [Name, Begin] = std::move(Open.back());
    Open.pop_back();
    const double Dur = (T - Begin) / 1e6;
    if (Name == "generate tree") {
      P.Tree += Dur;
      Phases.push_back({"interp.generate_tree", Begin - First, T - First});
    } else if (Name == "execute") {
      P.Exec += Dur;
      Phases.push_back({"interp.execute", Begin - First, T - First});
    } else if (Name.rfind("merge ", 0) == 0) {
      P.Merge += Dur;
      Merges.push_back({"interp.merge", Begin - First, T - First});
    }
  }
  if (!Tracer)
    return;
  // The engine's clock starts with the engine; its first event is the
  // start of run(), which is where the driver's run span starts too.
  const double Base = Tracer->startUs(RunSpan);
  for (const Interval &Phase : Phases) {
    const long Id = Tracer->add(Phase.Name, Base + Phase.Begin,
                                Base + Phase.End, RunSpan, 0);
    for (const Interval &M : Merges)
      if (M.Begin >= Phase.Begin && M.End <= Phase.End)
        Tracer->add(M.Name, Base + M.Begin, Base + M.End, Id, 0);
  }
}

/// Evaluates every program once. \p Traced also times each compilation
/// phase through separate calls and records engine trace spans.
Pass runPass(const OneShotSpec &Spec, const std::vector<std::string> &Dirs,
             bool Traced, std::uint64_t &NextRequest,              Outcome &Out,
             std::vector<std::pair<std::size_t, std::uint64_t>> *Fingerprints) {
  Pass P;
  for (std::size_t I = 0; I < Spec.Programs.size(); ++I) {
    const Program &Prog = Spec.Programs[I];
    SpanScope Request("bench.evaluate", ++NextRequest);
    interp::EngineOptions Options;
    Options.FactDir = Dirs[I];
    Options.OutputDir = Dirs[I];
    Options.EchoPrintSize = false;
    Options.NumThreads = Spec.Threads;
    Options.EnableTrace = Traced;

    if (Traced) {
      SpanScope Phases("bench.compile_phases");
      ast::ParseResult Parsed;
      P.Parse += timed("ast.parseProgram",
                       [&] { Parsed = ast::parseProgram(Prog.Source); });
      if (!Parsed.succeeded()) {
        Out.check(false, Prog.Name + ": does not parse");
        continue;
      }
      ast::SemanticInfo Info;
      P.Sema += timed("ast.analyze", [&] { Info = ast::analyze(*Parsed.Prog); });
      SymbolTable Symbols;
      translate::TranslationResult Ram;
      P.Translate += timed("translate.translateToRam", [&] {
        Ram = translate::translateToRam(*Parsed.Prog, Info, Symbols);
      });
      P.Optimize += timed("ram.optimize", [&] {
        ram::foldConstants(*Ram.Prog, Symbols);
        ram::mergeAdjacentFilters(*Ram.Prog);
      });
      translate::IndexSelectionResult Indexes;
      P.IndexSel += timed("translate.selectIndexes",
                          [&] { Indexes = translate::selectIndexes(*Ram.Prog); });
      for (const auto &[Rel, Info] : Indexes.Info)
        P.Indexes += Info.Orders.size();
    }

    std::unique_ptr<core::Program> Compiled;
    std::unique_ptr<interp::Engine> Eng;
    const double Compile = timed("core.Program::fromSource", [&] {
      Compiled = core::Program::fromSource(Prog.Source);
    });
    if (!Compiled) {
      Out.check(false, Prog.Name + ": does not compile");
      continue;
    }
    const double Make =
        timed("core.Program::makeEngine",
              [&] { Eng = Compiled->makeEngine(Options); });
    P.ProgramSetup.push_back(Compile + Make);
    P.FromSource += Compile;
    P.MakeEngine += Make;

    std::vector<double> Evals;
    for (std::size_t Rep = 0; Rep < Spec.EvalsPerSetup; ++Rep) {
      if (Rep > 0)
        Eng = Compiled->makeEngine(Options);
      long RunSpan = -1;
      const double Eval = [&] {
        SpanScope Run("interp.Engine::run");
        RunSpan = Run.id();
        const auto From = Clock::now();
        Eng->run();
        return secondsSince(From);
      }();
      Evals.push_back(Eval);
      // Layer counters and spans describe one evaluation per program.
      if (Traced && Rep == 0) {
        importEngineTrace(*Eng, RunSpan, P);
        P.Dispatches += Eng->getNumDispatches();
        P.Der.add(Eng->getStats());
        if (Spec.Threads > 1) {
          const interp::SchedulerTelemetry T =
              Compiled->schedulerFor(Spec.Threads)->telemetry();
          P.Sched.Jobs += T.Jobs;
          P.Sched.Submitted += T.Submitted;
          P.Sched.Tasks += T.Tasks;
          P.Sched.ExecutedStolen += T.ExecutedStolen;
          P.Sched.ExecutedInjected += T.ExecutedInjected;
        }
      }
      if (!Eng->getIoErrors().empty())
        Out.check(false, Prog.Name + ": malformed fact rows");
      if (Spec.Check) {
        const std::string Error = Spec.Check(*Eng);
        Out.check(Error.empty(), Prog.Name + ": " + Error);
      } else if (Fingerprints) {
        Fingerprints->push_back({I, fingerprint(*Compiled, *Eng)});
      }
    }
    const double Eval = *std::min_element(Evals.begin(), Evals.end());
    P.ProgramEval.push_back(Eval);
  }
  return P;
}

/// Runs passes until \p Seconds have gone by (at least \p MinPasses).
std::vector<Pass> runPasses(const OneShotSpec &Spec,
                            const std::vector<std::string> &Dirs,
                            bool Traced, double Seconds,
                            std::uint64_t &NextRequest,                             Outcome &Out,
                            std::vector<std::pair<std::size_t, std::uint64_t>>
                                &Fingerprints) {
  constexpr std::size_t MinPasses = 3;
  std::vector<Pass> Passes;
  const auto From = Clock::now();
  while (Passes.size() < MinPasses || secondsSince(From) < Seconds)
    Passes.push_back(runPass(Spec, Dirs, Traced, NextRequest, Out,
                             &Fingerprints));
  return Passes;
}

/// A workload time: each program's fastest instance in the window (of
/// its set-ups or its evaluations), summed over the programs. The host
/// this benchmark was tuned on slows down by up to a third for minutes at
/// a time; the fastest of many instances spread over the window moves
/// about half as much from run to run as their median.
double fastestSum(const std::vector<Pass> &Passes,
                  std::vector<double> Pass::*Times) {
  std::vector<double> Best;
  for (const Pass &P : Passes)
    for (std::size_t I = 0; I < (P.*Times).size(); ++I) {
      if (I >= Best.size())
        Best.push_back((P.*Times)[I]);
      Best[I] = std::min(Best[I], (P.*Times)[I]);
    }
  return sum(Best);
}

template <class F> double medianOf(const std::vector<Pass> &Passes, F Get) {
  std::vector<double> Values;
  for (const Pass &P : Passes)
    Values.push_back(Get(P));
  return median(Values);
}

/// The peak resident set of a stird process that compiles and evaluates
/// one program once, as `stird` would: each program runs in a fresh
/// process (the driver itself in --evaluate-once mode), so the figure
/// holds neither the driver's inputs and reference copies nor heap that
/// earlier evaluations left in the allocator. Per program the median of
/// five processes (at -j4 a program's peak moves by a few percent from
/// process to process with how work lands on the threads' allocator
/// arenas); the workload's figure is the sum over its programs, like its
/// times, so that every program's memory counts.
double freshPeakRssMb(const OneShotSpec &Spec,
                      const std::vector<std::string> &Dirs, Outcome &Out) {
  constexpr int Processes = 5;
  double Total = 0;
  for (std::size_t I = 0; I < Spec.Programs.size(); ++I) {
    const std::string SourceFile = Dirs[I] + "/program.dl";
    std::ofstream(SourceFile, std::ios::binary | std::ios::trunc)
        << Spec.Programs[I].Source;
    std::vector<double> Peaks;
    for (int Run = 0; Run < Processes; ++Run) {
      const double Mb = evaluationPeakRssMb(SourceFile, Dirs[I], Spec.Threads);
      Out.check(Mb > 0, Spec.Programs[I].Name +
                            ": fresh-process evaluation failed");
      if (Mb > 0)
        Peaks.push_back(Mb);
    }
    Total += median(Peaks);
  }
  return Total;
}

void runOneShot(const OneShotSpec &Spec, const RunConfig &Config,
                Outcome &Out) {
  std::vector<std::string> Dirs;
  for (const Program &P : Spec.Programs)
    Dirs.push_back(writeFacts(Config.WorkDir + "/" + P.Name, P));

  std::uint64_t NextRequest = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> Fingerprints;
  std::vector<Pass> Passes, Traced;
  if (!Config.Trace) {
    Passes = runPasses(Spec, Dirs, false, Config.Seconds, NextRequest,
                       Out, Fingerprints);
    Out.set("setup_s", fastestSum(Passes, &Pass::ProgramSetup));
    Out.set("eval_s", fastestSum(Passes, &Pass::ProgramEval));
    Out.set("peak_rss_mb", freshPeakRssMb(Spec, Dirs, Out));
  } else {
    Passes = runPasses(Spec, Dirs, false, Config.Seconds / 2, NextRequest,
                       Out, Fingerprints);
    Traced = runPasses(Spec, Dirs, true, Config.Seconds / 2, NextRequest,
                       Out, Fingerprints);
    auto M = [&](auto Get) { return medianOf(Traced, Get); };
    const double Parse = M([](const Pass &P) { return P.Parse; });
    const double Sema = M([](const Pass &P) { return P.Sema; });
    const double Translate = M([](const Pass &P) { return P.Translate; });
    const double Optimize = M([](const Pass &P) { return P.Optimize; });
    const double IndexSel = M([](const Pass &P) { return P.IndexSel; });
    Out.set("ast.parse_s", Parse);
    Out.set("ast.sema_s", Sema);
    Out.set("translate.ram_s", Translate);
    Out.set("ram.opt_s", Optimize);
    Out.set("translate.index_s", IndexSel);
    Out.set("translate.indexes", Traced.back().Indexes);
    Out.set("core.compile_unattributed_s",
            M([](const Pass &P) { return P.FromSource; }) -
                (Parse + Sema + Translate + Optimize + IndexSel));
    Out.set("core.make_engine_s", M([](const Pass &P) { return P.MakeEngine; }));
    const double Exec = M([](const Pass &P) { return P.Exec; });
    const double Dispatches = Traced.back().Dispatches;
    Out.set("interp.tree_s", M([](const Pass &P) { return P.Tree; }));
    Out.set("interp.exec_s", Exec);
    Out.set("interp.merge_s", M([](const Pass &P) { return P.Merge; }));
    Out.set("interp.dispatches", Dispatches);
    Out.set("interp.ns_per_dispatch",
            Dispatches > 0 ? Exec * 1e9 / Dispatches : 0);
    for (std::size_t I = 0; I < Spec.Programs.size(); ++I)
      Out.set("interp.eval_s." + Spec.Programs[I].Name,
              M([I](const Pass &P) {
                return I < P.ProgramEval.size() ? P.ProgramEval[I] : 0;
              }));
    const DerTotals &D = Traced.back().Der;
    Out.set("der.inserts", D.Inserts);
    Out.set("der.insert_new_ratio",
            D.Inserts > 0 ? D.InsertsNew / D.Inserts : 0);
    Out.set("der.contains", D.Contains);
    Out.set("der.index_scans", D.IndexScans);
    Out.set("der.index_scan_hit_ratio",
            D.IndexScans > 0 ? D.IndexScanHits / D.IndexScans : 0);
    Out.set("der.point_lookups", D.PointLookups);
    Out.set("der.range_scans", D.RangeScans);
    Out.set("der.scan_tuples", D.ScanTuples);
    Out.set("der.reorders", D.Reorders);
    Out.set("der.peak_tuples", D.PeakTuples);
    Out.set("sched.jobs", M([](const Pass &P) { return double(P.Sched.Jobs); }));
    Out.set("sched.tasks",
            M([](const Pass &P) { return double(P.Sched.Tasks); }));
    Out.set("sched.stolen",
            M([](const Pass &P) { return double(P.Sched.ExecutedStolen); }));
    Out.set("sched.injected",
            M([](const Pass &P) { return double(P.Sched.ExecutedInjected); }));
    Out.set("sched.submitted",
            M([](const Pass &P) { return double(P.Sched.Submitted); }));
    const double Base = fastestSum(Passes, &Pass::ProgramEval);
    const double WithTrace = fastestSum(Traced, &Pass::ProgramEval);
    Out.set("obs.trace_overhead", Base > 0 ? (WithTrace - Base) / Base : 0);
    Out.set("obs.trace_overhead_base_s", Base);
  }

  if (Spec.Check)
    return;
  // Reference: the legacy executor, single-threaded, over the same fact
  // files. Every measured evaluation must match it.
  std::vector<std::uint64_t> Reference;
  for (std::size_t I = 0; I < Spec.Programs.size(); ++I) {
    auto Compiled = core::Program::fromSource(Spec.Programs[I].Source);
    if (!Compiled) {
      Reference.push_back(0);
      continue;
    }
    interp::EngineOptions Options;
    Options.TheBackend = interp::Backend::Legacy;
    Options.FactDir = Dirs[I];
    Options.OutputDir = Dirs[I];
    Options.EchoPrintSize = false;
    Options.NumThreads = 1;
    auto Eng = Compiled->makeEngine(Options);
    Eng->run();
    Reference.push_back(fingerprint(*Compiled, *Eng));
  }
  for (const auto &[I, Print] : Fingerprints)
    Out.check(Print == Reference[I],
              Spec.Programs[I].Name +
                  ": contents differ from the legacy executor's");
}

} // namespace

Outcome perfbench::runPaperSuite(const RunConfig &Config) {
  Outcome Out;
  OneShotSpec Spec;
  Spec.Programs = paperSuite(Config.Seed);
  runOneShot(Spec, Config, Out);
  return Out;
}

Outcome perfbench::runParallelSkew(const RunConfig &Config) {
  Outcome Out;
  OneShotSpec Spec;
  Spec.Programs = parallelSuite(Config.Seed);
  Spec.Threads = 4;
  runOneShot(Spec, Config, Out);
  return Out;
}

Outcome perfbench::runProgramScale(const RunConfig &Config) {
  Outcome Out;
  ScaleProgram Scale = scaleProgram(Config.Seed, 10000);
  OneShotSpec Spec;
  Spec.Programs = {Scale.Prog};
  Spec.EvalsPerSetup = 5;
  Spec.Check = [&Scale](const interp::Engine &Eng) -> std::string {
    for (const auto &[Name, Want] : Scale.Expected)
      if (sorted(Eng.getTuples(Name)) != Want)
        return "relation " + Name + " differs from its closed form";
    return "";
  };
  runOneShot(Spec, Config, Out);
  return Out;
}
