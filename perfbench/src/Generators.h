//===- perfbench/src/Generators.h - Seeded workload inputs -------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds stird, generated from the run's seed:
/// the same seed always yields the same programs, fact sets and request
/// streams. The program shapes follow the paper's suites (VPC, DDisasm,
/// DOOP) and the serving workloads of the incremental subsystem; the
/// sizes are chosen so that one run fits the benchmark's time budget.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_PERFBENCH_GENERATORS_H
#define STIRD_PERFBENCH_GENERATORS_H

#include "Common.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One program plus the facts its `.input` relations read.
struct Program {
  std::string Name;
  std::string Source;
  std::vector<std::pair<std::string, std::vector<DynTuple>>> Facts;
};

/// The 13 fig15-shaped programs: vpc x3, ddisasm x6 (specrand-like is the
/// large-program, tiny-input outlier), doop x4.
std::vector<Program> paperSuite(std::uint64_t Seed);

/// gcc-like (as in paperSuite), chart-large (chart-like with 320 variables)
/// and a skewed transitive closure whose hub vertex owns 90% of the edges.
std::vector<Program> parallelSuite(std::uint64_t Seed);

/// A program of about \p NumRules rules over unary relations on a 64-value
/// domain and a tiny EDB, mixing filters, joins, intersections, negation,
/// head arithmetic, self-recursion and two-relation recursive SCCs. The
/// generator evaluates the rules itself over bit sets, so it knows every
/// relation's contents without running stird.
struct ScaleProgram {
  Program Prog;
  /// Relation name -> expected tuples, sorted.
  std::map<std::string, std::vector<DynTuple>> Expected;
};
ScaleProgram scaleProgram(std::uint64_t Seed, std::size_t NumRules);

/// An EDB relation of a serving tenant: values are drawn inside one
/// partition block of PartSize values, and SkewPct% of the inserted tuples
/// land in the hot partition 0 (the first block).
struct EdbSpec {
  std::string Name;
  RamDomain Domain;
  RamDomain PartSize;
  std::size_t Initial;
  unsigned SkewPct;
};

/// One write request: per relation, tuples to insert and to retract.
struct WriteBatch {
  std::vector<std::pair<std::string, std::vector<DynTuple>>> Inserts;
  std::vector<std::pair<std::string, std::vector<DynTuple>>> Retracts;
};

/// A tenant's write stream. It tracks the tenant's net EDB, which the
/// correctness checkpoints evaluate from scratch.
///
/// The proportions are exact rather than drawn per operation: RetractPct%
/// of the operations retract, SkewPct% of the inserts are hot, and one
/// batch in every HotEvery retracts one live tuple of the hot partition
/// (its position in the block of HotEvery batches is drawn from the seed).
/// A hot retraction is what makes a maintained batch expensive (DRed
/// over-deletes inside the dense hot partition), so fixing its rate keeps
/// the work of a pass the same from seed to seed.
class TenantStream {
public:
  static constexpr std::size_t HotEvery = 6;

  TenantStream(std::string Source, std::vector<EdbSpec> Edb,
               std::uint64_t Seed, unsigned RetractPct);

  const std::string &source() const { return Source; }
  /// The initial facts, as one insert-only batch.
  WriteBatch bulk();
  /// The next batch of \p Ops operations; one net effect per tuple.
  WriteBatch next(std::size_t Ops);
  /// The EDB after every batch handed out so far.
  std::vector<std::pair<std::string, std::vector<DynTuple>>> netEdb() const;

private:
  DynTuple draw(std::size_t Rel, bool Hot);
  /// Removes and returns a random live tuple of \p Rel, from the hot
  /// partition or outside it; empty when there is none.
  DynTuple takeLive(std::size_t Rel, bool Hot);

  std::string Source;
  std::vector<EdbSpec> Edb;
  Rng R;
  unsigned RetractPct;
  std::vector<std::set<DynTuple>> State;
  std::uint64_t Ops = 0, Inserts = 0, Batches = 0;
  std::size_t HotBatch = 0;
};

/// `pts`: the doop-like points-to program that inc maintains with counting
/// and DRed (about 30k initial facts, mixed insert/retract batches).
TenantStream ptsStream(std::uint64_t Seed);

/// `net`: a program whose `link` relation is both `.input` and derived,
/// which keeps it on the insert-only update-program path.
TenantStream netStream(std::uint64_t Seed);

} // namespace perfbench

#endif // STIRD_PERFBENCH_GENERATORS_H
