//===- perfbench/src/Generators.cpp - Seeded workload inputs ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Paper-suite programs. Same program text as bench/workloads (the paper's
// three suites); the inputs are drawn from the run's seed, at about a
// quarter of the fact counts, so that one run evaluates every program
// often enough for its fastest time to settle and the legacy-executor
// reference still fits.
//===----------------------------------------------------------------------===//

const char *VpcSource = R"(
  .decl in_subnet(inst:number, subnet:number)
  .decl subnet_link(a:number, b:number)
  .decl acl_allow(subnet:number, port:number)
  .decl allows(inst:number, port:number)
  .decl listens(inst:number, port:number)
  .input in_subnet
  .input subnet_link
  .input acl_allow
  .input allows
  .input listens
  .decl subnet_reach(a:number, b:number)
  subnet_reach(a, b) :- subnet_link(a, b).
  subnet_reach(a, c) :- subnet_reach(a, b), subnet_link(b, c).
  .decl can_talk(a:number, b:number, p:number)
  can_talk(a, b, p) :-
      in_subnet(a, sa), in_subnet(b, sb),
      (a bxor b) band 1023 != 1023,
      ((a bshl 2) bxor (b bshr 1)) band 8191 != 8191,
      (a * 31 + b * 17) % 127 != 126,
      (a bor b) band 511 != 511,
      a != b,
      subnet_reach(sa, sb),
      allows(a, p), listens(b, p), acl_allow(sb, p).
  .decl exposed(b:number)
  exposed(b) :- can_talk(_, b, 22).
  .printsize can_talk
)";

Program makeVpc(const std::string &Name, int NumSubnets, int NumInstances,
                std::uint64_t Seed) {
  Program P{Name, VpcSource, {}};
  Rng R(Seed);
  std::vector<DynTuple> InSubnet, Links, Acl, Allows, Listens;
  for (RamDomain I = 0; I < NumInstances; ++I) {
    InSubnet.push_back({I, R.below(NumSubnets)});
    Allows.push_back({I, R.range(20, 25)});
    Listens.push_back({I, R.range(20, 25)});
  }
  for (RamDomain S = 0; S < NumSubnets; ++S) {
    Links.push_back({S, (S + 1) % NumSubnets});
    if (S % 4 == 0)
      Links.push_back({S, (S * 7 + 3) % NumSubnets});
    for (RamDomain Port = 20; Port <= 25; ++Port)
      if ((S + Port) % 3 != 0)
        Acl.push_back({S, Port});
  }
  P.Facts = {{"in_subnet", InSubnet},
             {"subnet_link", Links},
             {"acl_allow", Acl},
             {"allows", Allows},
             {"listens", Listens}};
  return P;
}

const char *DdisasmSource = R"(
  .decl instruction(ea:number, size:number)
  .decl op_immediate(ea:number, v:number)
  .decl data_region(begin:number, size:number)
  .decl entry(ea:number)
  .input instruction
  .input op_immediate
  .input data_region
  .input entry
  .decl next(ea:number, n:number)
  next(ea, ea + sz) :- instruction(ea, sz).
  .decl code(ea:number)
  code(ea) :- entry(ea).
  code(n) :- code(ea), next(ea, n), n < 16777216.
  .decl moved_label(ea:number, b:number)
  moved_label(ea, b) :-
      op_immediate(ea, v), data_region(b, sz),
      (v - b) + (b - v) = 0, (v bxor b) band 134217728 = 0,
      v >= b, v < b + sz, (v - b) % 8 = 0,
      (v band 7) = (b band 7), ea + v > b + 4.
  .decl sym_diff(ea:number, d:number)
  sym_diff(ea, v - b) :- moved_label(ea, b), op_immediate(ea, v).
  .decl code_imm(ea:number, v:number)
  code_imm(ea, v) :- op_immediate(ea, v), code(ea).
  .decl same_size(a:number, b:number)
  same_size(a, b) :- instruction(a, s), instruction(b, s), a < b.
  .printsize moved_label
)";

Program makeDdisasm(const std::string &Name, int NumInstructions,
                    int NumImmediates, int NumRegions, std::uint64_t Seed,
                    int ExtraRules = 0) {
  Program P{Name, DdisasmSource, {}};
  // specrand-like: a large program over a tiny input, where the frontend
  // and interpreter-tree generation dominate (the paper's outlier).
  if (ExtraRules > 0) {
    P.Source += "\n  .decl aux0(x:number)\n  .input aux0\n";
    for (int I = 1; I <= ExtraRules; ++I)
      P.Source += "  .decl aux" + std::to_string(I) + "(x:number)\n  aux" +
                  std::to_string(I) + "(x) :- aux" + std::to_string(I - 1) +
                  "(x), x + " + std::to_string(I) +
                  " >= 0, x band 262143 != 262143.\n";
    P.Facts.push_back({"aux0", {{1}, {2}, {3}}});
  }
  Rng R(Seed);
  std::vector<DynTuple> Instructions, Immediates, Regions, Entries;
  RamDomain Ea = 0x1000;
  for (int I = 0; I < NumInstructions; ++I) {
    const RamDomain Size = R.range(1, 8);
    Instructions.push_back({Ea, Size});
    Ea += Size;
  }
  Entries.push_back({0x1000});
  for (int I = 0; I < NumImmediates; ++I) {
    const RamDomain At = 0x1000 + R.below(NumInstructions * 4);
    Immediates.push_back({At, R.below(1 << 20)});
  }
  RamDomain Begin = 1 << 19;
  for (int I = 0; I < NumRegions; ++I) {
    const RamDomain Size = 64 + R.below(4096);
    Regions.push_back({Begin, Size});
    Begin += Size + R.below(512);
  }
  P.Facts.push_back({"instruction", Instructions});
  P.Facts.push_back({"op_immediate", Immediates});
  P.Facts.push_back({"data_region", Regions});
  P.Facts.push_back({"entry", Entries});
  return P;
}

const char *DoopSource = R"(
  .decl new_(v:number, o:number)
  .decl assign(v:number, w:number)
  .decl store(v:number, f:number, w:number)
  .decl load(v:number, w:number, f:number)
  .input new_
  .input assign
  .input store
  .input load
  .decl vpt(v:number, o:number)
  .decl hpt(o:number, f:number, p:number)
  vpt(v, o) :- new_(v, o).
  vpt(v, o) :- assign(v, w), vpt(w, o).
  hpt(o, f, p) :- store(v, f, w), vpt(v, o), vpt(w, p).
  vpt(v, p) :- load(v, w, f), vpt(w, o), hpt(o, f, p).
  .decl alias(a:number, b:number)
  alias(a, b) :- vpt(a, o), vpt(b, o), a < b.
  .printsize vpt
)";

Program makeDoop(const std::string &Name, int NumVars, int CopyFactor,
                 std::uint64_t Seed) {
  Program P{Name, DoopSource, {}};
  Rng R(Seed);
  std::vector<DynTuple> News, Assigns, Stores, Loads;
  for (RamDomain V = 0; V < NumVars; V += 5)
    News.push_back({V, V / 5});
  for (int I = 0; I < NumVars * CopyFactor; ++I) {
    const RamDomain A = R.below(NumVars);
    Assigns.push_back({A, R.below(NumVars)});
  }
  for (int I = 0; I < NumVars / 3; ++I) {
    const RamDomain V = R.below(NumVars), F = R.below(8);
    Stores.push_back({V, F, R.below(NumVars)});
  }
  for (int I = 0; I < NumVars / 3; ++I) {
    const RamDomain V = R.below(NumVars), W = R.below(NumVars);
    Loads.push_back({V, W, R.below(8)});
  }
  P.Facts = {{"new_", News},
             {"assign", Assigns},
             {"store", Stores},
             {"load", Loads}};
  return P;
}

Program gccLike(std::uint64_t Seed) {
  return makeDdisasm("gcc-like", 2000, 300, 875, subSeed(Seed, 25));
}

Program chartLike(std::uint64_t Seed, const char *Name = "chart-like",
                  int NumVars = 120) {
  return makeDoop(Name, NumVars, 2, subSeed(Seed, 33));
}

/// Transitive closure over a hub-and-chain graph: a chain feeds the hub,
/// and the hub fans out to HubSpokes leaves, so 90% of the edges leave one
/// vertex and a few morsels carry almost all join work. The seed relabels
/// the vertices, which moves the hub's rows around the partition order
/// without changing the amount of work.
Program skewedTc(std::uint64_t Seed) {
  constexpr RamDomain ChainLen = 240;
  constexpr RamDomain HubSpokes = 2160;
  Program P{"skewed-tc", R"(
  .decl edge(a:number, b:number)
  .input edge
  .decl path(a:number, b:number)
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
  .printsize path
)",
            {}};
  Rng R(Seed);
  std::vector<RamDomain> Label;
  std::unordered_set<RamDomain> Used;
  while (Label.size() < static_cast<std::size_t>(ChainLen + HubSpokes + 1)) {
    const RamDomain L = R.below(1 << 20);
    if (Used.insert(L).second)
      Label.push_back(L);
  }
  std::vector<DynTuple> Edges;
  for (RamDomain I = 1; I < ChainLen; ++I)
    Edges.push_back({Label[I], Label[I + 1]});
  Edges.push_back({Label[ChainLen], Label[0]});
  for (RamDomain K = 1; K <= HubSpokes; ++K)
    Edges.push_back({Label[0], Label[ChainLen + K]});
  P.Facts = {{"edge", Edges}};
  return P;
}

} // namespace

std::vector<Program> perfbench::paperSuite(std::uint64_t Seed) {
  return {
      makeVpc("vpc-small", 40, 150, subSeed(Seed, 11)),
      makeVpc("vpc-medium", 60, 270, subSeed(Seed, 12)),
      makeVpc("vpc-large", 80, 420, subSeed(Seed, 13)),
      makeDdisasm("gzip-like", 750, 125, 375, subSeed(Seed, 21)),
      makeDdisasm("bzip2-like", 1000, 175, 500, subSeed(Seed, 22)),
      makeDdisasm("mcf-like", 625, 100, 300, subSeed(Seed, 23)),
      makeDdisasm("gamess-like", 1500, 250, 750, subSeed(Seed, 24)),
      gccLike(Seed),
      makeDdisasm("specrand-like", 30, 5, 5, subSeed(Seed, 26),
                  /*ExtraRules=*/600),
      makeDoop("antlr-like", 80, 2, subSeed(Seed, 31)),
      makeDoop("bloat-like", 100, 2, subSeed(Seed, 32)),
      chartLike(Seed),
      makeDoop("luindex-like", 90, 3, subSeed(Seed, 34)),
  };
}

std::vector<Program> perfbench::parallelSuite(std::uint64_t Seed) {
  // chart-like at the paper-suite size is too small to gain from threads;
  // at 320 variables it does (about 1.5x at -j4), while gcc-like and the
  // skewed closure do not.
  return {gccLike(Seed), chartLike(Seed, "chart-large", 320),
          skewedTc(subSeed(Seed, 41))};
}

//===----------------------------------------------------------------------===//
// program-scale
//===----------------------------------------------------------------------===//

namespace {

constexpr RamDomain ScaleDomain = 64;
using Bits = std::uint64_t;

/// One generated rule. Operands index relations; the head is `Head`.
struct ScaleRule {
  enum Kind { Base, Filter, Join, Meet, Negate, Shift, Recurse, Back } K;
  std::size_t Head = 0, A = 0, B = 0;
  RamDomain M = 1, C = 0, D = 0;
};

std::string rel(std::size_t I) { return "r" + std::to_string(I); }

std::string render(const ScaleRule &Rule) {
  const std::string H = rel(Rule.Head), A = rel(Rule.A), B = rel(Rule.B);
  const std::string M = std::to_string(Rule.M), C = std::to_string(Rule.C);
  switch (Rule.K) {
  case ScaleRule::Base:
    return H + "(x) :- base(x), x % " + M + " = " + C + ".";
  case ScaleRule::Filter:
    return H + "(x) :- " + A + "(x), x % " + M + " = " + C + ".";
  case ScaleRule::Join:
    return H + "(y) :- " + A + "(x), e(x, y).";
  case ScaleRule::Meet:
    return H + "(x) :- " + A + "(x), " + B + "(x).";
  case ScaleRule::Negate:
    return H + "(x) :- " + A + "(x), !" + B + "(x).";
  case ScaleRule::Shift:
    return H + "(x + " + std::to_string(Rule.D) + ") :- " + A + "(x), x + " +
           std::to_string(Rule.D) + " < " + std::to_string(ScaleDomain) + ".";
  case ScaleRule::Recurse:
    return H + "(y) :- " + H + "(x), e(x, y), y % " + M + " != " + C + ".";
  case ScaleRule::Back:
    return H + "(x) :- " + A + "(x), x % " + M + " != " + C + ".";
  }
  return {};
}

Bits residue(RamDomain M, RamDomain C, bool Equal) {
  Bits Out = 0;
  for (RamDomain X = 0; X < ScaleDomain; ++X)
    if ((X % M == C) == Equal)
      Out |= Bits(1) << X;
  return Out;
}

/// The value of one rule's body over the current relation bit sets.
Bits apply(const ScaleRule &Rule, const std::vector<Bits> &Val, Bits BaseSet,
           const std::vector<Bits> &Succ) {
  auto image = [&](Bits From) {
    Bits Out = 0;
    for (Bits S = From; S; S &= S - 1)
      Out |= Succ[std::countr_zero(S)];
    return Out;
  };
  switch (Rule.K) {
  case ScaleRule::Base:
    return BaseSet & residue(Rule.M, Rule.C, true);
  case ScaleRule::Filter:
    return Val[Rule.A] & residue(Rule.M, Rule.C, true);
  case ScaleRule::Join:
    return image(Val[Rule.A]);
  case ScaleRule::Meet:
    return Val[Rule.A] & Val[Rule.B];
  case ScaleRule::Negate:
    return Val[Rule.A] & ~Val[Rule.B];
  case ScaleRule::Shift:
    return Val[Rule.A] << Rule.D; // bits shifted past 63 fall off
  case ScaleRule::Recurse:
    return image(Val[Rule.Head]) & residue(Rule.M, Rule.C, false);
  case ScaleRule::Back:
    return Val[Rule.A] & residue(Rule.M, Rule.C, false);
  }
  return 0;
}

} // namespace

ScaleProgram perfbench::scaleProgram(std::uint64_t Seed,
                                     std::size_t NumRules) {
  // The EDB is tiny and its shape fixed: base holds three quarters of the
  // domain and every value has exactly two e-successors (two bijections of
  // the domain), so relation sizes do not hinge on one random graph; the
  // seed picks the offsets and the rules.
  Rng R(Seed);
  const RamDomain Skip = R.below(4), Add = R.range(1, ScaleDomain - 1),
                  Mul = 2 * R.below(ScaleDomain / 2) + 1,
                  Off = R.below(ScaleDomain);
  Bits BaseSet = 0;
  std::vector<Bits> Succ(ScaleDomain, 0);
  std::vector<DynTuple> BaseFacts, EdgeFacts;
  for (RamDomain X = 0; X < ScaleDomain; ++X) {
    if (X % 4 != Skip) {
      BaseSet |= Bits(1) << X;
      BaseFacts.push_back({X});
    }
    for (RamDomain Y : {(X + Add) % ScaleDomain, (X * Mul + Off) % ScaleDomain})
      if (!(Succ[X] >> Y & 1)) {
        Succ[X] |= Bits(1) << Y;
        EdgeFacts.push_back({X, Y});
      }
  }

  // Relations are generated in dependency order; each one's rules read
  // relations a short distance back (locality, as in real programs), or
  // the relation itself / its SCC partner for recursion.
  std::vector<ScaleRule> Rules;
  std::vector<std::vector<std::size_t>> Groups; // relations per SCC
  auto earlier = [&](std::size_t I) {
    const std::size_t Back = 1 + R.below(std::min<std::size_t>(I, 48));
    return I - Back;
  };
  auto modulus = [&](ScaleRule &Rule) {
    Rule.M = R.range(2, 5);
    Rule.C = R.below(Rule.M);
  };
  std::size_t NumRels = 0;
  while (Rules.size() < NumRules) {
    const std::size_t I = NumRels;
    if (I < 8) {
      ScaleRule Rule{ScaleRule::Base, I};
      modulus(Rule);
      Rule.M = 1 + Rule.M / 2;
      Rule.C = Rule.C % Rule.M;
      Rules.push_back(Rule);
      Groups.push_back({I});
      ++NumRels;
      continue;
    }
    if (R.chance(5)) {
      // A two-relation recursive SCC: a seeded from an earlier relation,
      // b = e-successors of a, a absorbs b minus one residue class.
      const std::size_t A = I, B = I + 1;
      Rules.push_back({ScaleRule::Filter, A, earlier(I), 0, 1, 0, 0});
      Rules.push_back({ScaleRule::Join, B, A});
      ScaleRule Back{ScaleRule::Back, A, B};
      modulus(Back);
      Rules.push_back(Back);
      Groups.push_back({A, B});
      NumRels += 2;
      continue;
    }
    const std::size_t NumHeadRules = 1 + R.below(4);
    bool Recursive = false;
    for (std::size_t K = 0; K < NumHeadRules; ++K) {
      ScaleRule Rule{ScaleRule::Filter, I, earlier(I), earlier(I)};
      const unsigned Pick = R.below(100);
      if (Pick < 25) {
        Rule.K = ScaleRule::Filter;
        modulus(Rule);
      } else if (Pick < 45) {
        Rule.K = ScaleRule::Join;
      } else if (Pick < 60) {
        Rule.K = ScaleRule::Meet;
      } else if (Pick < 75) {
        Rule.K = ScaleRule::Negate;
      } else if (Pick < 87) {
        Rule.K = ScaleRule::Shift;
        Rule.D = R.range(1, 3);
      } else if (K > 0 && !Recursive) {
        Rule.K = ScaleRule::Recurse;
        modulus(Rule);
        Recursive = true;
      } else {
        Rule.K = ScaleRule::Join;
      }
      Rules.push_back(Rule);
    }
    Groups.push_back({I});
    ++NumRels;
  }

  // Expected contents: each SCC to its fixpoint, in dependency order.
  std::vector<Bits> Val(NumRels, 0);
  std::vector<std::vector<const ScaleRule *>> RulesOf(NumRels);
  for (const ScaleRule &Rule : Rules)
    RulesOf[Rule.Head].push_back(&Rule);
  for (const auto &Group : Groups) {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (std::size_t H : Group)
        for (const ScaleRule *Rule : RulesOf[H]) {
          const Bits New = Val[H] | apply(*Rule, Val, BaseSet, Succ);
          Changed |= New != Val[H];
          Val[H] = New;
        }
    }
  }

  ScaleProgram Out;
  Out.Prog.Name = "scale-10k";
  std::string &Src = Out.Prog.Source;
  Src.reserve(Rules.size() * 48 + NumRels * 40);
  Src += ".decl base(x:number)\n.input base\n"
         ".decl e(x:number, y:number)\n.input e\n";
  for (std::size_t I = 0; I < NumRels; ++I)
    Src += ".decl " + rel(I) + "(x:number)\n";
  for (const ScaleRule &Rule : Rules)
    Src += render(Rule) + "\n";
  Out.Prog.Facts = {{"base", BaseFacts}, {"e", EdgeFacts}};
  for (std::size_t I = 0; I < NumRels; ++I) {
    std::vector<DynTuple> Tuples;
    for (Bits S = Val[I]; S; S &= S - 1)
      Tuples.push_back({static_cast<RamDomain>(std::countr_zero(S))});
    Out.Expected[rel(I)] = std::move(Tuples);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// serve-churn tenants
//===----------------------------------------------------------------------===//

TenantStream::TenantStream(std::string Source, std::vector<EdbSpec> Edb,
                           std::uint64_t Seed, unsigned RetractPct)
    : Source(std::move(Source)), Edb(std::move(Edb)), R(Seed),
      RetractPct(RetractPct), State(this->Edb.size()) {}

/// Whether event number \p N (0-based) of a stream of events that happen
/// at \p Pct percent is one of them: exactly Pct of every 100 are.
static bool atRate(std::uint64_t N, unsigned Pct) {
  return (N + 1) * Pct / 100 > N * Pct / 100;
}

DynTuple TenantStream::draw(std::size_t Rel, bool Hot) {
  const EdbSpec &Spec = Edb[Rel];
  const RamDomain NumParts = Spec.Domain / Spec.PartSize;
  const RamDomain Part = Hot ? 0 : 1 + R.below(NumParts - 1);
  DynTuple Tuple(2);
  for (RamDomain &Cell : Tuple)
    Cell = Part * Spec.PartSize + R.below(Spec.PartSize);
  return Tuple;
}

DynTuple TenantStream::takeLive(std::size_t Rel, bool Hot) {
  // Hot tuples sort first: partition 0 holds the smallest values.
  std::set<DynTuple> &Live = State[Rel];
  const auto HotEnd = Live.lower_bound({Edb[Rel].PartSize});
  const std::size_t NumHot = std::distance(Live.begin(), HotEnd);
  const std::size_t Count = Hot ? NumHot : Live.size() - NumHot;
  if (Count == 0)
    return {};
  auto It = Hot ? Live.begin() : HotEnd;
  std::advance(It, R.below(Count));
  DynTuple Tuple = *It;
  Live.erase(It);
  return Tuple;
}

WriteBatch TenantStream::bulk() {
  WriteBatch B;
  for (std::size_t Rel = 0; Rel < Edb.size(); ++Rel) {
    while (State[Rel].size() < Edb[Rel].Initial)
      State[Rel].insert(draw(Rel, atRate(Inserts++, Edb[Rel].SkewPct)));
    B.Inserts.push_back(
        {Edb[Rel].Name, {State[Rel].begin(), State[Rel].end()}});
  }
  return B;
}

WriteBatch TenantStream::next(std::size_t NumOps) {
  if (Batches % HotEvery == 0)
    HotBatch = R.below(HotEvery);
  bool HotRetract = RetractPct > 0 && Batches % HotEvery == HotBatch;
  // Net effect per tuple (last operation wins), so the batch and the
  // tracked state agree.
  std::vector<std::map<DynTuple, bool>> Net(Edb.size());
  // Hot retractions visit the relations in turn.
  const std::size_t HotRel = (Batches / HotEvery) % Edb.size();
  for (std::size_t I = 0; I < NumOps; ++I) {
    const std::size_t Rel = R.below(Edb.size());
    if (atRate(Ops++, RetractPct)) {
      DynTuple Tuple;
      if (HotRetract && (Tuple = takeLive(HotRel, true)).size()) {
        HotRetract = false;
        Net[HotRel][std::move(Tuple)] = true;
        continue;
      }
      Tuple = takeLive(Rel, false);
      if (!Tuple.empty())
        Net[Rel][std::move(Tuple)] = true;
    } else {
      DynTuple Tuple = draw(Rel, atRate(Inserts++, Edb[Rel].SkewPct));
      State[Rel].insert(Tuple);
      Net[Rel][std::move(Tuple)] = false;
    }
  }
  ++Batches;
  WriteBatch B;
  for (std::size_t Rel = 0; Rel < Edb.size(); ++Rel) {
    std::vector<DynTuple> Ins, Ret;
    for (const auto &[Tuple, Retract] : Net[Rel])
      (Retract ? Ret : Ins).push_back(Tuple);
    if (!Ins.empty())
      B.Inserts.push_back({Edb[Rel].Name, std::move(Ins)});
    if (!Ret.empty())
      B.Retracts.push_back({Edb[Rel].Name, std::move(Ret)});
  }
  return B;
}

std::vector<std::pair<std::string, std::vector<DynTuple>>>
TenantStream::netEdb() const {
  std::vector<std::pair<std::string, std::vector<DynTuple>>> Out;
  for (std::size_t Rel = 0; Rel < Edb.size(); ++Rel)
    Out.push_back({Edb[Rel].Name, {State[Rel].begin(), State[Rel].end()}});
  return Out;
}

TenantStream perfbench::ptsStream(std::uint64_t Seed) {
  // The doop-like stream of bench/micro_update: partition blocks of 12
  // values model intra-procedural locality, 10% of inserts hit the hot
  // partition, 35% of operations retract live facts.
  return TenantStream(R"(
.decl new(v:number, o:number)
.decl assign(d:number, s:number)
.decl load(d:number, s:number)
.decl store(d:number, s:number)
.decl vpt(v:number, o:number)
.decl heap(o:number, p:number)
.decl query(v:number)
vpt(v, o) :- new(v, o).
vpt(d, o) :- assign(d, s), vpt(s, o).
heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).
vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).
query(v) :- vpt(v, o), new(_, o).
)",
                      {{"new", 24000, 12, 12000, 10},
                       {"assign", 24000, 12, 10000, 10},
                       {"load", 24000, 12, 4000, 10},
                       {"store", 24000, 12, 4000, 10}},
                      subSeed(Seed, 101), /*RetractPct=*/35);
}

TenantStream perfbench::netStream(std::uint64_t Seed) {
  // `link` is .input and also closed under symmetry by a rule, which makes
  // the program ineligible for maintenance; insert-only batches then take
  // the delta-seeded update program. Communities of 16 nodes bound the
  // closure.
  return TenantStream(R"(
.decl link(a:number, b:number)
.input link
link(b, a) :- link(a, b).
.decl reach(a:number, b:number)
reach(a, b) :- link(a, b).
reach(a, c) :- reach(a, b), link(b, c).
)",
                      {{"link", 32000, 16, 4000, 10}}, subSeed(Seed, 102),
                      /*RetractPct=*/0);
}
