//===- perfbench/src/Serve.cpp - serve-churn ---------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-churn: a resident srv::Server (2-thread request pool) hosting two
/// tenants, driven over TCP on 127.0.0.1 in a closed loop by four
/// connections of this process — one writer and three readers.
///
/// - `pts` (doop-like points-to, maintained by inc with counting + DRed)
///   gets one bulk load, then 24-operation mixed insert/retract batches.
/// - `net` (a relation both `.input` and derived, so it stays on the
///   insert-only update program) gets 24-operation insert batches.
/// - Readers send point and bound-prefix queries to both tenants, a share
///   of them repeats of a small hot set, each after a fixed think time.
///
/// The measured window is a sequence of rounds. Each boots a fresh
/// deployment, loads the initial facts, and streams a fixed number of
/// write batches while the readers run; then the readers stop and a
/// checkpoint compares every relation of both tenants, as served over the
/// wire, with a fresh one-shot evaluation of the tenant's net EDB (no inc,
/// no srv involved).
///
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Spans.h"
#include "Workloads.h"

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "obs/Json.h"
#include "srv/Server.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include <arpa/inet.h>
#include <atomic>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace stird;
namespace json = stird::obs::json;

namespace {

constexpr std::size_t NumReaders = 3;
constexpr std::size_t OpsPerBatch = 24;
/// Write batches per tenant per pass: a whole number of the streams'
/// hot-retraction blocks, so every pass carries the same expensive batches.
constexpr std::size_t BatchesPerPass = 7 * TenantStream::HotEvery;
/// Passes per round. The state grows with every pass (net only ever
/// inserts, and its update cost grows with it), so a round is a fixed
/// stream from a fresh deployment.
constexpr std::size_t PassesPerRound = 3;
/// Rounds every run makes, however short its window.
constexpr std::size_t MinRounds = 3;
/// Reader think time between a reply and the next request.
constexpr auto ReaderThink = std::chrono::microseconds(250);

const std::vector<std::string> PtsRelations = {
    "new", "assign", "load", "store", "vpt", "heap", "query"};
const std::vector<std::string> NetRelations = {"link", "reach"};

/// One blocking client connection.
class Client {
public:
  explicit Client(int Port) : Fd(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      if (Fd >= 0)
        ::close(Fd);
      Fd = -1;
      return;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Sends \p Request and waits for its reply frame.
  bool roundTrip(const std::string &Request, std::string &Reply) {
    return Fd >= 0 && srv::writeFrame(Fd, Request) &&
           srv::readFrame(Fd, Reply);
  }

private:
  int Fd;
};

void appendTuples(std::string &Out,
                  const std::vector<std::pair<std::string,
                                              std::vector<DynTuple>>> &Rels) {
  Out += '{';
  bool FirstRel = true;
  for (const auto &[Name, Tuples] : Rels) {
    Out += FirstRel ? "\"" : ",\"";
    FirstRel = false;
    Out += Name + "\":[";
    for (std::size_t I = 0; I < Tuples.size(); ++I) {
      Out += I ? ",[" : "[";
      for (std::size_t C = 0; C < Tuples[I].size(); ++C) {
        if (C)
          Out += ',';
        Out += std::to_string(Tuples[I][C]);
      }
      Out += ']';
    }
    Out += ']';
  }
  Out += '}';
}

std::string loadRequest(const std::string &Tenant, const WriteBatch &B) {
  std::string Out = "{\"cmd\":\"load\",\"tenant\":\"" + Tenant +
                    "\",\"facts\":";
  appendTuples(Out, B.Inserts);
  if (!B.Retracts.empty()) {
    Out += ",\"retract\":";
    appendTuples(Out, B.Retracts);
  }
  return Out + "}";
}

std::string queryRequest(const std::string &Tenant, const std::string &Rel,
                         const std::vector<std::optional<RamDomain>> &P) {
  std::string Out = "{\"cmd\":\"query\",\"tenant\":\"" + Tenant +
                    "\",\"relation\":\"" + Rel + "\"";
  if (!P.empty()) {
    Out += ",\"pattern\":[";
    for (std::size_t I = 0; I < P.size(); ++I) {
      if (I)
        Out += ',';
      Out += P[I] ? std::to_string(*P[I]) : "null";
    }
    Out += ']';
  }
  return Out + "}";
}

bool replyOk(const std::optional<json::Value> &Reply) {
  const json::Value *Ok = Reply ? Reply->find("ok") : nullptr;
  return Ok && Ok->isBool() && Ok->asBool();
}

double number(const json::Value *V, const std::string &Key) {
  const json::Value *N = V ? V->find(Key) : nullptr;
  return N && N->isNumber() ? N->asNumber() : 0;
}

/// A server and its two tenants.
struct Deployment {
  std::unique_ptr<srv::EngineSession> Pts, Net;
  srv::TenantRegistry Tenants;
  std::unique_ptr<srv::Server> Server;
  std::thread Loop;
  double BootSeconds = 0;

  ~Deployment() {
    if (Server)
      Server->stop();
    if (Loop.joinable())
      Loop.join();
  }
};

/// Boots both tenants and the server; null with \p Error set on failure.
std::unique_ptr<Deployment> deploy(const TenantStream &Pts,
                                   const TenantStream &Net, bool Traced,
                                   std::string &Error) {
  auto D = std::make_unique<Deployment>();
  {
    SpanScope Boot("srv.EngineSession::fromSource");
    const auto From = Clock::now();
    std::vector<std::string> Errors;
    D->Pts = srv::EngineSession::fromSource(Pts.source(), {}, &Errors);
    D->Net = srv::EngineSession::fromSource(Net.source(), {}, &Errors);
    D->BootSeconds = secondsSince(From);
    if (!D->Pts || !D->Net) {
      Error = "tenant program does not compile: " +
              (Errors.empty() ? std::string("?") : Errors.front());
      return nullptr;
    }
  }
  if (!D->Pts->isMaintained() || D->Net->isMaintained() ||
      !D->Net->isIncremental()) {
    Error = "tenants are not on the intended incremental paths";
    return nullptr;
  }
  D->Tenants.add("pts", *D->Pts);
  D->Tenants.add("net", *D->Net);
  srv::ServerOptions Options;
  Options.Host = "127.0.0.1";
  Options.Port = 0;
  Options.PoolThreads = 2;
  Options.TraceSampleEvery = Traced ? 1 : 0;
  D->Server = std::make_unique<srv::Server>(D->Tenants, Options);
  {
    SpanScope Start("srv.Server::start");
    if (!D->Server->start(&Error))
      return nullptr;
  }
  D->Loop = std::thread([Server = D->Server.get()] { Server->serve(); });
  return D;
}

/// What the rounds of one window measured.
struct Window {
  std::vector<double> Setups, Boots, RoundSeconds, FirstBatchMs;
  std::vector<double> PtsMs, NetMs, QueryUs;
  std::vector<double> PtsApply, NetApply; ///< reply `seconds`
  double Deleted = 0, ReevalStrata = 0;
  std::uint64_t Requests = 0, ReplyBytes = 0;
  /// The process's peak resident set after the first round's stream.
  double PeakRss = 0;
  std::vector<double> RssAfterBoot, RssAfterBulk, RssGrowthPerKBatch;
  /// The first traced round's pts stream, for the inc replay.
  WriteBatch PtsBulk;
  std::vector<WriteBatch> PtsBatches;
  std::map<std::string, std::pair<double, double>> Stages; ///< sum, count
  std::set<double> SeenTraces;
  json::Value PtsStats, NetStats; ///< the last round's stats replies
};

struct ReaderResult {
  std::vector<double> LatencyUs;
  std::uint64_t Attempted = 0, Failed = 0, Bytes = 0;
};

/// One reader connection: point and bound-prefix queries on both tenants;
/// 30% repeat one of eight hot queries, so some are answered from the
/// tenants' query caches between publishes.
void readerLoop(int Port, std::uint64_t Seed, const std::atomic<bool> &Stop,
                ReaderResult &Result) {
  Client C(Port);
  Rng R(Seed);
  auto ptsValue = [&] {
    return R.chance(10) ? R.below(12) : R.below(24000);
  };
  auto netValue = [&] {
    return R.chance(10) ? R.below(16) : R.below(32000);
  };
  auto fresh = [&]() -> std::string {
    const unsigned Pick = R.below(100);
    if (Pick < 40)
      return queryRequest("pts", "vpt", {ptsValue(), std::nullopt});
    if (Pick < 60)
      return queryRequest("pts", "vpt", {ptsValue(), ptsValue()});
    if (Pick < 70)
      return queryRequest("pts", "heap", {ptsValue(), std::nullopt});
    if (Pick < 85)
      return queryRequest("net", "reach", {netValue(), std::nullopt});
    return queryRequest("net", "reach", {netValue(), netValue()});
  };
  std::vector<std::string> Hot;
  for (int I = 0; I < 8; ++I)
    Hot.push_back(fresh());
  std::string Reply;
  while (!Stop.load(std::memory_order_relaxed)) {
    const std::string Request = R.chance(30) ? Hot[R.below(Hot.size())]
                                             : fresh();
    const auto From = Clock::now();
    bool Sent = false;
    {
      SpanScope Span("bench.query");
      Sent = C.roundTrip(Request, Reply);
    }
    const double Us = secondsSince(From) * 1e6;
    ++Result.Attempted;
    Result.Bytes += Reply.size();
    if (!Sent || !replyOk(json::parse(Reply)))
      ++Result.Failed;
    else
      Result.LatencyUs.push_back(Us);
    std::this_thread::sleep_for(ReaderThink);
  }
}

/// Reads the fields of a `stats` reply the per-layer metrics use, and the
/// retained request traces (deduplicated by sequence number).
bool fetchStats(Client &C, const std::string &Tenant, Window &W,
                json::Value &Into) {
  std::string Reply;
  if (!C.roundTrip("{\"cmd\":\"stats\",\"tenant\":\"" + Tenant + "\"}",
                   Reply))
    return false;
  std::optional<json::Value> Doc = json::parse(Reply);
  if (!replyOk(Doc))
    return false;
  const json::Value *Trace = Doc->find("trace");
  const json::Value *Recent = Trace ? Trace->find("recent") : nullptr;
  if (Recent && Recent->isArray())
    for (const json::Value &T : Recent->asArray()) {
      const double Seq = number(&T, "seq");
      const json::Value *Spans = T.find("spans");
      if (!Spans || !Spans->isObject() || !W.SeenTraces.insert(Seq).second)
        continue;
      for (const auto &[Stage, Micros] : Spans->asObject()) {
        W.Stages[Stage].first += Micros.asNumber();
        W.Stages[Stage].second += 1;
      }
    }
  Into = std::move(*Doc);
  return true;
}

/// Compares every relation of \p Tenant, as served, with a one-shot
/// evaluation of the tenant's net EDB.
void checkpoint(Client &C, const std::string &Tenant,
                const TenantStream &Stream,
                const std::vector<std::string> &Relations, Outcome &Out) {
  SpanScope Span("bench.checkpoint");
  auto Prog = core::Program::fromSource(Stream.source());
  if (!Prog) {
    Out.check(false, Tenant + ": reference does not compile");
    return;
  }
  interp::EngineOptions Options;
  Options.SuppressIo = true;
  Options.EchoPrintSize = false;
  auto Eng = Prog->makeEngine(Options);
  for (const auto &[Rel, Tuples] : Stream.netEdb())
    Eng->insertTuples(Rel, Tuples);
  Eng->run();
  for (const std::string &Rel : Relations) {
    std::string Reply;
    std::optional<json::Value> Doc;
    if (C.roundTrip(queryRequest(Tenant, Rel, {}), Reply))
      Doc = json::parse(Reply);
    const json::Value *Tuples = Doc ? Doc->find("tuples") : nullptr;
    std::vector<DynTuple> Served;
    if (replyOk(Doc) && Tuples && Tuples->isArray())
      for (const json::Value &T : Tuples->asArray()) {
        DynTuple Tuple;
        for (const json::Value &Cell : T.asArray())
          Tuple.push_back(static_cast<RamDomain>(
              std::stoll(Cell.isString() ? Cell.asString() : "0")));
        Served.push_back(std::move(Tuple));
      }
    Out.check(replyOk(Doc) && sorted(std::move(Served)) ==
                                  sorted(Eng->getTuples(Rel)),
              Tenant + "." + Rel +
                  ": served contents differ from a fresh evaluation");
  }
}

/// One round: boots a deployment and loads both tenants' initial facts
/// (the set-up), streams PassesPerRound passes of write batches while the
/// readers run, checks both tenants, and tears the deployment down. Every
/// round of a run replays the same streams, so rounds differ only by
/// noise. Returns false when the deployment could not be booted.
bool runRound(std::uint64_t Seed, bool Traced, Window &W, Outcome &Out) {
  TenantStream Pts = ptsStream(Seed), Net = netStream(Seed);
  const auto SetupFrom = Clock::now();
  std::string Error;
  std::unique_ptr<Deployment> D = deploy(Pts, Net, Traced, Error);
  if (!D) {
    Out.check(false, "deploy: " + Error);
    return false;
  }
  W.RssAfterBoot.push_back(currentRssMb());
  const int Port = D->Server->boundPort();
  Client Writer(Port), Checker(Port);
  const WriteBatch PtsBulk = Pts.bulk();
  std::string Reply;
  for (const auto &[Tenant, Request] :
       {std::pair{std::string("pts"), loadRequest("pts", PtsBulk)},
        std::pair{std::string("net"), loadRequest("net", Net.bulk())}}) {
    SpanScope Span("bench.bulk_load");
    Out.check(Writer.roundTrip(Request, Reply) && replyOk(json::parse(Reply)),
              Tenant + ": bulk load failed");
  }
  W.Setups.push_back(secondsSince(SetupFrom));
  W.Boots.push_back(D->BootSeconds);
  W.RssAfterBulk.push_back(currentRssMb());
  const bool Record = Traced && W.PtsBatches.empty();
  if (Record)
    W.PtsBulk = PtsBulk;

  std::atomic<bool> Stop{false};
  std::vector<ReaderResult> Results(NumReaders);
  std::vector<std::thread> Readers;
  for (std::size_t I = 0; I < NumReaders; ++I)
    Readers.emplace_back(readerLoop, Port, subSeed(Seed, 200 + I),
                         std::cref(Stop), std::ref(Results[I]));
  double RssFirstPass = 0;
  const auto StreamFrom = Clock::now();
  for (std::size_t Pass = 0; Pass < PassesPerRound; ++Pass) {
    for (std::size_t B = 0; B < BatchesPerPass; ++B) {
      for (const char *Tenant : {"pts", "net"}) {
        const bool IsPts = Tenant[0] == 'p';
        WriteBatch Batch = IsPts ? Pts.next(OpsPerBatch)
                                 : Net.next(OpsPerBatch);
        const std::string Request = loadRequest(Tenant, Batch);
        std::optional<json::Value> Doc;
        double Ms = 0;
        {
          SpanScope Span(IsPts ? "bench.pts_batch" : "bench.net_batch");
          const auto From = Clock::now();
          const bool Sent = Writer.roundTrip(Request, Reply);
          Ms = secondsSince(From) * 1e3;
          if (Sent)
            Doc = json::parse(Reply);
        }
        ++W.Requests;
        W.ReplyBytes += Reply.size();
        Out.check(replyOk(Doc), std::string(Tenant) + ": load failed");
        if (!replyOk(Doc))
          continue;
        if (IsPts) {
          if (Pass == 0 && B == 0)
            W.FirstBatchMs.push_back(Ms);
          W.PtsMs.push_back(Ms);
          W.PtsApply.push_back(number(&*Doc, "seconds"));
          W.Deleted += number(&*Doc, "deleted");
          W.ReevalStrata += number(&*Doc, "reeval_strata");
          if (Record)
            W.PtsBatches.push_back(std::move(Batch));
        } else {
          W.NetMs.push_back(Ms);
          W.NetApply.push_back(number(&*Doc, "seconds"));
        }
      }
      if (Traced && B % 8 == 7)
        fetchStats(Checker, "pts", W, W.PtsStats);
    }
    if (Pass == 0)
      RssFirstPass = currentRssMb();
  }
  W.RoundSeconds.push_back(secondsSince(StreamFrom));
  W.RssGrowthPerKBatch.push_back((currentRssMb() - RssFirstPass) * 1000 /
                                 (2 * BatchesPerPass * (PassesPerRound - 1)));
  // The session's batch log grows with every batch, so the peak is read
  // after a fixed amount of work: the first round's stream.
  if (W.PeakRss == 0)
    W.PeakRss = peakRssMb();
  Stop = true;
  for (std::thread &T : Readers)
    T.join();
  for (ReaderResult &R : Results) {
    W.QueryUs.insert(W.QueryUs.end(), R.LatencyUs.begin(), R.LatencyUs.end());
    W.Requests += R.Attempted;
    W.ReplyBytes += R.Bytes;
    Out.Attempted += R.Attempted;
    Out.Failed += R.Failed;
    if (R.Failed)
      Out.Errors.push_back(std::to_string(R.Failed) + " queries failed");
  }
  Out.check(fetchStats(Checker, "pts", W, W.PtsStats), "pts: stats failed");
  Out.check(fetchStats(Checker, "net", W, W.NetStats), "net: stats failed");
  checkpoint(Checker, "pts", Pts, PtsRelations, Out);
  checkpoint(Checker, "net", Net, NetRelations, Out);
  return true;
}

/// Runs rounds until \p Seconds have gone by (at least MinRounds).
Window runRounds(std::uint64_t Seed, double Seconds, bool Traced,
                 Outcome &Out) {
  Window W;
  const auto From = Clock::now();
  while (W.RoundSeconds.size() < MinRounds || secondsSince(From) < Seconds)
    if (!runRound(Seed, Traced, W, Out))
      break;
  return W;
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : sum(V) / V.size();
}

/// Re-applies the traced window's pts stream through inc::Maintainer on a
/// standalone engine, timing the maintenance layer without srv.
void replayMaintainer(const TenantStream &Pts, const Window &W,
                      Outcome &Out) {
  core::CompileOptions Compile;
  Compile.EmitMaintenance = true;
  auto Prog = core::Program::fromSource(Pts.source(), nullptr, Compile);
  if (!Prog)
    return;
  interp::EngineOptions Options;
  Options.SuppressIo = true;
  Options.EchoPrintSize = false;
  auto Eng = Prog->makeEngine(Options);
  Eng->run();
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  auto toMixed = [](const WriteBatch &B) {
    inc::MixedBatch Mixed;
    for (const auto &[Rel, Tuples] : B.Inserts)
      Mixed.push_back({Rel, Tuples, {}});
    for (const auto &[Rel, Tuples] : B.Retracts)
      Mixed.push_back({Rel, {}, Tuples});
    return Mixed;
  };
  auto timedApply = [&](const WriteBatch &B) {
    const inc::MixedBatch Mixed = toMixed(B);
    SpanScope Span("inc.Maintainer::apply");
    const auto From = Clock::now();
    Maint.apply(Mixed);
    return secondsSince(From);
  };
  {
    SpanScope Span("inc.Maintainer::bootstrap");
    const auto From = Clock::now();
    Maint.bootstrap();
    Out.set("inc.bootstrap_s", secondsSince(From));
  }
  timedApply(W.PtsBulk);
  std::vector<double> Applies;
  for (const WriteBatch &B : W.PtsBatches)
    Applies.push_back(timedApply(B));
  Out.set("inc.first_apply_s", Applies.empty() ? 0 : Applies.front());
  Out.set("inc.apply_s", mean(Applies));
  Out.set("srv.leftright_s", mean(W.PtsApply) - mean(Applies));
}

/// Sums a counter over the `relations` entries of a stats reply.
double relationSum(const json::Value &Stats, const std::string &Key) {
  const json::Value *Rels = Stats.isObject() ? Stats.find("relations")
                                             : nullptr;
  double Total = 0;
  if (Rels && Rels->isArray())
    for (const json::Value &R : Rels->asArray())
      Total += number(&R, Key);
  return Total;
}

} // namespace

Outcome perfbench::runServeChurn(const RunConfig &Config) {
  Outcome Out;
  auto fastest = [](const std::vector<double> &V) {
    return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
  };
  if (!Config.Trace) {
    Window W = runRounds(Config.Seed, Config.Seconds, false, Out);
    // The fastest round, as the one-shot workloads take each program's
    // fastest set-up and evaluation: every round replays the same streams.
    Out.set("setup_s", fastest(W.Setups));
    Out.set("eval_s", fastest(W.RoundSeconds));
    Out.set("peak_rss_mb", W.PeakRss);
    return Out;
  }

  // Half the window untraced (client latencies and the base of
  // obs.trace_overhead), half with 1-in-1 request tracing (layer times).
  Window Plain = runRounds(Config.Seed, Config.Seconds / 2, false, Out);
  Window W = runRounds(Config.Seed, Config.Seconds / 2, true, Out);

  const double Base = fastest(Plain.RoundSeconds);
  Out.set("obs.trace_overhead",
          Base > 0 ? (fastest(W.RoundSeconds) - Base) / Base : 0);
  Out.set("obs.trace_overhead_base_s", Base);
  Out.set("serve.batch_p50_ms", quantile(Plain.PtsMs, 0.5));
  Out.set("serve.batch_p90_ms", quantile(Plain.PtsMs, 0.9));
  Out.set("serve.batches", Plain.PtsMs.size());
  Out.set("serve.first_batch_ms", median(Plain.FirstBatchMs));
  Out.set("serve.insert_batch_p50_ms", quantile(Plain.NetMs, 0.5));
  Out.set("serve.insert_batch_p90_ms", quantile(Plain.NetMs, 0.9));
  Out.set("serve.insert_batches", Plain.NetMs.size());
  Out.set("serve.query_p50_us", quantile(Plain.QueryUs, 0.5));
  Out.set("serve.query_p99_us", quantile(Plain.QueryUs, 0.99));
  Out.set("serve.queries", Plain.QueryUs.size());
  const double StreamSeconds = sum(Plain.RoundSeconds);
  Out.set("serve.requests_per_s",
          StreamSeconds > 0 ? Plain.Requests / StreamSeconds : 0);

  Out.set("srv.boot_s", median(W.Boots));
  Out.set("srv.apply_s", mean(W.PtsApply));
  Out.set("srv.update_apply_s", mean(W.NetApply));
  for (const auto &[Stage, SumCount] : W.Stages)
    Out.set("srv.stage_us." + Stage,
            SumCount.second > 0 ? SumCount.first / SumCount.second : 0);
  double Hits = 0, Misses = 0, Invalidations = 0;
  for (const json::Value *S : {&W.PtsStats, &W.NetStats}) {
    const json::Value *Cache = S->isObject() ? S->find("cache") : nullptr;
    Hits += number(Cache, "hits");
    Misses += number(Cache, "misses");
    Invalidations += number(Cache, "invalidations");
  }
  Out.set("srv.cache_hit_ratio",
          Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  Out.set("srv.cache_lookups", Hits + Misses);
  Out.set("srv.cache_invalidations", Invalidations);
  Out.set("srv.reply_bytes",
          W.Requests > 0 ? double(W.ReplyBytes) / W.Requests : 0);

  const json::Value *Sched =
      W.PtsStats.isObject() ? W.PtsStats.find("scheduler") : nullptr;
  Out.set("sched.jobs", number(Sched, "jobs"));
  Out.set("sched.tasks", number(Sched, "tasks"));
  Out.set("sched.stolen", number(Sched, "tasks_stolen"));
  Out.set("sched.injected", number(Sched, "tasks_injected"));
  Out.set("sched.submitted", number(Sched, "submitted"));

  const json::Value *Maint =
      W.PtsStats.isObject() ? W.PtsStats.find("maintenance") : nullptr;
  Out.set("inc.deleted", W.Deleted);
  Out.set("inc.rederived", number(Maint, "rederived"));
  Out.set("inc.reeval_strata", W.ReevalStrata);
  replayMaintainer(ptsStream(Config.Seed), W, Out);

  auto der = [&](const std::string &Key) {
    return relationSum(W.PtsStats, Key) + relationSum(W.NetStats, Key);
  };
  const double Inserts = der("inserts"), IndexScans = der("index_scans");
  Out.set("der.inserts", Inserts);
  Out.set("der.insert_new_ratio",
          Inserts > 0 ? der("inserts_new") / Inserts : 0);
  Out.set("der.contains", der("contains"));
  Out.set("der.index_scans", IndexScans);
  Out.set("der.index_scan_hit_ratio",
          IndexScans > 0 ? der("index_scan_hits") / IndexScans : 0);
  Out.set("der.point_lookups", der("point_lookups"));
  Out.set("der.range_scans", der("range_scans"));
  Out.set("der.scan_tuples", der("scan_tuples") + der("index_scan_tuples"));
  Out.set("der.reorders", der("reorders"));
  Out.set("der.peak_tuples", der("peak_size"));

  Out.set("mem.rss_after_boot_mb", median(W.RssAfterBoot));
  Out.set("mem.rss_after_bulk_mb", median(W.RssAfterBulk));
  Out.set("mem.rss_growth_mb_per_kbatch", median(W.RssGrowthPerKBatch));
  return Out;
}
