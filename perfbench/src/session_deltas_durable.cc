// session_deltas_durable: one closed-loop client on a server with a
// storage directory (default WAL options). Set-up opens 40 live
// sessions; the window mixes 30% ApplyDelta and 70% QuerySession top-10
// and calls Checkpoint every 500 operations. After the window the
// server shuts down and a second server warm-boots from the same
// directory; every session it recovers must rank bit-identically.
//
// The 40 session proteins are one fixed choice; the seed draws the
// deltas and the operation sequence, so that it varies the traffic
// rather than how large the live graphs are.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "api/server.h"
#include "compose.h"
#include "ingest/delta.h"
#include "storage/codec.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using biorank::EdgeId;
using biorank::NodeId;
using biorank::QueryGraph;
using biorank::Rng;
namespace api = biorank::api;
namespace ingest = biorank::ingest;
namespace storage = biorank::storage;

constexpr int kSessions = 40;
/// Stream root of the fixed choice of session proteins.
constexpr uint64_t kSessionChoiceSeed = 20090401;
constexpr int kTopK = 10;
constexpr double kDeltaShare = 0.3;
constexpr int64_t kCheckpointEvery = 500;
constexpr int kDeltasPerSession = 16;
constexpr size_t kOps = 1 << 17;
/// Peak memory is read after the first kMemoryOps operations, and the
/// window is extended until they are done: the reliability cache and the
/// heap grow with every operation, so a reading when the window closes
/// would rise with the host's speed.
constexpr size_t kMemoryOps = 1 << 15;
/// Traced runs replay seconds * kTracedOpsPerSecond / 2 operations in
/// each of their two passes.
constexpr double kTracedOpsPerSecond = 2000.0;
/// Fingerprint stamped into the traced pass's own WAL and snapshots.
constexpr uint64_t kTracedStoreFingerprint = 0x70657266626e6368ULL;

/// One client operation of the pre-generated sequence.
struct Op {
  bool delta = false;
  int session = 0;
  int delta_index = 0;
};

struct Inputs {
  std::vector<api::QueryRequest> opens;  ///< One per session.
  std::vector<Op> ops;
  /// deltas[s][d]: built from session s's opening graph.
  std::vector<std::vector<ingest::EvidenceDelta>> deltas;
  uint64_t digest = 0xCBF29CE484222325ULL;
};

/// The sessions' queries: kSessions distinct proteins, the same in every
/// run.
std::vector<api::QueryRequest> MakeOpens(
    const biorank::ProteinUniverse& universe) {
  std::vector<int> order(static_cast<size_t>(universe.num_proteins()));
  std::iota(order.begin(), order.end(), 0);
  Rng rng = Rng::ForStream(kSessionChoiceSeed, 0);
  rng.Shuffle(order);
  std::vector<api::QueryRequest> opens;
  for (int s = 0; s < kSessions; ++s) {
    opens.push_back(api::MakeProteinFunctionRequest(
        universe.protein(order[static_cast<size_t>(s)]).gene_symbol));
  }
  return opens;
}

/// bench_api_server's delta shape: reweight ~2% of the non-source edges
/// by a factor in [0.9, 1.1] and revise ~1% of the node probabilities by
/// a factor in [0.95, 1.05], all clamped to [0.05, 1].
ingest::EvidenceDelta BuildDelta(const QueryGraph& graph, Rng& rng) {
  ingest::EvidenceDelta delta;
  std::vector<EdgeId> edges;
  for (EdgeId e : graph.graph.AliveEdges()) {
    if (graph.graph.edge(e).from != graph.source) edges.push_back(e);
  }
  const int reweights = std::max<int>(1, static_cast<int>(edges.size()) / 50);
  rng.Shuffle(edges);
  for (int i = 0; i < reweights && i < static_cast<int>(edges.size()); ++i) {
    const EdgeId e = edges[static_cast<size_t>(i)];
    const double q = graph.graph.edge(e).q;
    delta.reweight_edges.push_back(
        {e, std::min(1.0, std::max(0.05, q * rng.NextUniform(0.9, 1.1)))});
  }
  std::vector<NodeId> nodes = graph.graph.AliveNodes();
  rng.Shuffle(nodes);
  const int revisions = std::max<int>(1, static_cast<int>(nodes.size()) / 100);
  int revised = 0;
  for (NodeId n : nodes) {
    if (revised >= revisions) break;
    if (n == graph.source) continue;
    const double p = graph.graph.node(n).p;
    delta.revise_node_probs.push_back(
        {n, std::min(1.0, std::max(0.05, p * rng.NextUniform(0.95, 1.05)))});
    ++revised;
  }
  return delta;
}

/// Deltas and the operation sequence, from the opened sessions' graphs.
Inputs MakeInputs(api::Server& server, const std::vector<api::SessionId>& ids,
                  std::vector<api::QueryRequest> opens, uint64_t seed,
                  RunResult& result) {
  Inputs in;
  in.opens = std::move(opens);
  for (int s = 0; s < kSessions; ++s) {
    auto graph = server.SessionSnapshot(ids[static_cast<size_t>(s)]);
    if (!graph.ok()) {
      result.failures.push_back("session snapshot: " +
                                graph.status().ToString());
      return in;
    }
    std::vector<ingest::EvidenceDelta> deltas;
    for (int d = 0; d < kDeltasPerSession; ++d) {
      Rng rng = Rng::ForStream(
          seed, 1000 + static_cast<uint64_t>(s) * kDeltasPerSession +
                    static_cast<uint64_t>(d));
      deltas.push_back(BuildDelta(graph.value(), rng));
      storage::ByteWriter bytes;
      storage::EncodeDelta(deltas.back(), bytes);
      for (char ch : bytes.bytes()) {
        in.digest = MixDigest(in.digest, static_cast<uint64_t>(ch));
      }
    }
    in.deltas.push_back(std::move(deltas));
  }
  Rng rng = Rng::ForStream(seed, 1);
  std::vector<int> next_delta(kSessions, 0);
  in.ops.reserve(kOps);
  for (size_t j = 0; j < kOps; ++j) {
    Op op;
    op.delta = rng.NextBernoulli(kDeltaShare);
    op.session = static_cast<int>(rng.NextBounded(kSessions));
    if (op.delta) {
      int& next = next_delta[static_cast<size_t>(op.session)];
      op.delta_index = next;
      next = (next + 1) % kDeltasPerSession;
    }
    in.ops.push_back(op);
    in.digest = MixDigest(in.digest, static_cast<uint64_t>(op.delta) * 1000 +
                                         static_cast<uint64_t>(op.session));
  }
  return in;
}

api::ServerOptions DurableOptions(const std::string& dir) {
  api::ServerOptions options;
  options.storage_dir = dir;
  return options;
}

/// A durable server in `dir` with kSessions live sessions.
std::unique_ptr<api::Server> SetUp(const std::string& dir,
                                   std::vector<api::QueryRequest>& opens,
                                   std::vector<api::SessionId>& ids,
                                   RunResult& result) {
  auto server = std::make_unique<api::Server>(DurableOptions(dir));
  if (!server->storage_status().ok()) {
    result.failures.push_back("storage boot: " +
                              server->storage_status().ToString());
  }
  opens = MakeOpens(server->universe());
  ids.clear();
  for (const api::QueryRequest& open : opens) {
    auto info = server->OpenSession(open);
    if (!info.ok()) {
      result.failures.push_back("open session: " + info.status().ToString());
      ids.push_back(0);
      continue;
    }
    ids.push_back(info.value().id);
  }
  return server;
}

/// The top-k of every session, by session position.
std::vector<Fingerprint> SessionRankings(api::Server& server,
                                         const std::vector<api::SessionId>& ids,
                                         RunResult& result) {
  std::vector<Fingerprint> rankings;
  for (api::SessionId id : ids) {
    auto response = server.QuerySession(id, kTopK);
    if (!response.ok()) {
      result.failures.push_back("session query: " +
                                response.status().ToString());
      rankings.emplace_back();
      continue;
    }
    rankings.push_back(api::RankingFingerprint(response.value()));
  }
  return rankings;
}

/// Shuts `server` down, warm-boots a second server from `dir`, and
/// checks that every session ranks as it did before shutdown. Returns
/// the second server for its recovery report.
std::unique_ptr<api::Server> WarmBoot(std::unique_ptr<api::Server> server,
                                      const std::string& dir,
                                      const std::vector<api::SessionId>& ids,
                                      double& boot_s, RunResult& result) {
  const std::vector<Fingerprint> before = SessionRankings(*server, ids, result);
  server.reset();
  const Clock::time_point start = Clock::now();
  auto recovered = std::make_unique<api::Server>(DurableOptions(dir));
  boot_s = SecondsBetween(start, Clock::now());
  if (!recovered->storage_status().ok() || !recovered->durable()) {
    result.failures.push_back("warm boot: " +
                              recovered->storage_status().ToString());
    return recovered;
  }
  const std::vector<Fingerprint> after =
      SessionRankings(*recovered, ids, result);
  for (size_t s = 0; s < ids.size(); ++s) {
    if (after[s] != before[s]) {
      result.failures.push_back("session " + std::to_string(ids[s]) +
                                " ranks differently after the warm boot");
    }
  }
  return recovered;
}

/// What one operation returned: success, and the ranking for queries.
struct OpOutcome {
  bool ok = true;
  Fingerprint ranking;
};

/// Runs one operation of the sequence on `server`.
OpOutcome RunOp(api::Server& server, const Inputs& in,
                const std::vector<api::SessionId>& ids, const Op& op) {
  OpOutcome out;
  const api::SessionId id = ids[static_cast<size_t>(op.session)];
  if (op.delta) {
    out.ok = server
                 .ApplyDelta(id, in.deltas[static_cast<size_t>(op.session)]
                                          [static_cast<size_t>(op.delta_index)])
                 .ok();
  } else {
    auto response = server.QuerySession(id, kTopK);
    out.ok = response.ok();
    if (out.ok) out.ranking = api::RankingFingerprint(response.value());
  }
  return out;
}

void RunMeasured(const RunConfig& config, RunResult& result) {
  EndToEnd e2e;
  const std::string parent = config.out_dir + "/stores";
  std::vector<api::QueryRequest> opens;
  std::vector<api::SessionId> ids;
  // Each set-up boots a server in a fresh, empty storage directory.
  struct Deployment {
    std::unique_ptr<ScratchDir> dir;
    std::unique_ptr<api::Server> server;
  };
  Deployment deployment = RepeatSetUp(
      [&] {
        Deployment d;
        d.dir = std::make_unique<ScratchDir>(parent, "session_deltas_durable");
        d.server = SetUp(d.dir->path(), opens, ids, result);
        return d;
      },
      e2e.setups);
  std::unique_ptr<ScratchDir> dir = std::move(deployment.dir);
  std::unique_ptr<api::Server> server = std::move(deployment.server);
  const Inputs in = MakeInputs(*server, ids, opens, config.seed, result);
  result.input_digest = in.digest;
  if (!result.failures.empty()) return;

  std::vector<double> query_ms, update_ms, checkpoint_ms;
  double peak_rss_mb = 0.0;
  const Clock::time_point deadline = e2e.Open(config.seconds);
  for (size_t j = 0; Clock::now() < deadline || j < kMemoryOps; ++j) {
    const Op& op = in.ops[j % in.ops.size()];
    const Clock::time_point sent = Clock::now();
    const OpOutcome out = RunOp(*server, in, ids, op);
    const Clock::time_point done = Clock::now();
    ++result.attempted;
    if (!out.ok) {
      ++result.failed;
    } else {
      e2e.samples.push_back(e2e.Make(sent, done, done));
      (op.delta ? update_ms : query_ms).push_back(e2e.samples.back().latency_ms);
    }
    if ((j + 1) % kCheckpointEvery == 0) {
      const Clock::time_point checkpoint_sent = Clock::now();
      auto report = server->Checkpoint();
      const Clock::time_point checkpoint_done = Clock::now();
      ++result.attempted;
      if (!report.ok()) {
        ++result.failed;
      } else {
        e2e.samples.push_back(
            e2e.Make(checkpoint_sent, checkpoint_done, checkpoint_done));
        checkpoint_ms.push_back(e2e.samples.back().latency_ms);
      }
      e2e.MarkCpu(e2e.samples.size());
    }
    if (j + 1 == kMemoryOps) peak_rss_mb = PeakRssMb();
  }
  e2e.Close();
  e2e.peak_rss_mb = peak_rss_mb;
  AddEndToEnd(e2e, result);

  double recovery_s = 0.0;
  auto recovered =
      WarmBoot(std::move(server), dir->path(), ids, recovery_s, result);
  const biorank::storage::RecoveryReport& recovery =
      recovered->recovery_report();
  result.report = BaseReport(e2e, result);
  result.report.insert(result.report.end(), {
      {"query_p50_ms", Median(query_ms), "ms"},
      {"query_p99_ms", Percentile(query_ms, 0.99, "query_p99_ms", result),
       "ms"},
      {"update_p50_ms", Median(update_ms), "ms"},
      {"update_p99_ms", Percentile(update_ms, 0.99, "update_p99_ms", result),
       "ms"},
      {"checkpoint_p50_ms", Median(checkpoint_ms), "ms"},
      {"recovery_s", recovery_s, "s"},
      {"recovery_storage_s", recovery.seconds, "s"},
      {"recovered_sessions", static_cast<double>(recovery.sessions_recovered),
       "count"},
      {"replayed_records", static_cast<double>(recovery.replayed_records),
       "count"},
      {"queries", static_cast<double>(query_ms.size()), "count"},
      {"updates", static_cast<double>(update_ms.size()), "count"},
      {"checkpoints", static_cast<double>(checkpoint_ms.size()), "count"},
  });
}

/// The traced pass's own durable session state: sessions served by the
/// server's mediator on a separate ranking service, logged to a WAL of
/// their own.
struct TracedStore {
  std::vector<biorank::Mediator::LiveExploratoryQuery> sessions;
  std::unique_ptr<storage::Wal> wal;
};

void RunTraced(const RunConfig& config, RunResult& result) {
  const std::string parent = config.out_dir + "/stores";
  ScratchDir server_dir(parent, "session_deltas_durable");
  ScratchDir traced_dir(parent, "session_deltas_traced");
  std::vector<api::QueryRequest> opens;
  std::vector<api::SessionId> ids;
  auto server = SetUp(server_dir.path(), opens, ids, result);
  const Inputs in = MakeInputs(*server, ids, opens, config.seed, result);
  result.input_digest = in.digest;
  if (!result.failures.empty()) return;
  // Half a checkpoint interval past a multiple of it, so the warm boot
  // below replays a WAL tail instead of starting at a fresh snapshot.
  const size_t ops = static_cast<size_t>(
      std::max(1.0, config.seconds * kTracedOpsPerSecond / 2.0)) +
      kCheckpointEvery / 2;

  // Untraced pass: reference rankings and untraced throughput.
  std::vector<Fingerprint> expected(ops);
  int64_t calls = 0;
  Clock::time_point start = Clock::now();
  for (size_t j = 0; j < ops; ++j) {
    const OpOutcome out = RunOp(*server, in, ids, in.ops[j % in.ops.size()]);
    ++calls;
    if (!out.ok) result.failures.push_back("untraced operation failed");
    expected[j] = out.ranking;
    if ((j + 1) % kCheckpointEvery == 0) {
      ++calls;
      if (!server->Checkpoint().ok()) {
        result.failures.push_back("untraced checkpoint failed");
      }
    }
  }
  TraceExtras extras;
  extras.untraced_rps =
      static_cast<double>(calls) / SecondsBetween(start, Clock::now());

  // Traced pass: the same operations composed from the mediator, the
  // ingest applier and the storage layer.
  biorank::serve::RankingServiceOptions ranking = server->options().ranking;
  ranking.registry = nullptr;
  biorank::serve::RankingService service(ranking);
  const biorank::Mediator& mediator = server->mediator();
  TracedStore store;
  {
    storage::WalOptions wal_options = server->options().wal;
    wal_options.registry = nullptr;
    auto opened = storage::Wal::Open(storage::WalPath(traced_dir.path()),
                                     kTracedStoreFingerprint, wal_options);
    if (!opened.ok()) {
      result.failures.push_back("traced WAL: " + opened.status().ToString());
      return;
    }
    store.wal = std::move(opened.value().wal);
  }
  for (int s = 0; s < kSessions; ++s) {
    const api::QueryRequest& open = in.opens[static_cast<size_t>(s)];
    storage::ByteWriter body;
    storage::EncodeQuery(open.query, body);
    auto live = mediator.ServeLive(open.query, service);
    if (!live.ok() ||
        !store.wal
             ->Append(storage::WalRecordType::kOpenSession,
                      ids[static_cast<size_t>(s)], body.bytes())
             .ok()) {
      result.failures.push_back("traced session open failed");
      return;
    }
    store.sessions.push_back(std::move(live.value()));
  }

  // Checkpoint composed as Server::Checkpoint does it: freeze every
  // session, export the cache, sync the WAL, write the snapshot.
  auto checkpoint = [&](RequestTrace& trace) -> biorank::Status {
    ScopedSpan span(trace, "storage.checkpoint");
    storage::SnapshotState state;
    state.fingerprint = kTracedStoreFingerprint;
    state.wal_lsn = store.wal->last_lsn();
    state.next_session_id = ids.back() + 1;
    for (int s = 0; s < kSessions; ++s) {
      biorank::Mediator::LiveExploratoryQuery& live =
          store.sessions[static_cast<size_t>(s)];
      ingest::UpdateApplier::FrozenState frozen = live.applier->Freeze();
      storage::SnapshotSession snap;
      snap.id = ids[static_cast<size_t>(s)];
      snap.applied_lsn = frozen.wal_lsn;
      snap.matched_proteins = live.matched_proteins;
      snap.go_node = live.go_node;
      snap.answer_labels = live.answer_labels;
      snap.graph = std::move(frozen.graph);
      snap.csr = std::move(frozen.csr);
      state.sessions.push_back(std::move(snap));
    }
    for (auto& [repr, entry] : service.cache().Export()) {
      state.cache_entries.push_back({std::move(repr), entry});
    }
    const uint64_t syncs = store.wal->stats().syncs;
    BIORANK_RETURN_IF_ERROR(store.wal->Sync());
    trace.Count("storage.wal_syncs",
                static_cast<double>(store.wal->stats().syncs - syncs));
    uint64_t bytes = 0;
    BIORANK_RETURN_IF_ERROR(storage::WriteSnapshotFile(
        traced_dir.path(), state, nullptr, &bytes));
    trace.Count("storage.checkpoint_bytes", static_cast<double>(bytes));
    return biorank::Status::OK();
  };

  TraceLog log;
  int64_t traced_calls = 0;
  start = Clock::now();
  for (size_t j = 0; j < ops; ++j) {
    const Op& op = in.ops[j % in.ops.size()];
    biorank::Mediator::LiveExploratoryQuery& live =
        store.sessions[static_cast<size_t>(op.session)];
    auto trace = std::make_unique<RequestTrace>(j, "request");
    bool ok = true;
    if (op.delta) {
      const ingest::EvidenceDelta& delta =
          in.deltas[static_cast<size_t>(op.session)]
                   [static_cast<size_t>(op.delta_index)];
      // Log-then-apply, as a WAL-attached UpdateApplier does; the
      // structural validation it runs before logging happens here inside
      // Mediator::ApplyDelta, which every generated delta passes.
      const storage::WalStats before = store.wal->stats();
      auto lsn = Traced(*trace, "storage.wal_append", [&] {
        storage::ByteWriter body;
        storage::EncodeDelta(delta, body);
        return store.wal->Append(storage::WalRecordType::kApplyDelta,
                                 ids[static_cast<size_t>(op.session)],
                                 body.bytes());
      });
      const storage::WalStats after = store.wal->stats();
      trace->Count("storage.wal_bytes",
                   static_cast<double>(after.bytes - before.bytes));
      trace->Count("storage.wal_records",
                   static_cast<double>(after.records - before.records));
      trace->Count("storage.wal_syncs",
                   static_cast<double>(after.syncs - before.syncs));
      auto report = Traced(*trace, "ingest.apply",
                           [&] { return mediator.ApplyDelta(live, delta); });
      ok = lsn.ok() && report.ok();
      if (report.ok()) {
        trace->Count("ingest.dirty_answers", report.value().dirty_answers);
        trace->Count("ingest.clean_answers", report.value().clean_answers);
        trace->Count("ingest.invalidated_entries",
                     static_cast<double>(report.value().invalidated_entries));
      }
    } else {
      const int answers = live.applier->answer_count();
      auto top = Traced(*trace, "serve.rank_prepared", [&] {
        return live.applier->RankTopK(std::min(kTopK, answers));
      });
      ok = top.ok();
      if (ok) {
        CountStats(top.value().stats, -1, *trace);
        ok = FingerprintOf(top.value().top) == expected[j];
      }
    }
    trace->Finish();
    log.push_back(std::move(trace));
    ++traced_calls;
    ++result.attempted;
    if (!ok) ++result.failed;
    if ((j + 1) % kCheckpointEvery == 0) {
      auto checkpoint_trace =
          std::make_unique<RequestTrace>(ops + j, "request");
      const biorank::Status status = checkpoint(*checkpoint_trace);
      checkpoint_trace->Finish();
      log.push_back(std::move(checkpoint_trace));
      ++traced_calls;
      ++result.attempted;
      if (!status.ok()) ++result.failed;
    }
  }
  extras.traced_rps =
      static_cast<double>(traced_calls) / SecondsBetween(start, Clock::now());
  if (result.failed > 0) {
    result.failures.push_back(std::to_string(result.failed) +
                              " traced operations failed or ranked "
                              "differently from the Server");
  }
  store.sessions.clear();
  store.wal.reset();

  double boot_s = 0.0;
  auto recovered =
      WarmBoot(std::move(server), server_dir.path(), ids, boot_s, result);
  extras.replayed_records =
      static_cast<double>(recovered->recovery_report().replayed_records);
  extras.cache_entries_restored =
      static_cast<double>(recovered->recovery_report().cache_entries_restored);
  FinishTrace(config, log, extras, result);
}

}  // namespace

RunResult RunSessionDeltasDurable(const RunConfig& config) {
  RunResult result;
  if (config.trace) {
    RunTraced(config, result);
  } else {
    RunMeasured(config, result);
  }
  return result;
}

}  // namespace perfbench
