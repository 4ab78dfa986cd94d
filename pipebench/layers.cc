#include "layers.h"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "merge/merge_engine.h"
#include "net/thread_runtime.h"
#include "query/evaluator.h"
#include "query/relevance.h"
#include "query/scan.h"
#include "storage/versioned_store.h"
#include "util.h"

namespace pipebench {

using mvc::BoundView;
using mvc::TableDelta;
using mvc::ViewId;

namespace {

constexpr size_t kScanQueries = 2000;
constexpr size_t kShallowBacklog = 16;
constexpr size_t kDeepBacklog = 2048;
constexpr double kPaintBudgetS = 0.4;
constexpr int64_t kPingPongMessages = 20000;
constexpr int kPingPongRounds = 3;

/// One source txn's effect: the view deltas its complete managers would
/// emit, and its REL set.
struct TxnEffect {
  std::vector<std::pair<const BoundView*, TableDelta>> deltas;
  std::vector<ViewId> rel;
};

double Micros(Clock::time_point start) { return SecondsSince(start) * 1e6; }

/// Two processes bouncing one TickMsg; tag counts hops.
class PingPong : public mvc::Process {
 public:
  PingPong(std::string name, int64_t hops, bool starts)
      : Process(std::move(name)), hops_(hops), starts_(starts) {}
  void SetPeer(mvc::ProcessId peer) { peer_ = peer; }
  void OnStart() override {
    if (!starts_) return;
    auto tick = std::make_unique<mvc::TickMsg>();
    tick->tag = 1;
    Send(peer_, std::move(tick));
  }
  void OnMessage(mvc::ProcessId from, mvc::MessagePtr msg) override {
    const int64_t hop = static_cast<mvc::TickMsg*>(msg.get())->tag;
    if (hop >= hops_) return;
    auto tick = std::make_unique<mvc::TickMsg>();
    tick->tag = hop + 1;
    Send(from, std::move(tick));
  }

 private:
  int64_t hops_;
  bool starts_;
  mvc::ProcessId peer_ = mvc::kInvalidProcess;
};

double PingPongNs(uint64_t seed) {
  std::vector<double> ns;
  for (int round = 0; round < kPingPongRounds; ++round) {
    mvc::ThreadRuntime runtime(seed);
    PingPong a("ping", kPingPongMessages, true);
    PingPong b("pong", kPingPongMessages, false);
    a.SetPeer(runtime.Register(&b));
    b.SetPeer(runtime.Register(&a));
    const auto start = Clock::now();
    runtime.Run();
    ns.push_back(SecondsSince(start) * 1e9 / kPingPongMessages);
  }
  return Median(ns);
}

/// Microseconds per update for an SPA engine that receives each batch's
/// action lists before any of the batch's REL sets, so every AL waits in
/// the early buffer until its row is allocated.
double PaintUs(const mvc::WarehouseSystem& sys,
               const std::vector<TxnEffect>& stream, size_t backlog,
               std::string* error) {
  std::vector<ViewId> ids;
  for (size_t v = 0; v < sys.registry().num_views(); ++v) {
    ids.push_back(static_cast<ViewId>(v));
  }
  auto engine =
      mvc::MergeEngine::Create(mvc::MergeAlgorithm::kSPA, ids, &sys.registry());
  std::vector<mvc::WarehouseTransaction> out;
  mvc::UpdateId next = 1;
  size_t pos = 0;
  int64_t updates = 0;
  double busy_us = 0;
  const auto start = Clock::now();
  while (updates == 0 || SecondsSince(start) < kPaintBudgetS) {
    const mvc::UpdateId first = next;
    size_t expected_rows = 0;
    std::vector<const TxnEffect*> batch;
    for (size_t k = 0; k < backlog; ++k) {
      batch.push_back(&stream[pos++ % stream.size()]);
      if (!batch.back()->rel.empty()) ++expected_rows;
    }
    const auto t0 = Clock::now();
    for (size_t k = 0; k < batch.size(); ++k) {
      for (ViewId view : batch[k]->rel) {
        mvc::ActionList al;
        al.view = view;
        al.update = al.first_update = first + static_cast<mvc::UpdateId>(k);
        engine->ReceiveActionList(std::move(al), &out);
      }
    }
    for (size_t k = 0; k < batch.size(); ++k) {
      engine->ReceiveRelSet(first + static_cast<mvc::UpdateId>(k),
                            batch[k]->rel, &out);
    }
    busy_us += Micros(t0);
    next += static_cast<mvc::UpdateId>(batch.size());
    updates += static_cast<int64_t>(batch.size());
    size_t rows = 0;
    for (const auto& txn : out) rows += txn.rows.size();
    if (rows != expected_rows || engine->held_action_lists() != 0) {
      *error = mvc::StrCat("merge probe: ", rows, " rows submitted, expected ",
                           expected_rows);
    }
    out.clear();
  }
  return busy_us / static_cast<double>(updates);
}

}  // namespace

LayerResults RunLayerProbes(const WorkloadDef& w, uint64_t seed) {
  LayerResults out;
  Scenario scenario = MakeScenario(w, seed);
  // Built, never run: it binds the views and interns their ids.
  auto built = mvc::WarehouseSystem::Build(std::move(scenario.config));
  MVC_CHECK(built.ok()) << built.status().ToString();
  const mvc::WarehouseSystem& sys = **built;
  const std::vector<BoundView>& views = sys.bound_views();

  // --- query: delta evaluation over the workload's update stream.
  mvc::Catalog base = sys.initial_base().Clone();
  const mvc::TableProviderFn provider = mvc::CatalogProvider(&base);
  std::vector<TxnEffect> stream;
  std::vector<double> eval_us;
  for (const mvc::Injection& inj : sys.config().workload) {
    TxnEffect effect;
    std::set<ViewId> rel;
    for (const mvc::Update& u : inj.updates) {
      const TableDelta base_delta = mvc::ViewEvaluator::UpdateToBaseDelta(u);
      for (const BoundView& view : views) {
        if (!mvc::UpdateIsRelevant(view, u)) continue;
        const auto t0 = Clock::now();
        mvc::Result<TableDelta> delta = mvc::ViewEvaluator::EvaluateDelta(
            view, u.relation, base_delta, provider);
        eval_us.push_back(Micros(t0));
        MVC_CHECK(delta.ok()) << delta.status().ToString();
        effect.deltas.emplace_back(&view, std::move(*delta));
        rel.insert(*sys.registry().FindView(view.name()));
      }
      mvc::Result<mvc::Table*> table = base.GetTable(u.relation);
      MVC_CHECK(table.ok() && base_delta.ApplyTo(*table).ok());
    }
    effect.rel.assign(rel.begin(), rel.end());
    stream.push_back(std::move(effect));
  }
  out.delta_eval_us = Median(eval_us);

  // --- storage: apply each txn's view deltas and publish a version.
  mvc::VersionedStore store;
  const mvc::TableProviderFn initial = mvc::CatalogProvider(&sys.initial_base());
  for (const BoundView& view : views) {
    MVC_CHECK(store.CreateTable(view.name(), view.output_schema()).ok());
    mvc::Result<mvc::Table> contents = mvc::ViewEvaluator::Evaluate(view, initial);
    MVC_CHECK(contents.ok());
    mvc::VersionedTable* table = *store.GetTable(view.name());
    contents->ForEachRow([&](const mvc::Tuple& t, int64_t count) {
      MVC_CHECK(table->Insert(t, count).ok());
    });
  }
  store.Commit(0);
  std::vector<double> commit_us;
  int64_t allocs = 0;
  int64_t commit_id = 0;
  for (const TxnEffect& effect : stream) {
    if (effect.deltas.empty()) continue;
    const int64_t allocs_before = AllocCounter::count();
    AllocCounter::Enable(true);
    const auto t0 = Clock::now();
    for (const auto& [view, delta] : effect.deltas) {
      MVC_CHECK((*store.GetTable(view->name()))->ApplyDelta(delta).ok());
    }
    store.Commit(++commit_id);
    commit_us.push_back(Micros(t0));
    AllocCounter::Enable(false);
    allocs += AllocCounter::count() - allocs_before;
  }
  out.storage_commit_us = Median(commit_us);
  out.storage_allocs_per_commit =
      static_cast<double>(allocs) / static_cast<double>(commit_us.size());
  const mvc::SnapshotHandle latest = store.AcquireSnapshot();
  std::vector<mvc::Table> final_views;
  for (const BoundView& view : views) {
    mvc::Result<mvc::Table> expected = mvc::ViewEvaluator::Evaluate(view, provider);
    mvc::Result<mvc::Table> stored = latest.MaterializeTable(view.name());
    MVC_CHECK(expected.ok() && stored.ok());
    if (!stored->ContentsEqual(*expected)) {
      out.error = mvc::StrCat("storage probe: view ", view.name(),
                              " differs from full evaluation");
    }
    final_views.push_back(std::move(*stored));
  }

  // --- query: range scans with the readers' query distribution.
  mvc::Rng rng(seed * 7919 + 101);
  std::vector<double> scan_us;
  const mvc::ReaderQueryOptions& q = scenario.query;
  for (size_t n = 0; n < kScanQueries; ++n) {
    const size_t v = static_cast<size_t>(
        rng.Zipf(static_cast<int64_t>(views.size()), q.zipf_theta));
    const int64_t lo = rng.UniformInt(q.key_min, q.key_max - q.range_width);
    const mvc::ScanQuery query = mvc::ScanQuery::Range(
        q.column, mvc::Value(lo), mvc::Value(lo + q.range_width));
    const auto t0 = Clock::now();
    mvc::Result<mvc::ScanResult> result =
        mvc::ExecuteScan(latest, views[v].name(), query);
    scan_us.push_back(Micros(t0));
    MVC_CHECK(result.ok()) << result.status().ToString();
    if (n % 100 == 0) {
      mvc::Result<mvc::ScanResult> expected =
          mvc::ExecuteScanOnTable(final_views[v], query);
      if (!expected.ok() || !(expected->rows == result->rows)) {
        out.error = "scan probe: result differs from the oracle";
      }
    }
  }
  out.scan_us = Median(scan_us);

  // --- merge: painting with every AL ahead of its REL.
  out.paint_us_shallow = PaintUs(sys, stream, kShallowBacklog, &out.error);
  out.paint_us_deep = PaintUs(sys, stream, kDeepBacklog, &out.error);

  // --- net: ThreadRuntime message round trips.
  out.msg_ns = PingPongNs(seed);
  return out;
}

}  // namespace pipebench
