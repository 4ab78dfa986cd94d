#include "pipeline.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/string_util.h"
#include "obs/derived.h"
#include "query/evaluator.h"
#include "query/relevance.h"
#include "query/scan.h"
#include "util.h"

namespace pipebench {

using mvc::TimeMicros;
using mvc::UpdateId;
using mvc::WarehouseSystem;

namespace {

/// Scans replayed against the oracle per trial.
constexpr size_t kScanSamples = 64;

/// Provider over the sources' final catalogs (non-owning handles; the
/// system outlives every evaluation).
mvc::TableProviderFn FinalSourceProvider(const WarehouseSystem& sys) {
  return [&sys](const std::string& relation)
             -> mvc::Result<std::shared_ptr<const mvc::Table>> {
    for (const auto& source : sys.source_processes()) {
      if (!source->catalog().HasTable(relation)) continue;
      MVC_ASSIGN_OR_RETURN(const mvc::Table* table,
                           source->catalog().GetTable(relation));
      return std::shared_ptr<const mvc::Table>(
          std::shared_ptr<const mvc::Table>(), table);
    }
    return mvc::Status::NotFound(mvc::StrCat("no source hosts ", relation));
  };
}

/// Gate 1: the bytes readers get (the store's latest version) equal a
/// full evaluation of every view over the final source states.
std::string CheckFinalViews(const WarehouseSystem& sys, int64_t* view_rows) {
  const mvc::SnapshotHandle latest = sys.warehouse().store().AcquireSnapshot();
  const mvc::TableProviderFn provider = FinalSourceProvider(sys);
  *view_rows = 0;
  for (const mvc::BoundView& view : sys.bound_views()) {
    mvc::Result<mvc::Table> expected = mvc::ViewEvaluator::Evaluate(view, provider);
    mvc::Result<mvc::Table> served = latest.MaterializeTable(view.name());
    if (!expected.ok() || !served.ok()) {
      return mvc::StrCat("view ", view.name(), ": cannot evaluate or read");
    }
    if (!served->ContentsEqual(*expected)) {
      return mvc::StrCat("view ", view.name(),
                         ": served contents differ from full evaluation");
    }
    *view_rows += static_cast<int64_t>(served->NumDistinct());
  }
  return "";
}

struct ScanSample {
  int64_t as_of_commit = 0;
  const mvc::WarehouseReader::QueryObservation* obs = nullptr;
};

/// Gate 3: sampled scan answers equal ExecuteScanOnTable over the view
/// state at the same as_of_commit, rebuilt by replaying the committed
/// action lists over the initial views. The replay's final state must
/// also equal the store's latest version.
std::string CheckScanSamples(const WarehouseSystem& sys,
                             std::vector<ScanSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const ScanSample& a, const ScanSample& b) {
              return a.as_of_commit < b.as_of_commit;
            });
  std::map<std::string, mvc::Table> views;
  const mvc::TableProviderFn initial = mvc::CatalogProvider(&sys.initial_base());
  for (const mvc::BoundView& view : sys.bound_views()) {
    mvc::Result<mvc::Table> t = mvc::ViewEvaluator::Evaluate(view, initial);
    if (!t.ok()) return mvc::StrCat("view ", view.name(), ": initial evaluation");
    views.emplace(view.name(), std::move(*t));
  }
  const auto& commits = sys.recorder().commits();
  size_t next = 0;
  for (size_t applied = 0;; ++applied) {
    for (; next < samples.size() &&
           samples[next].as_of_commit == static_cast<int64_t>(applied);
         ++next) {
      const auto& obs = *samples[next].obs;
      const std::string& name = sys.registry().ViewName(obs.view);
      mvc::Result<mvc::ScanResult> expected =
          mvc::ExecuteScanOnTable(views.at(name), obs.query);
      if (!expected.ok() || !(expected->rows == obs.rows) ||
          expected->matched_count != obs.matched_count) {
        return mvc::StrCat("scan on ", name, " at commit ", applied,
                           " differs from the oracle");
      }
    }
    if (applied == commits.size()) break;
    for (const mvc::ActionList& al : commits[applied].txn.actions) {
      mvc::Table& table = views.at(sys.registry().ViewName(al.view));
      if (al.replace_all) table.Clear();
      if (!al.delta.ApplyTo(&table).ok()) {
        return mvc::StrCat("replay of commit ", applied + 1, " failed");
      }
    }
  }
  if (next != samples.size()) return "scan answered at an unknown commit";
  const mvc::SnapshotHandle latest = sys.warehouse().store().AcquireSnapshot();
  for (const auto& [name, table] : views) {
    mvc::Result<mvc::Table> served = latest.MaterializeTable(name);
    if (!served.ok() || !served->ContentsEqual(table)) {
      return mvc::StrCat("view ", name, ": replayed commits differ from store");
    }
  }
  return "";
}

/// Per-update span timestamps (runtime micros; -1 = not seen).
struct UpdateSpans {
  TimeMicros sequenced = -1;
  TimeMicros al_produced = -1;  // last
  TimeMicros al_received = -1;  // last
  TimeMicros rel_received = -1;
  TimeMicros submitted = -1;
  TimeMicros committed = -1;  // first
};

/// True if some update of `txn` may change some view — exactly the txns
/// whose REL set is non-empty, and so the only ones that ever commit.
bool IsRelevant(const WarehouseSystem& sys, const mvc::SourceTransaction& txn) {
  for (const mvc::BoundView& view : sys.bound_views()) {
    for (const mvc::Update& update : txn.updates) {
      if (mvc::UpdateIsRelevant(view, update)) return true;
    }
  }
  return false;
}

std::string SourceKey(const std::string& source, int64_t local_seq) {
  return mvc::StrCat(source, "#", local_seq);
}

}  // namespace

double TimeSetup(const WorkloadDef& w, uint64_t seed) {
  const auto start = Clock::now();
  Scenario scenario = MakeScenario(w, seed);
  auto built = WarehouseSystem::Build(std::move(scenario.config));
  MVC_CHECK(built.ok()) << built.status().ToString();
  return SecondsSince(start);
}

TrialResult RunTrial(const WorkloadDef& w, uint64_t seed, TrialOptions opts) {
  TrialResult r;
  const auto setup_start = Clock::now();
  Scenario scenario = MakeScenario(w, seed);
  scenario.config.collect_trace = opts.traced;
  scenario.config.collect_metrics = opts.traced;
  auto built = WarehouseSystem::Build(std::move(scenario.config));
  if (!built.ok()) {
    r.error = built.status().ToString();
    return r;
  }
  WarehouseSystem& sys = **built;
  const std::vector<mvc::WarehouseReader*> readers =
      AttachReaders(&sys, scenario, seed);
  r.setup_s = SecondsSince(setup_start);

  // --- Timed region. The runtime clock starts at construction, not at
  // Run(), so every due time is offset by the clock read here.
  const TimeMicros offset = sys.runtime().Now();
  const double cpu_before = ProcessCpuSeconds();
  const int64_t allocs_before = AllocCounter::count();
  AllocCounter::Enable(opts.count_allocs);
  sys.Run();
  AllocCounter::Enable(false);
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  if (opts.count_allocs) r.allocations = AllocCounter::count() - allocs_before;
  // --- End of timed region.

  const auto& workload = sys.config().workload;
  const auto& updates = sys.recorder().updates();
  const auto& commits = sys.recorder().commits();
  r.txns = static_cast<int64_t>(updates.size());
  if (r.txns != static_cast<int64_t>(workload.size())) {
    r.error = mvc::StrCat(workload.size(), " txns injected but ", r.txns,
                          " sequenced");
  }
  r.cpu_ms_per_txn = r.txns > 0 ? cpu_s * 1000 / static_cast<double>(r.txns) : 0;
  r.messages = sys.runtime().stats().total_messages;

  // Due time of each source txn, by per-source local sequence number.
  std::map<std::string, std::vector<TimeMicros>> due_by_source;
  for (const mvc::Injection& inj : workload) {
    due_by_source[inj.source].push_back(offset + inj.at);
  }
  auto due_of = [&](const mvc::SourceTransaction& txn) -> TimeMicros {
    const auto& dues = due_by_source[txn.updates.front().source];
    const size_t k = static_cast<size_t>(txn.local_seq) - 1;
    return k < dues.size() ? dues[k] : -1;
  };

  // First commit and commit count per update id.
  std::unordered_map<UpdateId, std::pair<int, TimeMicros>> committed;
  TimeMicros ingest_end = offset;
  for (const mvc::RecordedCommit& c : commits) {
    ingest_end = std::max(ingest_end, c.committed_at);
    for (UpdateId row : c.txn.rows) {
      ++committed.try_emplace(row, 0, c.committed_at).first->second.first;
    }
  }
  std::unordered_map<UpdateId, TimeMicros> due_of_update;
  int64_t relevant_committed = 0;
  for (const mvc::RecordedUpdate& u : updates) {
    ingest_end = std::max(ingest_end, u.numbered_at);
    const bool relevant = IsRelevant(sys, u.txn);
    auto it = committed.find(u.id);
    const int times = it == committed.end() ? 0 : it->second.first;
    if (!relevant) {
      if (times != 0 && r.error.empty()) {
        r.error = mvc::StrCat("irrelevant update ", u.id, " was committed");
      }
      continue;
    }
    ++r.relevant;
    if (times != 1) {
      ++r.failed;
      if (r.error.empty()) {
        r.error = mvc::StrCat("update ", u.id, " committed ", times, " times");
      }
      continue;
    }
    ++relevant_committed;
    const TimeMicros due = due_of(u.txn);
    if (due < 0) {
      if (r.error.empty()) r.error = "txn without a matching injection";
      continue;
    }
    due_of_update[u.id] = due;
    r.commit_ms.push_back(static_cast<double>(it->second.second - due) / 1000);
  }
  if (relevant_committed != static_cast<int64_t>(committed.size()) &&
      r.error.empty()) {
    r.error = "a commit holds an update the integrator never numbered";
  }
  r.ingest_s = static_cast<double>(ingest_end - offset) / 1e6;

  // Scans: the k-th answer of a reader answers its k-th scheduled scan
  // (FIFO channels, answered inline by the warehouse actor).
  std::vector<ScanSample> samples;
  int64_t rows_scanned = 0;
  for (size_t i = 0; i < readers.size(); ++i) {
    const auto& scheduled = scenario.read_at[i];
    const auto& answers = readers[i]->query_observations();
    r.scans_attempted += static_cast<int64_t>(scheduled.size());
    const size_t n = std::min(scheduled.size(), answers.size());
    r.failed += static_cast<int64_t>(scheduled.size() - n);
    const size_t stride = std::max<size_t>(1, n * readers.size() / kScanSamples);
    for (size_t k = 0; k < n; ++k) {
      const auto& obs = answers[k];
      if (!obs.ok()) {
        ++r.failed;
        continue;
      }
      r.scan_us.push_back(static_cast<double>(obs.at - offset - scheduled[k]));
      rows_scanned += obs.rows_scanned;
      if (k % stride == 0) samples.push_back(ScanSample{obs.as_of_commit, &obs});
    }
  }
  if (!r.scan_us.empty()) {
    r.rows_scanned_per_scan =
        static_cast<double>(rows_scanned) / static_cast<double>(r.scan_us.size());
  }
  if (r.failed > 0 && r.error.empty()) r.error = "scans shed or unanswered";

  for (const auto& merge : sys.merges()) {
    r.peak_open_rows = std::max<int64_t>(
        r.peak_open_rows, static_cast<int64_t>(merge->stats().peak_open_rows));
    r.peak_held_als = std::max<int64_t>(
        r.peak_held_als,
        static_cast<int64_t>(merge->stats().peak_held_action_lists));
  }
  r.resident_bytes =
      static_cast<int64_t>(sys.warehouse().store().ResidentChunkBytes());
  r.versions_live = static_cast<int64_t>(sys.warehouse().store().versions_live());

  // --- Correctness gate.
  if (r.error.empty()) r.error = CheckFinalViews(sys, &r.view_rows);
  if (r.error.empty()) r.error = CheckScanSamples(sys, std::move(samples));
  if (!opts.traced) return r;

  // --- Stage extraction from the traced run's spans.
  const std::vector<mvc::obs::Span> spans = sys.TraceSnapshot();
  r.stages.spans = static_cast<int64_t>(spans.size());
  if (r.error.empty()) {
    mvc::Status complete = mvc::obs::CheckTraceComplete(spans);
    if (!complete.ok()) r.error = complete.ToString();
  }
  std::unordered_map<std::string, TimeMicros> posted;
  std::unordered_map<UpdateId, UpdateSpans> by_update;
  for (const mvc::obs::Span& s : spans) {
    using K = mvc::obs::SpanKind;
    if (s.kind == K::kSourcePost) {
      posted.emplace(SourceKey(s.process, s.aux), s.at);
      continue;
    }
    UpdateSpans& u = by_update[s.update];
    switch (s.kind) {
      case K::kSequenced: u.sequenced = s.at; break;
      case K::kAlProduced: u.al_produced = std::max(u.al_produced, s.at); break;
      case K::kAlReceived: u.al_received = std::max(u.al_received, s.at); break;
      case K::kRelReceived:
        if (u.rel_received < 0) u.rel_received = s.at;
        break;
      case K::kSubmitted:
        if (u.submitted < 0) u.submitted = s.at;
        break;
      case K::kCommitted:
        if (u.committed < 0) u.committed = s.at;
        break;
      default: break;
    }
  }
  for (const mvc::RecordedUpdate& rec : updates) {
    auto due = due_of_update.find(rec.id);
    if (due == due_of_update.end()) continue;
    const UpdateSpans& u = by_update[rec.id];
    auto post = posted.find(SourceKey(rec.txn.updates.front().source,
                                      rec.txn.local_seq));
    if (post == posted.end() || u.sequenced < 0 || u.al_produced < 0 ||
        u.al_received < 0 || u.rel_received < 0 || u.submitted < 0 ||
        u.committed < 0) {
      if (r.error.empty()) r.error = mvc::StrCat("update ", rec.id, " lacks spans");
      continue;
    }
    StageSamples& st = r.stages;
    const double stages[] = {
        static_cast<double>(post->second - due->second),
        static_cast<double>(u.sequenced - post->second),
        static_cast<double>(u.al_produced - u.sequenced),
        static_cast<double>(u.al_received - u.al_produced),
        static_cast<double>(u.submitted - std::max(u.rel_received, u.al_received)),
        static_cast<double>(u.committed - u.submitted)};
    st.post_lag.push_back(stages[0]);
    st.seq.push_back(stages[1]);
    st.al.push_back(stages[2]);
    st.al_wait.push_back(stages[3]);
    st.hold.push_back(stages[4]);
    st.commit.push_back(stages[5]);
    double sum = 0;
    for (double s : stages) sum += s;
    const double latency = static_cast<double>(u.committed - due->second);
    st.gap_us += std::abs(sum - latency);
    st.latency_us += latency;
  }
  return r;
}

}  // namespace pipebench
