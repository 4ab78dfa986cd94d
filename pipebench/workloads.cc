#include "workloads.h"

#include <cmath>

#include "common/string_util.h"
#include "common/rng.h"
#include "query/view_def.h"

namespace pipebench {

using mvc::ColumnRef;
using mvc::Predicate;
using mvc::TimeMicros;
using mvc::ViewDefinition;

namespace {

constexpr int kRelations = 4;  // 2 sources x 2 relations, R0..R3
/// Rows per relation, and the key domain of j: about one match per key,
/// so a 3-way chain view stays near relation size.
constexpr int64_t kRowsPerRelation = 1000;
constexpr int64_t kValueDomain = 100;
/// Keys covered by each range scan on j.
constexpr int64_t kRangeWidth = 50;
constexpr double kModifyShare = 0.15;

std::string Rel(int i) { return mvc::StrCat("R", i % kRelations); }
std::string Source(int relation) {
  return mvc::StrCat("src", (relation % kRelations) / 2);
}

/// Eight single-relation views, two per relation: one unfiltered and one
/// keeping v < 50, so an update is relevant to 1.5 views on average.
std::vector<ViewDefinition> SelectionViews() {
  std::vector<ViewDefinition> views;
  for (int i = 0; i < 2 * kRelations; ++i) {
    ViewDefinition def;
    def.name = mvc::StrCat("V", i);
    def.relations = {Rel(i)};
    if (i >= kRelations) {
      def.predicate = Predicate::ColCmpConst(
          mvc::CompareOp::kLt, ColumnRef{Rel(i), "v"}, mvc::Value(int64_t{50}));
    }
    views.push_back(std::move(def));
  }
  return views;
}

/// Four 3-way chain joins on j: V_i = R_i |x| R_i+1 |x| R_i+2. Every
/// relation feeds three views.
std::vector<ViewDefinition> ChainJoinViews() {
  std::vector<ViewDefinition> views;
  for (int i = 0; i < kRelations; ++i) {
    ViewDefinition def;
    def.name = mvc::StrCat("V", i);
    def.relations = {Rel(i), Rel(i + 1), Rel(i + 2)};
    def.predicate = Predicate::And(
        {Predicate::ColEqCol(ColumnRef{Rel(i), "j"}, ColumnRef{Rel(i + 1), "j"}),
         Predicate::ColEqCol(ColumnRef{Rel(i + 1), "j"},
                             ColumnRef{Rel(i + 2), "j"})});
    views.push_back(std::move(def));
  }
  return views;
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> kWorkloads = [] {
    std::vector<WorkloadDef> w(3);
    w[0].name = "select_burst";
    w[0].headline = "txn_per_s";
    w[0].join_views = false;
    w[0].txns = 8000;
    w[0].rate_txn_per_s = 0;
    w[0].readers = 1;
    w[0].read_interval_us = 1000;
    w[0].read_span_us = 1000000;

    w[1].name = "join_paced";
    w[1].headline = "commit_p50_ms";
    w[1].join_views = true;
    w[1].txns = 1000;
    w[1].rate_txn_per_s = 667;
    w[1].readers = 1;
    w[1].read_interval_us = 1500;

    w[2] = w[1];
    w[2].name = "read_mix";
    w[2].headline = "scan_p50_us";
    w[2].readers = 2;
    w[2].read_interval_us = 1000;
    for (WorkloadDef* def : {&w[1], &w[2]}) {
      def->read_span_us = static_cast<TimeMicros>(
          1e6 * def->txns / def->rate_txn_per_s);
    }
    return w;
  }();
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Scenario MakeScenario(const WorkloadDef& w, uint64_t seed) {
  mvc::Rng rng(seed);
  auto random_tuple = [&] {
    return mvc::Tuple{mvc::Value(rng.UniformInt(0, kRowsPerRelation - 1)),
                      mvc::Value(rng.UniformInt(0, kValueDomain - 1))};
  };

  mvc::SystemConfig config;
  // Every key j appears exactly once per relation, so a 3-way chain view
  // starts at exactly kRowsPerRelation rows whatever the seed; v is
  // drawn from the seed.
  std::vector<std::vector<mvc::Tuple>> live(kRelations);
  for (int r = 0; r < kRelations; ++r) {
    config.sources[Source(r)].push_back(Rel(r));
    config.schemas[Rel(r)] = mvc::Schema::AllInt64({"j", "v"});
    for (int64_t j = 0; j < kRowsPerRelation; ++j) {
      live[r].push_back(
          {mvc::Value(j), mvc::Value(rng.UniformInt(0, kValueDomain - 1))});
    }
    config.initial_data[Rel(r)] = live[r];
  }
  config.views = w.join_views ? ChainJoinViews() : SelectionViews();

  // Single-update, single-source txns on a uniformly chosen relation.
  // Deletes balance inserts, so relations (and views) stay stationary;
  // deletes and modifies always target a live tuple.
  const double delete_share = (1.0 - kModifyShare) / 2;
  // Evenly spaced open-loop arrivals (or one saturating batch at t=0).
  const double gap_us = w.rate_txn_per_s > 0 ? 1e6 / w.rate_txn_per_s : 0;
  for (int k = 0; k < w.txns; ++k) {
    const int r = static_cast<int>(rng.UniformInt(0, kRelations - 1));
    std::vector<mvc::Tuple>& rows = live[r];
    auto take = [&] {
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1));
      mvc::Tuple t = std::move(rows[idx]);
      rows[idx] = std::move(rows.back());
      rows.pop_back();
      return t;
    };
    mvc::Injection inj;
    inj.at = static_cast<TimeMicros>(std::llround(gap_us * k));
    inj.source = Source(r);
    const double roll = rng.UniformDouble(0.0, 1.0);
    if (roll < delete_share && !rows.empty()) {
      inj.updates.push_back(mvc::Update::Delete(Source(r), Rel(r), take()));
    } else if (roll < delete_share + kModifyShare && !rows.empty()) {
      mvc::Tuple before = take();
      rows.push_back(random_tuple());
      inj.updates.push_back(
          mvc::Update::Modify(Source(r), Rel(r), std::move(before), rows.back()));
    } else {
      rows.push_back(random_tuple());
      inj.updates.push_back(mvc::Update::Insert(Source(r), Rel(r), rows.back()));
    }
    config.workload.push_back(std::move(inj));
  }

  // Real threads; every modeled cost zeroed, because on ThreadRuntime a
  // modeled cost becomes a real sleep.
  config.use_threads = true;
  config.record_snapshots = false;
  config.latency = mvc::LatencyModel::Zero();
  config.vm_options.delta_cost = 0;
  config.vm_options.per_al_cost = 0;
  config.integrator.process_delay = 0;
  config.integrator.sequencing_cost_us = 0;
  config.merge.process_delay = 0;
  config.warehouse.apply_delay = 0;
  config.warehouse.apply_jitter = 0;
  config.warehouse.query_service_us = 0;
  config.warehouse.query_cost_per_krow = 0;
  config.source_options.query_delay = 0;
  config.source_options.report_delay = 0;
  config.seed = seed;

  Scenario scenario;
  scenario.config = std::move(config);
  scenario.query.enabled = true;
  scenario.query.zipf_theta = 0.99;
  scenario.query.burst = 1;
  scenario.query.column = "j";
  scenario.query.key_min = 0;
  scenario.query.key_max = kRowsPerRelation - 1;
  scenario.query.range_width = kRangeWidth;
  for (int r = 0; r < w.readers; ++r) {
    std::vector<TimeMicros> at;
    // Readers are staggered so their scans interleave evenly.
    for (TimeMicros t = w.read_interval_us * r / w.readers; t < w.read_span_us;
         t += w.read_interval_us) {
      at.push_back(t);
    }
    scenario.read_at.push_back(std::move(at));
  }
  return scenario;
}

std::vector<mvc::WarehouseReader*> AttachReaders(mvc::WarehouseSystem* system,
                                                 const Scenario& scenario,
                                                 uint64_t seed) {
  std::vector<mvc::WarehouseReader*> readers;
  for (size_t r = 0; r < scenario.read_at.size(); ++r) {
    readers.push_back(system->AttachReader({}, scenario.read_at[r],
                                           &scenario.query,
                                           seed * 7919 + r + 1));
  }
  return readers;
}

}  // namespace pipebench
