// The benchmark's named workloads and the scenario each one generates
// from a seed.
//
// A workload fixes the *shape* of the run — view definitions, relation
// sizes, arrival schedule, reader mix — and the seed drives only the
// data: initial tuples, the update stream, and the readers' range draws.
// Keeping the shape seed-independent is what lets runs with different
// seeds be compared as repeated measurements of one workload.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system/config.h"
#include "system/warehouse_system.h"

namespace pipebench {

struct WorkloadDef {
  std::string name;
  /// End-to-end metric this workload exists to move.
  std::string headline;
  /// Selection-only views (false) or 3-way chain-join views (true).
  bool join_views = false;
  /// Source transactions per trial.
  int txns = 0;
  /// Open-loop arrival rate, evenly spaced; 0 = every txn due at t=0.
  double rate_txn_per_s = 0;
  /// Scan readers, each issuing one range scan every read_interval_us
  /// over [0, read_span_us).
  int readers = 0;
  mvc::TimeMicros read_interval_us = 0;
  mvc::TimeMicros read_span_us = 0;
};

const std::vector<WorkloadDef>& AllWorkloads();
/// nullptr for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

/// A generated scenario: the system configuration (with every modeled
/// cost zeroed, so nothing sleeps on real threads) plus the readers'
/// schedules, all relative to the runtime clock at Run().
struct Scenario {
  mvc::SystemConfig config;
  std::vector<std::vector<mvc::TimeMicros>> read_at;
  mvc::ReaderQueryOptions query;
};

Scenario MakeScenario(const WorkloadDef& w, uint64_t seed);

/// Attaches the scenario's readers to a built (not yet run) system.
std::vector<mvc::WarehouseReader*> AttachReaders(mvc::WarehouseSystem* system,
                                                 const Scenario& scenario,
                                                 uint64_t seed);

}  // namespace pipebench
