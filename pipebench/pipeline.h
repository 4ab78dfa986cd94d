// One end-to-end trial: generate the workload, build the system on
// ThreadRuntime, run it to quiescence, then — outside the timed region —
// derive the latencies and counts and run the correctness gate.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace pipebench {

/// Per relevant update, microseconds spent in each pipeline stage, taken
/// from a traced trial's spans (see ExtractStages in pipeline.cc).
struct StageSamples {
  std::vector<double> post_lag;  // SourcePost - due time
  std::vector<double> seq;       // Sequenced - SourcePost
  std::vector<double> al;        // last AlProduced - Sequenced
  std::vector<double> al_wait;   // last AlReceived - last AlProduced
  std::vector<double> hold;      // Submitted - max(RelReceived, last AlReceived)
  std::vector<double> commit;    // Committed - Submitted
  /// Sum over updates of |sum of stages - traced commit latency|, and of
  /// the traced commit latency itself.
  double gap_us = 0;
  double latency_us = 0;
  int64_t spans = 0;
};

struct TrialResult {
  double setup_s = 0;
  /// Run() to the last ingest event (last commit or last numbering).
  double ingest_s = 0;
  int64_t txns = 0;
  /// Txns relevant to at least one view; only these ever commit.
  int64_t relevant = 0;
  /// Relevant txns: due time -> first warehouse commit holding them.
  std::vector<double> commit_ms;
  /// Answered scans: scheduled time -> answer at the reader.
  std::vector<double> scan_us;
  int64_t scans_attempted = 0;
  /// Relevant txns not committed exactly once + scans not answered.
  int64_t failed = 0;
  double cpu_ms_per_txn = 0;
  int64_t messages = 0;
  /// Heap allocations during Run(); -1 unless counted.
  int64_t allocations = -1;
  int64_t peak_open_rows = 0;
  int64_t peak_held_als = 0;
  int64_t resident_bytes = 0;
  int64_t versions_live = 0;
  double rows_scanned_per_scan = 0;
  /// Final view sizes (distinct rows summed over views).
  int64_t view_rows = 0;
  StageSamples stages;  // traced trials only
  /// Empty when the correctness gate passed.
  std::string error;

  double txn_per_s() const {
    return ingest_s > 0 ? static_cast<double>(txns) / ingest_s : 0;
  }
};

struct TrialOptions {
  /// collect_trace = collect_metrics = true, and extract stages.
  bool traced = false;
  /// Count heap allocations during Run().
  bool count_allocs = false;
};

TrialResult RunTrial(const WorkloadDef& w, uint64_t seed, TrialOptions opts);

/// Wall time of GenerateScenario + WarehouseSystem::Build alone (the
/// system is destroyed unrun); extra samples for setup_s.
double TimeSetup(const WorkloadDef& w, uint64_t seed);

}  // namespace pipebench
