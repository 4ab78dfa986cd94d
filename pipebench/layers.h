// Layer probes: single-threaded loops that time calls into one layer's
// public functions with inputs generated from the workload's spec and
// seed, so a layer's own cost is measured apart from the pipeline.

#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace pipebench {

struct LayerResults {
  /// Median microseconds per ViewEvaluator::EvaluateDelta call.
  double delta_eval_us = 0;
  /// Median microseconds per VersionedStore commit (deltas + Commit).
  double storage_commit_us = 0;
  double storage_allocs_per_commit = 0;
  /// Median microseconds per ExecuteScan on a SnapshotHandle.
  double scan_us = 0;
  /// Microseconds per update fed to an SPA MergeEngine with every AL
  /// arriving ahead of its REL, at a small and a large backlog.
  double paint_us_shallow = 0;
  double paint_us_deep = 0;
  /// Nanoseconds per ThreadRuntime message in a two-process ping-pong.
  double msg_ns = 0;
  /// Empty when the probes' own results checked out.
  std::string error;
};

LayerResults RunLayerProbes(const WorkloadDef& w, uint64_t seed);

}  // namespace pipebench
