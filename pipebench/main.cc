// Wall-clock pipeline benchmark: runs one named workload through
// WarehouseSystem::Build/Run on ThreadRuntime and prints its metrics.
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced trials for about <s> seconds and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced trials for
// about <s> seconds, counts allocations in one more untraced trial, runs
// the single-layer probes, and reports the per-layer metrics. Every
// trial passes the correctness gate (pipeline.cc) outside its timed
// region. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// METRICS.md defines every metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "pipeline.h"
#include "util.h"
#include "workloads.h"

namespace pipebench {
namespace {

/// Minimum setup samples per run, topped up with unrun builds.
constexpr size_t kMinSetups = 15;
constexpr size_t kMinUntracedTrials = 3;
/// Stated tolerance for layers.sum_gap_frac: the per-update stages must
/// add up to within 5% of the traced commit latency, or the run fails.
constexpr double kSumGapTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) args->trace = 0;
      if (std::strcmp(value, "1") == 0) args->trace = 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 &&
         args->seconds <= 120 && args->trace >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything outside `metrics` in the result line.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;  // first correctness failure

  void Add(const TrialResult& t) {
    attempted += t.txns + t.scans_attempted;
    failed += t.failed;
    if (error.empty()) error = t.error;
  }
};

void PrintResult(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!outcome.error.empty()) {
    std::printf("CORRECTNESS FAILURE: %s\n", outcome.error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              outcome.error.empty() ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Percentile of a copy of `values`.
double Pct(std::vector<double> values, double q) {
  return Percentile(&values, q);
}

void PrintTrial(const char* kind, const TrialResult& t) {
  std::printf(
      "%s trial: setup %.3f s, %lld txns (%lld relevant) in %.3f s = %.1f "
      "txn/s, commit p50/p90/p99 %.3f/%.3f/%.3f ms, %zu scans p50/p90/p99 "
      "%.0f/%.0f/%.0f us, "
      "%lld view rows, cpu %.4f ms/txn, peak rss %.1f MB%s%s\n",
      kind, t.setup_s, static_cast<long long>(t.txns),
      static_cast<long long>(t.relevant), t.ingest_s, t.txn_per_s(),
      Pct(t.commit_ms, 0.5), Pct(t.commit_ms, 0.9), Pct(t.commit_ms, 0.99),
      t.scan_us.size(), Pct(t.scan_us, 0.5), Pct(t.scan_us, 0.9),
      Pct(t.scan_us, 0.99),
      static_cast<long long>(t.view_rows), t.cpu_ms_per_txn, PeakRssMb(),
      t.error.empty() ? "" : ", FAILED: ", t.error.c_str());
  std::fflush(stdout);
}

/// Median over trials of a per-trial figure. Latency percentiles are
/// taken per trial (each trial has >= 1000 samples, so a p99 has >= 10
/// beyond it) and then the median across trials is reported, which keeps
/// one trial hit by a scheduling stall from setting the run's figure.
double MedianOf(const std::vector<TrialResult>& trials,
                const std::function<double(const TrialResult&)>& get) {
  std::vector<double> v;
  for (const TrialResult& t : trials) v.push_back(get(t));
  return Median(std::move(v));
}

/// Median over trials of each trial's q-th latency percentile.
double Tail(const std::vector<TrialResult>& trials,
            std::vector<double> TrialResult::*samples, double q) {
  return MedianOf(trials,
                  [&](const TrialResult& t) { return Pct(t.*samples, q); });
}

struct Headlines {
  double txn_per_s;
  double commit_p50_ms;
  double scan_p50_us;
};

Headlines HeadlinesOf(const std::vector<TrialResult>& trials) {
  return Headlines{
      MedianOf(trials, [](const TrialResult& t) { return t.txn_per_s(); }),
      Tail(trials, &TrialResult::commit_ms, 0.5),
      Tail(trials, &TrialResult::scan_us, 0.5)};
}

/// Relative cost of tracing on the workload's headline metric: positive
/// when the traced run is worse.
double TraceOverhead(const WorkloadDef& w, const Headlines& untraced,
                     const Headlines& traced) {
  if (w.headline == "txn_per_s") {
    return (untraced.txn_per_s - traced.txn_per_s) / untraced.txn_per_s;
  }
  if (w.headline == "commit_p50_ms") {
    return (traced.commit_p50_ms - untraced.commit_p50_ms) /
           untraced.commit_p50_ms;
  }
  return (traced.scan_p50_us - untraced.scan_p50_us) / untraced.scan_p50_us;
}

/// The first trial in a process pays for heap growth, thread creation
/// and cold caches; it passes the correctness gate like every trial but
/// is left out of the timings. Returns the process's peak RSS after it:
/// the memory one run of the workload needs. Read later, the peak would
/// also count allocator arenas that grow with the number of trials.
double WarmUp(const WorkloadDef& w, const Args& args, Outcome* outcome) {
  const TrialResult warm = RunTrial(w, args.seed, TrialOptions{});
  PrintTrial("warm-up", warm);
  outcome->Add(warm);
  return PeakRssMb();
}

int RunEndToEnd(const WorkloadDef& w, const Args& args) {
  Outcome outcome;
  const double peak_rss_mb = WarmUp(w, args, &outcome);
  std::vector<TrialResult> trials;
  std::vector<double> setups;
  const auto start = Clock::now();
  while (trials.size() < kMinUntracedTrials ||
         SecondsSince(start) < args.seconds) {
    trials.push_back(RunTrial(w, args.seed, TrialOptions{}));
    PrintTrial("untraced", trials.back());
    outcome.Add(trials.back());
    setups.push_back(trials.back().setup_s);
  }
  while (setups.size() < kMinSetups) setups.push_back(TimeSetup(w, args.seed));

  const Headlines h = HeadlinesOf(trials);
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"txn_per_s", h.txn_per_s, "txn/s"},
      {"commit_p50_ms", h.commit_p50_ms, "ms"},
      {"scan_p50_us", h.scan_p50_us, "us"},
      {"cpu_ms_per_txn",
       MedianOf(trials, [](const TrialResult& t) { return t.cpu_ms_per_txn; }),
       "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintResult(outcome, metrics);
  return 0;
}

int RunPerLayer(const WorkloadDef& w, const Args& args) {
  Outcome outcome;
  WarmUp(w, args, &outcome);
  std::vector<TrialResult> untraced;
  std::vector<TrialResult> traced;
  const auto start = Clock::now();
  while (traced.empty() || SecondsSince(start) < args.seconds) {
    untraced.push_back(RunTrial(w, args.seed, TrialOptions{}));
    PrintTrial("untraced", untraced.back());
    outcome.Add(untraced.back());
    traced.push_back(RunTrial(w, args.seed, TrialOptions{.traced = true}));
    PrintTrial("traced", traced.back());
    outcome.Add(traced.back());
  }
  const TrialResult counted =
      RunTrial(w, args.seed, TrialOptions{.count_allocs = true});
  PrintTrial("counted", counted);
  outcome.Add(counted);
  const LayerResults layers = RunLayerProbes(w, args.seed);
  if (outcome.error.empty()) outcome.error = layers.error;

  const Headlines plain = HeadlinesOf(untraced);
  const Headlines with_trace = HeadlinesOf(traced);
  std::printf("headline  untraced | traced: %.1f | %.1f txn/s, commit p50 "
              "%.3f | %.3f ms, scan p50 %.1f | %.1f us\n",
              plain.txn_per_s, with_trace.txn_per_s, plain.commit_p50_ms,
              with_trace.commit_p50_ms, plain.scan_p50_us,
              with_trace.scan_p50_us);

  std::vector<Metric> metrics;
  auto stage = [&](const char* name, std::vector<double> StageSamples::*field) {
    std::vector<double> pooled;
    for (const TrialResult& t : traced) {
      const std::vector<double>& v = t.stages.*field;
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
    metrics.push_back({std::string(name) + "_p50_us", Percentile(&pooled, 0.5), "us"});
    metrics.push_back({std::string(name) + "_p99_us", Percentile(&pooled, 0.99), "us"});
  };
  stage("source.post_lag", &StageSamples::post_lag);
  stage("integrator.seq", &StageSamples::seq);
  stage("viewmgr.al", &StageSamples::al);
  stage("merge.al_wait", &StageSamples::al_wait);
  stage("merge.hold", &StageSamples::hold);
  stage("warehouse.commit", &StageSamples::commit);
  double gap = 0;
  double latency = 0;
  double spans = 0;
  double traced_txns = 0;
  for (const TrialResult& t : traced) {
    gap += t.stages.gap_us;
    latency += t.stages.latency_us;
    spans += static_cast<double>(t.stages.spans);
    traced_txns += static_cast<double>(t.txns);
  }
  const double sum_gap_frac = latency > 0 ? gap / latency : 0;
  if (sum_gap_frac > kSumGapTolerance && outcome.error.empty()) {
    outcome.error = "layers.sum_gap_frac above its tolerance";
  }
  metrics.insert(
      metrics.end(),
      {
          {"layers.sum_gap_frac", sum_gap_frac, "ratio"},
          {"tail.commit_p90_ms", Tail(untraced, &TrialResult::commit_ms, 0.9),
           "ms"},
          {"tail.commit_p99_ms", Tail(untraced, &TrialResult::commit_ms, 0.99),
           "ms"},
          {"tail.scan_p90_us", Tail(untraced, &TrialResult::scan_us, 0.9), "us"},
          {"tail.scan_p99_us", Tail(untraced, &TrialResult::scan_us, 0.99), "us"},
          {"obs.trace_overhead_frac", TraceOverhead(w, plain, with_trace),
           "ratio"},
          {"obs.traced_txn_per_s", with_trace.txn_per_s, "txn/s"},
          {"obs.traced_commit_p50_ms", with_trace.commit_p50_ms, "ms"},
          {"obs.traced_scan_p50_us", with_trace.scan_p50_us, "us"},
          {"obs.spans_per_txn", spans / traced_txns, "count"},
          {"net.msgs_per_txn",
           MedianOf(untraced,
                    [](const TrialResult& t) {
                      return static_cast<double>(t.messages) /
                             static_cast<double>(t.txns);
                    }),
           "count"},
          {"alloc.per_txn",
           static_cast<double>(counted.allocations) /
               static_cast<double>(counted.txns),
           "count"},
          {"merge.peak_open_rows",
           MedianOf(untraced,
                    [](const TrialResult& t) {
                      return static_cast<double>(t.peak_open_rows);
                    }),
           "count"},
          {"merge.peak_held_als",
           MedianOf(untraced,
                    [](const TrialResult& t) {
                      return static_cast<double>(t.peak_held_als);
                    }),
           "count"},
          {"storage.resident_bytes",
           MedianOf(untraced,
                    [](const TrialResult& t) {
                      return static_cast<double>(t.resident_bytes);
                    }),
           "bytes"},
          {"warehouse.versions_live",
           MedianOf(untraced,
                    [](const TrialResult& t) {
                      return static_cast<double>(t.versions_live);
                    }),
           "count"},
          {"query.rows_scanned_per_scan",
           MedianOf(untraced,
                    [](const TrialResult& t) { return t.rows_scanned_per_scan; }),
           "count"},
          {"query.delta_eval_us", layers.delta_eval_us, "us"},
          {"storage.commit_us", layers.storage_commit_us, "us"},
          {"storage.allocs_per_commit", layers.storage_allocs_per_commit,
           "count"},
          {"query.scan_us", layers.scan_us, "us"},
          {"merge.paint_us_shallow", layers.paint_us_shallow, "us"},
          {"merge.paint_us_deep", layers.paint_us_deep, "us"},
          {"net.msg_ns", layers.msg_ns, "ns"},
      });
  PrintResult(outcome, metrics);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload <name> --seed <n> "
                 "--seconds <1..120> --trace <0|1>\n");
    return 2;
  }
  const pipebench::WorkloadDef* w = pipebench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "pipebench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& known : pipebench::AllWorkloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  return args.trace == 1 ? pipebench::RunPerLayer(*w, args)
                         : pipebench::RunEndToEnd(*w, args);
}
