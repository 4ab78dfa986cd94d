// Small helpers shared by the pipeline benchmark: wall and CPU clocks,
// percentiles, and the process-wide allocation counter.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
/// 0 for an empty vector.
double Percentile(std::vector<double>* values, double q);

/// Median of a copy of `values`.
double Median(std::vector<double> values);

/// Counting replacement of global operator new (defined in util.cc).
/// Counting is off by default so that the timed runs do not pay for a
/// shared atomic increment on every allocation; turn it on around the
/// region to be counted.
class AllocCounter {
 public:
  static void Enable(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static int64_t count() { return count_.load(std::memory_order_relaxed); }
  static void Note() {
    if (enabled_.load(std::memory_order_relaxed)) {
      count_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  static inline std::atomic<bool> enabled_{false};
  static inline std::atomic<int64_t> count_{0};
};

}  // namespace pipebench
