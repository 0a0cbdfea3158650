// Metric arithmetic and printing for perfbench.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "core/dm_system.h"
#include "harness.h"

namespace perfbench {

// Exact nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
// Deterministic for a given multiset of values.
template <class T>
T percentile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values);

// Sum of virtual-time latencies, as a double.
double sum(const std::vector<SimTime>& values);

// Mean of the largest `share` of `values` (at least one value): the tail a
// percentile summarises, but moving with every sample in it rather than
// snapping to one of the few distinct latencies a deterministic model emits.
double tail_mean(std::vector<SimTime> values, double share);

// Layer counters and histograms aggregated across nodes: hub names lose
// their "node.<id>." / "net." / "cxl." prefix, so "ldms.put_remote" is the
// cluster-wide total. Taken at the edges of the timed window.
struct Snapshot {
  dm::MetricsRegistry registry;
  std::uint64_t events = 0;
  SimTime now = 0;
};
Snapshot take_snapshot(dm::core::DmSystem& system, const Workload& workload);

// Counter and histogram movement between two snapshots.
class Delta {
 public:
  Delta(const Snapshot& before, const Snapshot& after);

  std::uint64_t count(std::string_view name) const;
  // Merge of every histogram whose name starts with `prefix`.
  dm::Histogram histogram(std::string_view prefix) const;
  std::uint64_t events() const noexcept { return events_; }
  SimTime vt() const noexcept { return vt_; }

 private:
  dm::MetricsRegistry registry_;
  std::uint64_t events_ = 0;
  SimTime vt_ = 0;
};

// Whether a metric repeats exactly for a given seed (virtual time, counts)
// or is a host measurement that varies run to run.
enum class Kind { kDeterministic, kHost };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kDeterministic;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, Kind kind);
  // Free-form deterministic line (sample counts, failure tallies).
  void note(std::string line) { notes_.push_back(std::move(line)); }

  // Prints host metrics, then the deterministic section (byte-identical
  // for a given seed and run length), then one JSON line with every metric.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// Formats a value with all significant digits of a double.
std::string format_number(double value);

}  // namespace perfbench
