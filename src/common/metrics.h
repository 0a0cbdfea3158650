// Named-counter/histogram registry.
//
// Each subsystem owns a MetricsRegistry (no global state), which benches and
// tests read to assert behavioural properties ("zero disk I/O in FS-SM
// mode", "3 replica writes per put"). A registry never erases a metric, so
// references to its counters and histograms stay valid for its lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/histogram.h"

namespace dm {

class MetricsRegistry {
 public:
  // Returns the counter by name, creating it at zero on first use. Lookups
  // take the name as a view; only a first insert builds a std::string.
  std::uint64_t& counter(std::string_view name) {
    return find_or_insert(counters_, name);
  }
  std::uint64_t counter_value(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  Histogram& histogram(std::string_view name) {
    return find_or_insert(histograms_, name);
  }
  const Histogram* find_histogram(std::string_view name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // "name=value" lines, sorted by name, then one
  // "name: count=N mean=M p50=A p99=B max=C" line per histogram (raw
  // nanosecond values); for debug dumps.
  std::string to_string() const;

 private:
  template <typename Map>
  static typename Map::mapped_type& find_or_insert(Map& map,
                                                   std::string_view name) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name)
      it = map.emplace_hint(it, std::string(name),
                            typename Map::mapped_type{});
    return it->second;
  }

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Handle to one metric, resolved on first use: the metric appears in the
// registry exactly when a direct counter()/histogram() call would create
// it, and later uses skip the name lookup. `name` must outlive the handle
// (a string literal).
template <typename T>
class LazyMetric {
 public:
  LazyMetric(MetricsRegistry& registry, std::string_view name)
      : registry_(&registry), name_(name) {}

  T& operator*() {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<T, Histogram>) {
        metric_ = &registry_->histogram(name_);
      } else {
        metric_ = &registry_->counter(name_);
      }
    }
    return *metric_;
  }
  T* operator->() { return &**this; }

 private:
  MetricsRegistry* registry_;
  std::string_view name_;
  T* metric_ = nullptr;
};

using LazyCounter = LazyMetric<std::uint64_t>;
using LazyHistogram = LazyMetric<Histogram>;

}  // namespace dm
