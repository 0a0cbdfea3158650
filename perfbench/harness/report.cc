#include "report.h"

#include <cstdio>

namespace perfbench {
namespace {

// "node.12.ldms.put_remote" -> "ldms.put_remote"; "net.fabric.messages" ->
// "fabric.messages". Names without a known prefix pass through.
std::string_view strip_prefix(std::string_view name) {
  if (name.rfind("node.", 0) == 0) {
    const auto dot = name.find('.', 5);
    return dot == std::string_view::npos ? name : name.substr(dot + 1);
  }
  for (std::string_view prefix : {"net.", "cxl."})
    if (name.rfind(prefix, 0) == 0) return name.substr(prefix.size());
  return name;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<SimTime>& values) {
  double total = 0.0;
  for (SimTime v : values) total += static_cast<double>(v);
  return total;
}

double tail_mean(std::vector<SimTime> values, double share) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(share * static_cast<double>(n))), 1, n);
  std::nth_element(values.begin(), values.begin() + (n - k), values.end());
  double total = 0.0;
  for (auto it = values.begin() + (n - k); it != values.end(); ++it)
    total += static_cast<double>(*it);
  return total / static_cast<double>(k);
}

Snapshot take_snapshot(dm::core::DmSystem& system, const Workload& workload) {
  Snapshot snap;
  const dm::MetricsRegistry merged = system.hub().merged();
  for (const auto& [name, value] : merged.counters())
    snap.registry.counter(strip_prefix(name)) += value;
  for (const auto& [name, histogram] : merged.histograms())
    snap.registry.histogram(strip_prefix(name)).merge(histogram);
  workload.collect(snap.registry);
  snap.events = system.simulator().executed_events();
  snap.now = system.simulator().now();
  return snap;
}

Delta::Delta(const Snapshot& before, const Snapshot& after)
    : events_(after.events - before.events), vt_(after.now - before.now) {
  for (const auto& [name, value] : after.registry.counters())
    registry_.counter(name) = value - before.registry.counter_value(name);
  for (const auto& [name, histogram] : after.registry.histograms()) {
    const dm::Histogram* past = before.registry.find_histogram(name);
    registry_.histogram(name) =
        past != nullptr ? histogram.delta_since(*past) : histogram;
  }
}

std::uint64_t Delta::count(std::string_view name) const {
  return registry_.counter_value(name);
}

dm::Histogram Delta::histogram(std::string_view prefix) const {
  dm::Histogram out;
  for (const auto& [name, histogram] : registry_.histograms())
    if (name.rfind(prefix, 0) == 0) out.merge(histogram);
  return out;
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

void Report::add(std::string name, double value, std::string unit, Kind kind) {
  metrics_.push_back({std::move(name), value, std::move(unit), kind});
}

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::printf("--- host metrics (vary run to run) ---\n");
  for (const Metric& m : metrics_)
    if (m.kind == Kind::kHost)
      std::printf("%-36s %18s %s\n", m.name.c_str(),
                  format_number(m.value).c_str(), m.unit.c_str());
  std::printf("--- deterministic section (byte-identical per seed) ---\n");
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_)
    if (m.kind == Kind::kDeterministic)
      std::printf("%-36s %18s %s\n", m.name.c_str(),
                  format_number(m.value).c_str(), m.unit.c_str());
  std::printf("--- end deterministic section ---\n");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            format_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
