#include "obs/metrics.hpp"

#include "util/assert.hpp"

namespace rcons::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const MetricSample* find_sample(const MetricsSnapshot& snapshot,
                                std::string_view name) {
  for (const MetricSample& sample : snapshot) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

void Histogram::record(std::size_t lane_index, std::uint64_t value) {
  Lane& lane = lanes_[lane_index % lane_count_];
  lane.count.fetch_add(1, std::memory_order_relaxed);
  lane.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = lane.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !lane.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    total += lanes_[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    total += lanes_[i].sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::max() const {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    const std::uint64_t lane_max = lanes_[i].max.load(std::memory_order_relaxed);
    if (lane_max > best) best = lane_max;
  }
  return best;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < lane_count_; ++i) {
    Lane& lane = lanes_[i];
    lane.count.store(0, std::memory_order_relaxed);
    lane.sum.store(0, std::memory_order_relaxed);
    lane.max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry::MetricsRegistry(std::size_t lanes) : lanes_(lanes) {
  RCONS_ASSERT_MSG(lanes >= 1, "a metrics registry needs at least one lane");
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = MetricKind::kCounter;
    entry.counter = std::make_unique<Counter>(lanes_);
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  RCONS_ASSERT_MSG(it->second.kind == MetricKind::kCounter,
                   "metric re-registered with a different kind");
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = MetricKind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  RCONS_ASSERT_MSG(it->second.kind == MetricKind::kGauge,
                   "metric re-registered with a different kind");
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = MetricKind::kHistogram;
    entry.histogram = std::make_unique<Histogram>(lanes_);
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  RCONS_ASSERT_MSG(it->second.kind == MetricKind::kHistogram,
                   "metric re-registered with a different kind");
  return *it->second.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {  // std::map: sorted by name
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.value = entry.counter->total();
        break;
      case MetricKind::kGauge:
        sample.value = static_cast<std::uint64_t>(entry.gauge->value());
        break;
      case MetricKind::kHistogram:
        sample.value = entry.histogram->count();
        sample.sum = entry.histogram->sum();
        sample.max = entry.histogram->max();
        break;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

void MetricsRegistry::reset(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

}  // namespace rcons::obs
