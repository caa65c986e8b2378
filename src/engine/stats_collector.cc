#include "engine/stats_collector.h"

#include <cassert>

namespace fglb {

StatsCollector::StatsCollector(size_t access_window_capacity)
    : window_capacity_(access_window_capacity) {}

StatsCollector::PerClass& StatsCollector::ClassState(ClassKey key) {
  auto it = classes_.find(key);
  if (it == classes_.end()) {
    it = classes_.emplace(key, std::make_unique<PerClass>(window_capacity_))
             .first;
  }
  return *it->second;
}

void StatsCollector::RecordPageAccess(ClassKey key, PageId page) {
  ClassState(key).window.Push(page);
}

void StatsCollector::RecordQuery(ClassKey key, double latency_seconds,
                                 const ExecutionCounters& counters) {
  PerClass& state = ClassState(key);
  ++state.queries;
  ++total_queries_;
  state.latency_sum += latency_seconds;
  state.page_accesses += counters.page_accesses;
  state.buffer_misses += counters.buffer_misses;
  state.io_requests += counters.io_requests;
  state.read_aheads += counters.read_aheads;
  state.lock_wait_seconds += counters.lock_wait_seconds;
  if (queries_metric_ != nullptr) queries_metric_->Increment();
  if (latency_us_metric_ != nullptr) {
    latency_us_metric_->Record(latency_seconds * 1e6);
  }
}

std::map<ClassKey, MetricVector> StatsCollector::EndInterval(
    double interval_seconds) {
  assert(interval_seconds > 0);
  std::map<ClassKey, MetricVector> result;
  size_t class_index = 0;
  for (auto& [key, state] : classes_) {
    const size_t index = class_index++;
    if (state->queries == 0 && state->page_accesses == 0) continue;
    // Dropped intervals still reset the accumulators below: the data is
    // lost, not deferred — exactly how a dead logging buffer behaves.
    const bool report =
        dropout_ == StatsDropout::kNone ||
        (dropout_ == StatsDropout::kPartial && index % 2 == 0);
    if (!report) {
      state->queries = 0;
      state->latency_sum = 0;
      state->page_accesses = 0;
      state->buffer_misses = 0;
      state->io_requests = 0;
      state->read_aheads = 0;
      state->lock_wait_seconds = 0;
      continue;
    }
    MetricVector v{};
    At(v, Metric::kLatency) =
        state->queries > 0 ? state->latency_sum / state->queries : 0.0;
    At(v, Metric::kThroughput) =
        static_cast<double>(state->queries) / interval_seconds;
    At(v, Metric::kPageAccesses) = static_cast<double>(state->page_accesses);
    At(v, Metric::kBufferMisses) = static_cast<double>(state->buffer_misses);
    At(v, Metric::kIoRequests) = static_cast<double>(state->io_requests);
    At(v, Metric::kReadAheads) = static_cast<double>(state->read_aheads);
    At(v, Metric::kLockWaits) = state->lock_wait_seconds;
    result[key] = v;
    state->queries = 0;
    state->latency_sum = 0;
    state->page_accesses = 0;
    state->buffer_misses = 0;
    state->io_requests = 0;
    state->read_aheads = 0;
    state->lock_wait_seconds = 0;
  }
  return result;
}

std::vector<PageId> StatsCollector::AccessWindow(ClassKey key) const {
  auto it = classes_.find(key);
  if (it == classes_.end()) return {};
  return it->second->window.ToVector();
}

SpanPair<PageId> StatsCollector::AccessWindowSpans(ClassKey key) const {
  auto it = classes_.find(key);
  if (it == classes_.end()) return {};
  return it->second->window.AsSpans();
}

std::vector<ClassKey> StatsCollector::KnownClasses() const {
  std::vector<ClassKey> keys;
  keys.reserve(classes_.size());
  for (const auto& [key, state] : classes_) keys.push_back(key);
  return keys;
}

}  // namespace fglb
