#include "cluster/stats_channel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/varint.h"

namespace fglb {

namespace {

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

bool ParseDoubleField(const std::string& value, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

// Even a fully dark feed keeps a sliver of confidence so FenceScale
// stays finite and a resync can climb back.
constexpr double kMinConfidence = 1.0 / 1024;
constexpr double kMaxFenceScale = 8.0;

}  // namespace

std::string StatsChannelConfig::ToString() const {
  const StatsChannelConfig defaults;
  std::string out;
  auto add = [&out](const std::string& field) {
    if (!out.empty()) out += ',';
    out += field;
  };
  if (guard != defaults.guard) add(std::string("guard=") + (guard ? "on" : "off"));
  if (decay != defaults.decay) add("decay=" + Num(decay));
  if (recover != defaults.recover) add("recover=" + Num(recover));
  if (act_threshold != defaults.act_threshold) {
    add("threshold=" + Num(act_threshold));
  }
  return out;
}

bool StatsChannelConfig::Parse(const std::string& text,
                               StatsChannelConfig* config,
                               std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  StatsChannelConfig parsed;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string field = text.substr(start, end - start);
    start = end + 1;
    if (field.empty()) continue;
    const size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return fail("stats spec field without '=': " + field);
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    bool ok = true;
    if (key == "guard") {
      ok = value == "on" || value == "off" || value == "1" || value == "0";
      parsed.guard = value == "on" || value == "1";
    } else if (key == "decay") {
      ok = ParseDoubleField(value, &parsed.decay) && parsed.decay > 0 &&
           parsed.decay < 1;
    } else if (key == "recover") {
      ok = ParseDoubleField(value, &parsed.recover) && parsed.recover > 0 &&
           parsed.recover <= 1;
    } else if (key == "threshold") {
      ok = ParseDoubleField(value, &parsed.act_threshold) &&
           parsed.act_threshold > 0 && parsed.act_threshold <= 1;
    } else {
      return fail("unknown stats spec key: " + key);
    }
    if (!ok) return fail("bad stats spec value: " + field);
  }
  *config = parsed;
  return true;
}

StatsChannel::StatsChannel(Simulator* sim, StatsChannelConfig config)
    : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
}

void StatsChannel::BindObservability(MetricsRegistry* metrics,
                                     TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) {
    published_ = delivered_ = dropped_ = corrupt_rejected_ = nullptr;
    late_rejected_ = duplicate_ignored_ = stale_collects_ = resyncs_ = nullptr;
    return;
  }
  published_ = metrics_->counter("stats_channel.published");
  delivered_ = metrics_->counter("stats_channel.delivered");
  dropped_ = metrics_->counter("stats_channel.dropped");
  corrupt_rejected_ = metrics_->counter("stats_channel.corrupt_rejected");
  late_rejected_ = metrics_->counter("stats_channel.late_rejected");
  duplicate_ignored_ = metrics_->counter("stats_channel.duplicate_ignored");
  stale_collects_ = metrics_->counter("stats_channel.stale_collects");
  resyncs_ = metrics_->counter("stats_channel.resyncs");
}

double StatsChannel::FenceScale(double confidence) const {
  if (!config_.guard) return 1.0;
  const double conf = std::max(confidence, kMinConfidence);
  return std::min(1.0 / conf, kMaxFenceScale);
}

void StatsChannel::Publish(int replica_id, const Snapshot& snapshot,
                           double interval_seconds) {
  const uint64_t seq = ++publish_seq_[replica_id];
  if (published_ != nullptr) published_->Increment();

  // Wire format: seq, replica, class count, then per class the key and
  // the metric vector as IEEE-754 bits (bit-exact round trip), with a
  // CRC-32 of everything before it at the tail.
  std::string bytes;
  PutVarint64(&bytes, seq);
  PutVarint64(&bytes, static_cast<uint64_t>(replica_id));
  PutVarint64(&bytes, snapshot.size());
  for (const auto& [key, vec] : snapshot) {
    PutVarint64(&bytes, key);
    for (double v : vec) PutFixed64(&bytes, DoubleToBits(v));
  }
  PutFixed32(&bytes, Crc32(bytes.data(), bytes.size()));

  FaultInjector::NetDecision decision;
  if (net_hook_) decision = net_hook_(replica_id, seq);
  if (decision.drop) {
    if (dropped_ != nullptr) dropped_->Increment();
    return;
  }
  if (decision.corrupt && bytes.size() > 4) {
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  }
  // A reordered report is pushed behind its successor: 1.5 intervals
  // guarantees it arrives after the next on-time publish.
  double delay = decision.delay_seconds;
  if (decision.reorder) delay += 1.5 * interval_seconds;
  const int copies = decision.duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    if (delay > 0) {
      const std::string copy = bytes;
      sim_->ScheduleAfter(delay, [this, copy] { Deliver(copy); });
    } else {
      Deliver(bytes);
    }
  }
}

void StatsChannel::Deliver(const std::string& bytes) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* limit = p + bytes.size();
  if (bytes.size() < 4) {
    if (corrupt_rejected_ != nullptr) corrupt_rejected_->Increment();
    return;
  }
  uint32_t crc = 0;
  if (!GetFixed32(limit - 4, limit, &crc) ||
      crc != Crc32(bytes.data(), bytes.size() - 4)) {
    if (corrupt_rejected_ != nullptr) corrupt_rejected_->Increment();
    return;
  }
  limit -= 4;
  uint64_t seq = 0, replica = 0, classes = 0;
  size_t n = GetVarint64(p, limit, &seq);
  if (n == 0) return;
  p += n;
  n = GetVarint64(p, limit, &replica);
  if (n == 0) return;
  p += n;
  n = GetVarint64(p, limit, &classes);
  if (n == 0) return;
  p += n;
  Snapshot snapshot;
  for (uint64_t i = 0; i < classes; ++i) {
    uint64_t key = 0;
    n = GetVarint64(p, limit, &key);
    if (n == 0) return;
    p += n;
    MetricVector vec{};
    for (double& v : vec) {
      uint64_t bits = 0;
      if (!GetFixed64(p, limit, &bits)) return;
      p += 8;
      v = BitsToDouble(bits);
    }
    snapshot.emplace(key, vec);
  }

  Receiver& rs = receivers_[static_cast<int>(replica)];
  // A duplicate carries an already-consumed seq; a reordered straggler
  // carries a seq behind a newer pending/consumed report. Both are
  // discarded — freshest-seq-wins keeps the feed monotone.
  if (seq <= rs.last_seq) {
    if (seq == rs.last_seq) {
      if (duplicate_ignored_ != nullptr) duplicate_ignored_->Increment();
    } else {
      if (late_rejected_ != nullptr) late_rejected_->Increment();
    }
    return;
  }
  if (rs.has_pending && seq <= rs.pending_seq) {
    if (seq == rs.pending_seq) {
      if (duplicate_ignored_ != nullptr) duplicate_ignored_->Increment();
    } else {
      if (late_rejected_ != nullptr) late_rejected_->Increment();
    }
    return;
  }
  if (delivered_ != nullptr) delivered_->Increment();
  rs.pending = std::move(snapshot);
  rs.has_pending = true;
  rs.pending_seq = seq;
}

StatsChannel::Feed StatsChannel::Collect(int replica_id) {
  Receiver& rs = receivers_[replica_id];
  Feed feed;
  if (rs.has_pending) {
    const uint64_t was_stale = rs.stale_intervals;
    rs.last_seq = rs.pending_seq;
    rs.last_known_good = std::move(rs.pending);
    rs.pending.clear();
    rs.has_pending = false;
    rs.stale_intervals = 0;
    rs.confidence = config_.guard
                        ? std::min(1.0, rs.confidence + config_.recover)
                        : 1.0;
    if (was_stale > 0) {
      if (resyncs_ != nullptr) resyncs_->Increment();
      EmitRecovery("stats_resync", replica_id, rs.last_seq, was_stale,
                   rs.confidence);
    }
    feed.fresh = true;
  } else {
    ++rs.stale_intervals;
    rs.confidence = config_.guard
                        ? std::max(rs.confidence * config_.decay,
                                   kMinConfidence)
                        : 1.0;
    if (stale_collects_ != nullptr) stale_collects_->Increment();
    EmitRecovery("report_lost", replica_id, rs.last_seq, rs.stale_intervals,
                 rs.confidence);
    feed.fresh = false;
  }
  feed.snapshot = &rs.last_known_good;
  feed.stale_intervals = rs.stale_intervals;
  feed.confidence = rs.confidence;
  feed.last_seq = rs.last_seq;
  return feed;
}

void StatsChannel::Retain(const std::vector<int>& live_replica_ids) {
  const std::set<int> live(live_replica_ids.begin(), live_replica_ids.end());
  for (auto it = receivers_.begin(); it != receivers_.end();) {
    if (live.contains(it->first)) {
      ++it;
    } else {
      it = receivers_.erase(it);
    }
  }
}

void StatsChannel::EmitRecovery(const char* why, int replica_id,
                                uint64_t report_seq, uint64_t stale_intervals,
                                double confidence) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  TraceEvent event("recovery");
  event.Num("t", sim_->Now())
      .Str("why", why)
      .Int("replica", replica_id)
      .Uint("report_seq", report_seq)
      .Uint("stale_intervals", stale_intervals)
      .Num("conf", confidence);
  trace_->Emit(event);
}

void StatsChannel::SerializeReceiverState(std::string* out) const {
  PutVarint64(out, receivers_.size());
  for (const auto& [replica, rs] : receivers_) {
    PutVarint64(out, ZigZagEncode(replica));
    PutVarint64(out, rs.last_seq);
    PutVarint64(out, rs.stale_intervals);
    PutFixed64(out, DoubleToBits(rs.confidence));
    PutVarint64(out, rs.last_known_good.size());
    for (const auto& [key, vec] : rs.last_known_good) {
      PutVarint64(out, key);
      for (double v : vec) PutFixed64(out, DoubleToBits(v));
    }
  }
}

bool StatsChannel::RestoreReceiverState(const uint8_t* p,
                                        const uint8_t* limit) {
  std::map<int, Receiver> restored;
  uint64_t count = 0;
  size_t n = GetVarint64(p, limit, &count);
  if (n == 0) return false;
  p += n;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t replica_zz = 0, classes = 0, bits = 0;
    Receiver rs;
    if ((n = GetVarint64(p, limit, &replica_zz)) == 0) return false;
    p += n;
    if ((n = GetVarint64(p, limit, &rs.last_seq)) == 0) return false;
    p += n;
    if ((n = GetVarint64(p, limit, &rs.stale_intervals)) == 0) return false;
    p += n;
    if (!GetFixed64(p, limit, &bits)) return false;
    p += 8;
    rs.confidence = BitsToDouble(bits);
    if ((n = GetVarint64(p, limit, &classes)) == 0) return false;
    p += n;
    for (uint64_t c = 0; c < classes; ++c) {
      uint64_t key = 0;
      if ((n = GetVarint64(p, limit, &key)) == 0) return false;
      p += n;
      MetricVector vec{};
      for (double& v : vec) {
        if (!GetFixed64(p, limit, &bits)) return false;
        p += 8;
        v = BitsToDouble(bits);
      }
      rs.last_known_good.emplace(key, vec);
    }
    restored.emplace(static_cast<int>(ZigZagDecode(replica_zz)),
                     std::move(rs));
  }
  receivers_ = std::move(restored);
  return true;
}

}  // namespace fglb
