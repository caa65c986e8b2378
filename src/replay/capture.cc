#include "replay/capture.h"

#include <cassert>
#include <cstring>

#include "common/varint.h"
#include "scenarios/harness.h"

namespace fglb {
namespace {

constexpr char kMagic[8] = {'F', 'G', 'L', 'B', 'C', 'A', 'P', '1'};

// Block types.
constexpr uint8_t kBlockInfo = 1;
constexpr uint8_t kBlockTopology = 2;
constexpr uint8_t kBlockEvents = 3;
constexpr uint8_t kBlockActions = 4;
constexpr uint8_t kBlockSamples = 5;
constexpr uint8_t kBlockEnd = 6;

// Event tags within an events block.
constexpr uint8_t kEventArrival = 1;
constexpr uint8_t kEventExecution = 2;

// Flush an events block once its payload passes this size.
constexpr size_t kEventsFlushBytes = 64 * 1024;

void PutString(std::string* dst, const std::string& s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

void PutDouble(std::string* dst, double d) {
  PutFixed64(dst, DoubleToBits(d));
}

uint8_t AccessFlags(const PageAccess& a) {
  return static_cast<uint8_t>(
      (a.kind == AccessKind::kSequential ? 1 : 0) | (a.is_write ? 2 : 0));
}

// Bounds-checked payload cursor. Any malformed read flips `ok` and
// every later read returns a zero value, so decoders can sequence
// reads and check once.
struct Reader {
  const uint8_t* p;
  const uint8_t* limit;
  bool ok = true;

  size_t remaining() const { return static_cast<size_t>(limit - p); }

  uint64_t U64() {
    uint64_t v = 0;
    const size_t n = GetVarint64(p, limit, &v);
    if (n == 0) {
      ok = false;
      return 0;
    }
    p += n;
    return v;
  }
  int64_t S64() { return ZigZagDecode(U64()); }
  uint8_t U8() {
    if (!ok || p >= limit) {
      ok = false;
      return 0;
    }
    return *p++;
  }
  double F64() {
    uint64_t bits = 0;
    if (!ok || !GetFixed64(p, limit, &bits)) {
      ok = false;
      return 0;
    }
    p += 8;
    return BitsToDouble(bits);
  }
  std::string Str() {
    const uint64_t n = U64();
    if (!ok || n > remaining()) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
  bool AtEnd() const { return ok && p == limit; }

  // Sanity bound for a count of elements that each occupy at least
  // `min_bytes` of the remaining payload (blocks a corrupted count
  // from forcing a huge reserve before decoding fails).
  bool PlausibleCount(uint64_t count, size_t min_bytes) {
    if (!ok || count > remaining() / min_bytes + 1) {
      ok = false;
      return false;
    }
    return true;
  }
};

// --- section encoders ---

void EncodeInfo(const CaptureInfo& info, std::string* out) {
  PutVarint64(out, info.seed);
  PutVarint64(out, info.fault_seed);
  PutString(out, info.scenario);
  PutString(out, info.fault_spec);
  PutDouble(out, info.duration_seconds);
  PutDouble(out, info.interval_seconds);
  PutDouble(out, info.mrc_sample_rate);
  PutVarint64(out, static_cast<uint64_t>(info.max_migrations_per_interval));
  PutString(out, info.admission_spec);
  PutString(out, info.span_spec);
  PutString(out, info.mrc_spec);
  PutString(out, info.tier_spec);
  PutString(out, info.replacement_spec);
  PutString(out, info.stats_spec);
  PutString(out, info.ckpt_spec);
}

bool DecodeInfo(Reader& r, CaptureInfo* info) {
  info->seed = r.U64();
  info->fault_seed = r.U64();
  info->scenario = r.Str();
  info->fault_spec = r.Str();
  info->duration_seconds = r.F64();
  info->interval_seconds = r.F64();
  info->mrc_sample_rate = r.F64();
  info->max_migrations_per_interval = static_cast<int>(r.U64());
  // Optional trailing fields; absent in captures from before the
  // corresponding subsystem existed.
  if (r.AtEnd()) return true;
  info->admission_spec = r.Str();
  if (r.AtEnd()) return true;
  info->span_spec = r.Str();
  if (r.AtEnd()) return true;
  info->mrc_spec = r.Str();
  if (r.AtEnd()) return true;
  info->tier_spec = r.Str();
  if (r.AtEnd()) return true;
  info->replacement_spec = r.Str();
  if (r.AtEnd()) return true;
  info->stats_spec = r.Str();
  if (r.AtEnd()) return true;
  info->ckpt_spec = r.Str();
  return r.AtEnd();
}

void EncodeTopology(const CaptureTopology& topo, std::string* out) {
  PutVarint64(out, topo.servers.size());
  for (const auto& s : topo.servers) {
    PutVarint64(out, static_cast<uint64_t>(s.cores));
    PutVarint64(out, s.memory_pages);
    PutDouble(out, s.random_read_seconds);
    PutDouble(out, s.extent_read_seconds);
    PutDouble(out, s.page_write_seconds);
  }
  PutVarint64(out, topo.apps.size());
  for (const auto& app : topo.apps) {
    PutVarint64(out, app.id);
    PutString(out, app.name);
    PutVarint64(out, app.templates.size());
    for (const auto& t : app.templates) {
      PutVarint64(out, t.id);
      PutString(out, t.name);
      PutVarint64(out, t.components.size());
      for (const auto& c : t.components) {
        PutVarint64(out, c.table);
        PutVarint64(out, c.table_pages);
        PutVarint64(out, c.region_offset);
        PutVarint64(out, c.region_pages);
        out->push_back(static_cast<char>(c.kind));
        PutDouble(out, c.zipf_theta);
        PutDouble(out, c.mean_pages);
        PutDouble(out, c.write_fraction);
      }
      PutDouble(out, t.fixed_cpu_seconds);
      PutDouble(out, t.cpu_seconds_per_page);
      out->push_back(t.is_update ? 1 : 0);
      PutDouble(out, t.commit_hold_seconds);
    }
    PutVarint64(out, app.mix_weights.size());
    for (double w : app.mix_weights) PutDouble(out, w);
    PutDouble(out, app.think_time_seconds);
    PutDouble(out, app.sla_latency_seconds);
  }
  PutVarint64(out, topo.replicas.size());
  for (const auto& rep : topo.replicas) {
    PutVarint64(out, static_cast<uint64_t>(rep.id));
    PutVarint64(out, static_cast<uint64_t>(rep.server));
    PutVarint64(out, rep.pool_pages);
    PutVarint64(out, rep.engine_seed);
  }
  PutVarint64(out, topo.placements.size());
  for (const auto& pl : topo.placements) {
    PutVarint64(out, pl.app);
    PutVarint64(out, pl.replica_ids.size());
    for (int id : pl.replica_ids) PutVarint64(out, static_cast<uint64_t>(id));
  }
}

bool DecodeTopology(Reader& r, CaptureTopology* topo) {
  uint64_t n = r.U64();
  if (!r.PlausibleCount(n, 1)) return false;
  topo->servers.resize(n);
  for (auto& s : topo->servers) {
    s.cores = static_cast<int>(r.U64());
    s.memory_pages = r.U64();
    s.random_read_seconds = r.F64();
    s.extent_read_seconds = r.F64();
    s.page_write_seconds = r.F64();
  }
  n = r.U64();
  if (!r.PlausibleCount(n, 1)) return false;
  topo->apps.resize(n);
  for (auto& app : topo->apps) {
    app.id = static_cast<AppId>(r.U64());
    app.name = r.Str();
    uint64_t nt = r.U64();
    if (!r.PlausibleCount(nt, 1)) return false;
    app.templates.resize(nt);
    for (auto& t : app.templates) {
      t.id = static_cast<QueryClassId>(r.U64());
      t.name = r.Str();
      uint64_t nc = r.U64();
      if (!r.PlausibleCount(nc, 1)) return false;
      t.components.resize(nc);
      for (auto& c : t.components) {
        c.table = static_cast<TableId>(r.U64());
        c.table_pages = r.U64();
        c.region_offset = r.U64();
        c.region_pages = r.U64();
        const uint8_t kind = r.U8();
        if (kind > 1) {
          r.ok = false;
          return false;
        }
        c.kind = static_cast<AccessComponent::Kind>(kind);
        c.zipf_theta = r.F64();
        c.mean_pages = r.F64();
        c.write_fraction = r.F64();
      }
      t.fixed_cpu_seconds = r.F64();
      t.cpu_seconds_per_page = r.F64();
      t.is_update = r.U8() != 0;
      t.commit_hold_seconds = r.F64();
    }
    uint64_t nw = r.U64();
    if (!r.PlausibleCount(nw, 8)) return false;
    app.mix_weights.resize(nw);
    for (double& w : app.mix_weights) w = r.F64();
    app.think_time_seconds = r.F64();
    app.sla_latency_seconds = r.F64();
  }
  n = r.U64();
  if (!r.PlausibleCount(n, 1)) return false;
  topo->replicas.resize(n);
  for (auto& rep : topo->replicas) {
    rep.id = static_cast<int>(r.U64());
    rep.server = static_cast<int>(r.U64());
    rep.pool_pages = r.U64();
    rep.engine_seed = r.U64();
  }
  n = r.U64();
  if (!r.PlausibleCount(n, 1)) return false;
  topo->placements.resize(n);
  for (auto& pl : topo->placements) {
    pl.app = static_cast<AppId>(r.U64());
    uint64_t ni = r.U64();
    if (!r.PlausibleCount(ni, 1)) return false;
    pl.replica_ids.resize(ni);
    for (int& id : pl.replica_ids) id = static_cast<int>(r.U64());
  }
  return r.AtEnd();
}

void EncodeActions(const std::vector<CaptureAction>& actions,
                   std::string* out) {
  PutVarint64(out, actions.size());
  for (const auto& a : actions) {
    PutDouble(out, a.t);
    out->push_back(static_cast<char>(a.kind));
    PutVarint64(out, a.app);
    PutString(out, a.description);
  }
}

bool DecodeActions(Reader& r, std::vector<CaptureAction>* actions) {
  const uint64_t n = r.U64();
  if (!r.PlausibleCount(n, 10)) return false;
  actions->resize(n);
  for (auto& a : *actions) {
    a.t = r.F64();
    a.kind = r.U8();
    a.app = static_cast<AppId>(r.U64());
    a.description = r.Str();
  }
  return r.AtEnd();
}

void EncodeSamples(const std::vector<CaptureSample>& samples,
                   std::string* out) {
  PutVarint64(out, samples.size());
  for (const auto& s : samples) {
    PutDouble(out, s.t);
    PutVarint64(out, s.apps.size());
    for (const auto& a : s.apps) {
      PutVarint64(out, a.app);
      PutVarint64(out, a.queries);
      PutDouble(out, a.avg_latency);
      PutDouble(out, a.p95_latency);
      PutDouble(out, a.throughput);
      out->push_back(a.sla_met ? 1 : 0);
      PutVarint64(out, static_cast<uint64_t>(a.servers_used));
    }
    PutVarint64(out, s.servers.size());
    for (const auto& sv : s.servers) {
      PutVarint64(out, static_cast<uint64_t>(sv.server_id));
      PutDouble(out, sv.cpu_utilization);
      PutDouble(out, sv.io_utilization);
    }
  }
}

bool DecodeSamples(Reader& r, std::vector<CaptureSample>* samples) {
  const uint64_t n = r.U64();
  if (!r.PlausibleCount(n, 10)) return false;
  samples->resize(n);
  for (auto& s : *samples) {
    s.t = r.F64();
    uint64_t na = r.U64();
    if (!r.PlausibleCount(na, 10)) return false;
    s.apps.resize(na);
    for (auto& a : s.apps) {
      a.app = static_cast<AppId>(r.U64());
      a.queries = r.U64();
      a.avg_latency = r.F64();
      a.p95_latency = r.F64();
      a.throughput = r.F64();
      a.sla_met = r.U8() != 0;
      a.servers_used = static_cast<int>(r.U64());
    }
    uint64_t ns = r.U64();
    if (!r.PlausibleCount(ns, 10)) return false;
    s.servers.resize(ns);
    for (auto& sv : s.servers) {
      sv.server_id = static_cast<int>(r.U64());
      sv.cpu_utilization = r.F64();
      sv.io_utilization = r.F64();
    }
  }
  return r.AtEnd();
}

// Decodes one events block into the capture (the time-delta chain
// spans blocks, so `prev_time_bits` is carried by the caller).
bool DecodeEvents(Reader& r, uint64_t* prev_time_bits, Capture* out) {
  while (r.ok && r.p < r.limit) {
    const uint8_t tag = r.U8();
    *prev_time_bits += static_cast<uint64_t>(r.S64());
    const double t = BitsToDouble(*prev_time_bits);
    if (tag == kEventArrival) {
      CaptureArrival a;
      a.t = t;
      a.app = static_cast<AppId>(r.U64());
      a.cls = static_cast<QueryClassId>(r.U64());
      a.client_id = r.U64();
      if (!r.ok) return false;
      out->arrivals.push_back(a);
    } else if (tag == kEventExecution) {
      CaptureExecution e;
      e.t = t;
      e.replica = static_cast<int>(r.U64());
      e.key = r.U64();
      const uint64_t count = r.U64();
      // Each access is at least 2 bytes (flags + 1-byte varint).
      if (!r.PlausibleCount(count, 2)) return false;
      e.access_begin = out->accesses.size();
      e.access_count = static_cast<uint32_t>(count);
      uint64_t prev_page = 0;
      for (uint64_t i = 0; i < count; ++i) {
        const uint8_t flags = r.U8();
        if (flags > 3) {
          r.ok = false;
          return false;
        }
        prev_page += static_cast<uint64_t>(r.S64());
        PageAccess access;
        access.page = prev_page;
        access.kind = (flags & 1) ? AccessKind::kSequential
                                  : AccessKind::kRandom;
        access.is_write = (flags & 2) != 0;
        out->accesses.push_back(access);
      }
      if (!r.ok) return false;
      out->executions.push_back(e);
    } else {
      r.ok = false;
      return false;
    }
  }
  return r.ok;
}

}  // namespace

const ApplicationSpec* Capture::FindApp(AppId app) const {
  for (const auto& spec : topology.apps) {
    if (spec.id == app) return &spec;
  }
  return nullptr;
}

// --- CaptureWriter ---

CaptureWriter::CaptureWriter(Simulator* sim) : sim_(sim) {
  assert(sim_ != nullptr);
}

CaptureWriter::~CaptureWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool CaptureWriter::WriteBlock(uint8_t type, const std::string& payload) {
  if (file_ == nullptr || failed_) return false;
  std::string header;
  header.push_back(static_cast<char>(type));
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed32(&header, Crc32(payload.data(), payload.size()));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    failed_ = true;
    return false;
  }
  bytes_written_ += header.size() + payload.size();
  return true;
}

bool CaptureWriter::Open(const std::string& path, const CaptureInfo& info,
                         const CaptureTopology& topology, std::string* error) {
  assert(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  if (std::fwrite(kMagic, 1, sizeof(kMagic), file_) != sizeof(kMagic)) {
    failed_ = true;
  }
  bytes_written_ += sizeof(kMagic);
  std::string payload;
  EncodeInfo(info, &payload);
  WriteBlock(kBlockInfo, payload);
  payload.clear();
  EncodeTopology(topology, &payload);
  WriteBlock(kBlockTopology, payload);
  if (failed_ && error != nullptr) *error = "write error on " + path;
  return !failed_;
}

void CaptureWriter::PutTime(double t) {
  const uint64_t bits = DoubleToBits(t);
  PutVarint64(&events_,
              ZigZagEncode(static_cast<int64_t>(bits - prev_time_bits_)));
  prev_time_bits_ = bits;
}

void CaptureWriter::OnArrival(const QueryInstance& query) {
  if (file_ == nullptr || failed_) return;
  events_.push_back(static_cast<char>(kEventArrival));
  PutTime(sim_->Now());
  PutVarint64(&events_, query.app);
  PutVarint64(&events_, query.tmpl->id);
  PutVarint64(&events_, query.client_id);
  ++arrivals_;
  FlushEvents(false);
}

void CaptureWriter::OnExecution(int replica_id, ClassKey key,
                                const std::vector<PageAccess>& accesses) {
  if (file_ == nullptr || failed_) return;
  events_.push_back(static_cast<char>(kEventExecution));
  PutTime(sim_->Now());
  PutVarint64(&events_, static_cast<uint64_t>(replica_id));
  PutVarint64(&events_, key);
  PutVarint64(&events_, accesses.size());
  uint64_t prev_page = 0;
  for (const PageAccess& a : accesses) {
    events_.push_back(static_cast<char>(AccessFlags(a)));
    PutVarint64(&events_,
                ZigZagEncode(static_cast<int64_t>(a.page - prev_page)));
    prev_page = a.page;
  }
  ++executions_;
  accesses_ += accesses.size();
  FlushEvents(false);
}

bool CaptureWriter::FlushEvents(bool force) {
  if (events_.empty()) return true;
  if (!force && events_.size() < kEventsFlushBytes) return true;
  const bool ok = WriteBlock(kBlockEvents, events_);
  events_.clear();
  return ok;
}

bool CaptureWriter::Finalize(
    const std::vector<SelectiveRetuner::Action>& actions,
    const std::vector<SelectiveRetuner::IntervalSample>& samples) {
  if (file_ == nullptr) return false;
  FlushEvents(true);

  std::vector<CaptureAction> out_actions;
  out_actions.reserve(actions.size());
  for (const auto& a : actions) {
    CaptureAction ca;
    ca.t = a.time;
    ca.kind = static_cast<uint8_t>(a.kind);
    ca.app = a.app;
    ca.description = a.description;
    out_actions.push_back(std::move(ca));
  }
  std::string payload;
  EncodeActions(out_actions, &payload);
  WriteBlock(kBlockActions, payload);

  std::vector<CaptureSample> out_samples;
  out_samples.reserve(samples.size());
  for (const auto& s : samples) {
    CaptureSample cs;
    cs.t = s.time;
    for (const auto& a : s.apps) {
      cs.apps.push_back({a.app, a.queries, a.avg_latency, a.p95_latency,
                         a.throughput, a.sla_met, a.servers_used});
    }
    for (const auto& sv : s.servers) {
      cs.servers.push_back({sv.server_id, sv.cpu_utilization,
                            sv.io_utilization});
    }
    out_samples.push_back(std::move(cs));
  }
  payload.clear();
  EncodeSamples(out_samples, &payload);
  WriteBlock(kBlockSamples, payload);

  WriteBlock(kBlockEnd, std::string());
  const bool ok = !failed_ && std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  return ok;
}

// --- ReadCapture ---

bool ReadCapture(const std::string& path, Capture* out, std::string* error) {
  assert(out != nullptr);
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open " + path);
  std::string body;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return fail("read error on " + path);

  if (body.size() < sizeof(kMagic) ||
      std::memcmp(body.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail(path + ": not a capture file (bad magic)");
  }
  *out = Capture();

  const uint8_t* p = reinterpret_cast<const uint8_t*>(body.data()) +
                     sizeof(kMagic);
  const uint8_t* limit = reinterpret_cast<const uint8_t*>(body.data()) +
                         body.size();
  bool seen_info = false;
  bool seen_topology = false;
  bool seen_actions = false;
  bool seen_samples = false;
  uint64_t prev_time_bits = 0;

  while (true) {
    if (p == limit) return fail(path + ": truncated (no end block)");
    const uint8_t type = *p++;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!GetFixed32(p, limit, &len)) {
      return fail(path + ": truncated block header");
    }
    p += 4;
    if (!GetFixed32(p, limit, &crc)) {
      return fail(path + ": truncated block header");
    }
    p += 4;
    if (len > static_cast<size_t>(limit - p)) {
      return fail(path + ": truncated block payload");
    }
    if (Crc32(p, len) != crc) {
      return fail(path + ": block checksum mismatch (corrupted)");
    }
    Reader r{p, p + len};
    p += len;

    switch (type) {
      case kBlockInfo:
        if (seen_info || seen_topology) return fail(path + ": stray info block");
        if (!DecodeInfo(r, &out->info)) return fail(path + ": bad info block");
        seen_info = true;
        break;
      case kBlockTopology:
        if (!seen_info || seen_topology) {
          return fail(path + ": misplaced topology block");
        }
        if (!DecodeTopology(r, &out->topology)) {
          return fail(path + ": bad topology block");
        }
        seen_topology = true;
        break;
      case kBlockEvents:
        if (!seen_topology) return fail(path + ": events before topology");
        if (!DecodeEvents(r, &prev_time_bits, out)) {
          return fail(path + ": bad events block");
        }
        break;
      case kBlockActions:
        if (!seen_topology || seen_actions) {
          return fail(path + ": misplaced actions block");
        }
        if (!DecodeActions(r, &out->actions)) {
          return fail(path + ": bad actions block");
        }
        seen_actions = true;
        break;
      case kBlockSamples:
        if (!seen_topology || seen_samples) {
          return fail(path + ": misplaced samples block");
        }
        if (!DecodeSamples(r, &out->samples)) {
          return fail(path + ": bad samples block");
        }
        seen_samples = true;
        break;
      case kBlockEnd:
        if (!seen_topology) return fail(path + ": end before topology");
        if (len != 0) return fail(path + ": bad end block");
        if (p != limit) {
          return fail(path + ": trailing garbage after end block");
        }
        return true;
      default:
        return fail(path + ": unknown block type " + std::to_string(type));
    }
  }
}

// --- SnapshotTopology ---

CaptureTopology SnapshotTopology(ClusterHarness& harness) {
  CaptureTopology topo;
  for (const auto& server : harness.resources().servers()) {
    const PhysicalServer::Options& o = server->options();
    CaptureServerSpec s;
    s.cores = o.cores;
    s.memory_pages = o.memory_pages;
    s.random_read_seconds = o.disk.random_read_seconds;
    s.extent_read_seconds = o.disk.extent_read_seconds;
    s.page_write_seconds = o.disk.page_write_seconds;
    topo.servers.push_back(s);
  }
  for (const auto& scheduler : harness.schedulers()) {
    topo.apps.push_back(scheduler->app());
  }
  for (Replica* replica : harness.resources().AllReplicas()) {
    CaptureReplicaSpec rep;
    rep.id = replica->id();
    rep.server = replica->server().id();
    rep.pool_pages = replica->engine().pool().capacity();
    rep.engine_seed = replica->engine().options().seed;
    topo.replicas.push_back(rep);
  }
  for (const auto& scheduler : harness.schedulers()) {
    CapturePlacement pl;
    pl.app = scheduler->app().id;
    for (const Replica* r : scheduler->replicas()) {
      pl.replica_ids.push_back(r->id());
    }
    topo.placements.push_back(std::move(pl));
  }
  return topo;
}

}  // namespace fglb
