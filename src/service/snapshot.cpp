#include "service/snapshot.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "faultsim/fault_plan.hpp"

namespace echelon::service {

namespace {

// Section tags, in required stream order.
enum : std::uint32_t {
  kConfigTag = 1,
  kArrivalsTag = 2,
  kGeneratorTag = 3,
  kServiceTag = 4,
  kVerifyTag = 5,
  kTelemetryTag = 6,
  kEndTag = 0xFFFFFFFFu,
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Little-endian buffer writer / bounds-checked reader
// ---------------------------------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(const char* data, std::size_t n) { buf_.append(data, n); }

  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }

 private:
  std::string buf_;
};

class Reader {
 public:
  Reader(const char* data, std::size_t size, std::string where)
      : data_(data), size_(size), where_(std::move(where)) {}

  [[nodiscard]] std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] double f64(const char* what) {
    return std::bit_cast<double>(u64(what));
  }
  [[nodiscard]] std::string str(const char* what) {
    const std::uint64_t n = u64(what);
    if (n > remaining()) {
      throw SnapshotError("snapshot: " + where_ + ": string length " +
                          std::to_string(n) + " for " + what +
                          " exceeds the " + std::to_string(remaining()) +
                          " bytes left at offset " + std::to_string(pos_));
    }
    std::string s(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  void expect_exhausted(const char* what) const {
    if (pos_ != size_) {
      throw SnapshotError("snapshot: " + where_ + ": " +
                          std::to_string(size_ - pos_) +
                          " trailing bytes after " + what);
    }
  }

 private:
  void need(std::size_t n, const char* what) {
    if (size_ - pos_ < n) {
      throw SnapshotError("snapshot: " + where_ + ": truncated reading " +
                          what + " at offset " + std::to_string(pos_) +
                          " (need " + std::to_string(n) + ", have " +
                          std::to_string(size_ - pos_) + ")");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string where_;
};

// ---------------------------------------------------------------------------
// TraceConfig payload
// ---------------------------------------------------------------------------

void put_gpu(Writer& w, const workload::GpuSpec& g) {
  w.str(g.name);
  w.f64(g.peak_flops);
  w.f64(g.efficiency);
}

workload::GpuSpec get_gpu(Reader& r) {
  workload::GpuSpec g;
  g.name = r.str("gpu.name");
  g.peak_flops = r.f64("gpu.peak_flops");
  g.efficiency = r.f64("gpu.efficiency");
  return g;
}

void put_trace_config(Writer& w, const cluster::TraceConfig& c) {
  w.u32(static_cast<std::uint32_t>(c.num_jobs));
  w.f64(c.arrival_rate);
  w.u64(c.seed);
  w.u64(c.paradigm_weights.size());
  for (const double x : c.paradigm_weights) w.f64(x);
  w.u64(c.rank_choices.size());
  for (const int x : c.rank_choices) w.u32(static_cast<std::uint32_t>(x));
  w.u32(static_cast<std::uint32_t>(c.min_layers));
  w.u32(static_cast<std::uint32_t>(c.max_layers));
  w.u32(static_cast<std::uint32_t>(c.min_width));
  w.u32(static_cast<std::uint32_t>(c.max_width));
  w.u32(static_cast<std::uint32_t>(c.batch));
  w.u32(static_cast<std::uint32_t>(c.iterations));
  put_gpu(w, c.gpu);
}

cluster::TraceConfig get_trace_config(Reader& r) {
  cluster::TraceConfig c;
  c.num_jobs = static_cast<int>(r.u32("trace.num_jobs"));
  c.arrival_rate = r.f64("trace.arrival_rate");
  c.seed = r.u64("trace.seed");
  const std::uint64_t weights = r.u64("trace.weight_count");
  c.paradigm_weights.clear();
  for (std::uint64_t i = 0; i < weights; ++i) {
    c.paradigm_weights.push_back(r.f64("trace.weight"));
  }
  const std::uint64_t choices = r.u64("trace.rank_choice_count");
  c.rank_choices.clear();
  for (std::uint64_t i = 0; i < choices; ++i) {
    c.rank_choices.push_back(static_cast<int>(r.u32("trace.rank_choice")));
  }
  c.min_layers = static_cast<int>(r.u32("trace.min_layers"));
  c.max_layers = static_cast<int>(r.u32("trace.max_layers"));
  c.min_width = static_cast<int>(r.u32("trace.min_width"));
  c.max_width = static_cast<int>(r.u32("trace.max_width"));
  c.batch = static_cast<int>(r.u32("trace.batch"));
  c.iterations = static_cast<int>(r.u32("trace.iterations"));
  c.gpu = get_gpu(r);
  return c;
}

// ---------------------------------------------------------------------------
// Verification image: named (field, bits) pairs
// ---------------------------------------------------------------------------

struct ImageBuilder {
  std::vector<std::pair<std::string, std::uint64_t>> fields;

  void add(std::string name, std::uint64_t bits) {
    fields.emplace_back(std::move(name), bits);
  }
  void addf(std::string name, double v) {
    add(std::move(name), std::bit_cast<std::uint64_t>(v));
  }
};

void build_verify_image(const ServiceLoop& loop, ImageBuilder& img) {
  const netsim::Simulator& sim = loop.sim();
  img.addf("sim.now", sim.now());
  img.addf("sim.epoch_time", sim.epoch_time());
  img.add("sim.flow_count", sim.flow_count());
  img.add("sim.active_flow_count", sim.active_flow_count());
  img.add("sim.accounting_generation", sim.accounting_generation());
  img.add("sim.control_invocations", sim.control_invocations());
  img.add("sim.worker_count", sim.worker_count());

  img.add("events.size", sim.events().size());
  img.add("events.scheduled_seq", sim.events().scheduled_seq());
  // Order-insensitive fold over pending (at, seq) keys: callbacks are
  // opaque, but the pending key multiset pins the queue's future behaviour.
  std::uint64_t qdigest = 0;
  sim.events().for_each_pending([&](SimTime at, std::uint64_t seq) {
    qdigest += fnv1a_word(
        fnv1a_word(kFnvOffset, std::bit_cast<std::uint64_t>(at)), seq);
  });
  img.add("events.digest", qdigest);
  img.add("completion_heap.digest", sim.completion_heap_digest());

  const netsim::RateAllocator::Stats& as = sim.alloc_stats();
  img.add("alloc.passes", as.passes);
  img.add("alloc.explicit_passes", as.explicit_passes);
  img.add("alloc.components", as.components);
  img.add("alloc.components_filled", as.components_filled);
  img.add("alloc.classes", as.classes);
  img.add("alloc.class_members", as.class_members);

  const netsim::SchedStats& ss = loop.scheduler().sched_stats();
  img.add("sched.passes", ss.passes);
  img.add("sched.full_passes", ss.full_passes);

  const topology::RouteTable::Stats& rs = sim.routes().stats();
  img.add("routes.size", sim.routes().size());
  img.add("routes.lookups", rs.lookups);
  img.add("routes.hits", rs.hits);
  img.add("routes.computations", rs.computations);
  img.add("routes.unreachable", rs.unreachable);

  img.add("registry.size", loop.registry().size());
  img.add("registry.released", loop.registry().released());
  img.addf("registry.total_tardiness", loop.registry().total_tardiness());
  img.addf("registry.weighted_total_tardiness",
           loop.registry().weighted_total_tardiness());

  const faultsim::FaultInjector* inj = loop.injector();
  img.add("fault.present", inj != nullptr ? 1 : 0);
  if (inj != nullptr) {
    const faultsim::FaultSummary& fs = inj->summary();
    img.add("fault.events_fired", fs.events_fired);
    img.add("fault.reroutes", fs.reroutes);
    img.add("fault.parks", fs.parks);
    img.add("fault.retries", fs.retries);
    img.add("fault.resumes", fs.resumes);
    img.add("fault.abandoned", fs.abandoned);
    img.addf("fault.downtime", fs.downtime);
  }

  img.add("service.steps", loop.steps_executed());
  img.add("service.tick_index", loop.tick_index());
  img.add("service.control_ticks", loop.control_ticks());
  img.add("service.running", loop.running());
  img.add("service.completed", loop.completed());
  img.add("service.admitted", loop.admitted_count());
  img.add("service.queued", loop.queued_count());
  img.add("service.rejected", loop.rejected_count());
  img.add("service.queue_depth", loop.queue_depth());
  img.add("service.launched", loop.launched());
  img.add("service.next_host", loop.next_host_cursor());
  img.addf("service.last_arrival_at", loop.last_arrival_at());

  constexpr std::size_t kChunk = netsim::Simulator::kFlowChunk;
  for (std::size_t i = 0; i < sim.flow_count(); ++i) {
    if (!sim.flow_resident(FlowId{i})) {
      // Released chunk: its records are gone, and the digest the simulator
      // folded as each of them completed stands in for their entries.
      const std::size_t chunk = i / kChunk;
      img.add("flow_chunk[" + std::to_string(chunk) + "].digest",
              sim.flow_chunk_digest(chunk));
      i = (chunk + 1) * kChunk - 1;
      continue;
    }
    const netsim::Flow& f = sim.flow(FlowId{i});
    const std::string p = "flow[" + std::to_string(i) + "].";
    img.add(p + "state", static_cast<std::uint64_t>(f.state));
    img.add(p + "entered", f.entered ? 1 : 0);
    img.addf(p + "remaining", f.remaining);
    img.addf(p + "rate", f.rate);
    img.addf(p + "start_time", f.start_time);
    img.addf(p + "finish_time", f.finish_time);
    img.addf(p + "weight", f.weight);
    img.add(p + "has_rate_cap", f.rate_cap.has_value() ? 1 : 0);
    img.addf(p + "rate_cap", f.rate_cap.value_or(-1.0));
    img.add(p + "route",
            f.route.valid() ? f.route.value() : ~std::uint64_t{0});
    std::uint64_t pdigest = kFnvOffset;
    for (const LinkId link : f.path) {
      pdigest = fnv1a_word(pdigest, link.value());
    }
    img.add(p + "path_len", f.path.size());
    img.add(p + "path_digest", pdigest);
  }
}

// Telemetry state (except the flight ring, below) is rebuilt by the
// replay -- it is a pure function of config + arrivals -- so this image pins
// the rebuild bit-for-bit, including the exact Prometheus exposition bytes
// a flush would produce.
void build_telemetry_image(const ServiceLoop& loop, ImageBuilder& img) {
  img.add("telemetry.flushes", loop.telemetry_flushes());
  img.add("telemetry.flush_index", loop.flush_index());
  img.add("telemetry.faults_seen", loop.faults_seen());
  img.add("telemetry.deadline_at_risk", loop.deadline_at_risk_count());
  const SloTracker* slo = loop.slo();
  img.add("telemetry.slo.present", slo != nullptr ? 1 : 0);
  img.add("telemetry.slo.digest", slo != nullptr ? slo->digest() : 0);
  img.add("telemetry.flight.present", loop.flight() != nullptr ? 1 : 0);
  const std::string prom = loop.prom_exposition();
  img.add("telemetry.prom.size", prom.size());
  img.add("telemetry.prom.digest", fnv1a(prom.data(), prom.size()));
}

// The flight ring is the one piece of telemetry state replay cannot
// re-derive: earlier periodic saves injected kSnapshot markers into the
// original run's ring, and replay (which never snapshots) would rebuild a
// ring without them. It is serialized verbatim and restored by overwrite.
void put_flight_ring(Writer& w, const obs::FlightRecorder* fr) {
  w.u8(fr != nullptr ? 1 : 0);
  if (fr == nullptr) return;
  w.u64(fr->capacity());
  w.u64(fr->recorded());
  w.u32(static_cast<std::uint32_t>(obs::kFlightKindCount));
  for (int k = 0; k < obs::kFlightKindCount; ++k) {
    w.u64(fr->count(static_cast<obs::FlightKind>(k)));
  }
  const std::vector<obs::FlightEvent> events = fr->events();
  w.u64(events.size());
  for (const obs::FlightEvent& ev : events) {
    w.u32(static_cast<std::uint32_t>(ev.kind));
    w.f64(ev.t);
    w.u64(ev.a);
    w.u64(ev.b);
    w.str(ev.note);
  }
  w.u64(fr->ring_digest());
}

void get_flight_ring(Reader& r, ServiceLoop& loop) {
  const bool present = r.u8("telemetry.flight.present") != 0;
  obs::FlightRecorder* fr = loop.mutable_flight();
  if (!present) {
    if (fr != nullptr) {
      throw SnapshotError(
          "snapshot telemetry: restored loop has a flight recorder but the "
          "snapshot recorded none");
    }
    return;
  }
  if (fr == nullptr) {
    throw SnapshotError(
        "snapshot telemetry: snapshot carries a flight ring but the "
        "restored loop has no recorder");
  }
  const std::uint64_t capacity = r.u64("telemetry.flight.capacity");
  if (capacity != fr->capacity()) {
    throw SnapshotError("snapshot telemetry: flight ring capacity " +
                        std::to_string(capacity) +
                        " does not match the configured " +
                        std::to_string(fr->capacity()));
  }
  const std::uint64_t recorded = r.u64("telemetry.flight.recorded");
  const std::uint32_t kind_count = r.u32("telemetry.flight.kind_count");
  if (kind_count != static_cast<std::uint32_t>(obs::kFlightKindCount)) {
    throw SnapshotError("snapshot telemetry: flight ring has " +
                        std::to_string(kind_count) + " event kinds, built " +
                        std::to_string(obs::kFlightKindCount));
  }
  std::vector<std::uint64_t> counts;
  for (std::uint32_t k = 0; k < kind_count; ++k) {
    counts.push_back(r.u64("telemetry.flight.count"));
  }
  const std::uint64_t n = r.u64("telemetry.flight.event_count");
  if (n > capacity) {
    throw SnapshotError("snapshot telemetry: flight ring holds " +
                        std::to_string(n) + " events, more than capacity " +
                        std::to_string(capacity));
  }
  std::vector<obs::FlightEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::FlightEvent ev;
    const std::uint32_t kind = r.u32("telemetry.flight.kind");
    if (kind >= static_cast<std::uint32_t>(obs::kFlightKindCount)) {
      throw SnapshotError("snapshot telemetry: flight event kind " +
                          std::to_string(kind) + " is out of range");
    }
    ev.kind = static_cast<obs::FlightKind>(kind);
    ev.t = r.f64("telemetry.flight.t");
    ev.a = r.u64("telemetry.flight.a");
    ev.b = r.u64("telemetry.flight.b");
    ev.note = r.str("telemetry.flight.note");
    events.push_back(std::move(ev));
  }
  const std::uint64_t digest = r.u64("telemetry.flight.digest");
  fr->restore(recorded, counts, std::move(events));
  if (fr->ring_digest() != digest) {
    throw SnapshotError(
        "snapshot telemetry: restored flight ring digest mismatch -- the "
        "serialized ring did not round-trip");
  }
}

void put_image(Writer& w, const ImageBuilder& img) {
  w.u64(img.fields.size());
  for (const auto& [name, bits] : img.fields) {
    w.str(name);
    w.u64(bits);
  }
}

// Compares a saved image against the restored loop's recomputed one.
void verify_image(Reader& r, const ImageBuilder& fresh, const char* what) {
  const std::uint64_t saved_count = r.u64("verify.field_count");
  if (saved_count != fresh.fields.size()) {
    throw SnapshotError("snapshot " + std::string(what) + ": image has " +
                        std::to_string(saved_count) +
                        " fields, restored state has " +
                        std::to_string(fresh.fields.size()));
  }
  for (std::uint64_t i = 0; i < saved_count; ++i) {
    const std::string name = r.str("verify.field_name");
    const std::uint64_t bits = r.u64("verify.field_bits");
    const auto& [fresh_name, fresh_bits] = fresh.fields[i];
    if (name != fresh_name) {
      throw SnapshotError("snapshot " + std::string(what) + ": field " +
                          std::to_string(i) + " is '" + name +
                          "' in the image but '" + fresh_name +
                          "' in the restored state");
    }
    if (bits != fresh_bits) {
      throw SnapshotError("snapshot " + std::string(what) + ": '" + name +
                          "' mismatch: saved 0x" + hex(bits) +
                          " restored 0x" + hex(fresh_bits) +
                          " -- restored run diverged from the checkpointed "
                          "one");
    }
  }
}

// ---------------------------------------------------------------------------
// Generator source
// ---------------------------------------------------------------------------

enum : std::uint8_t {
  kGenNone = 0,
  kGenPoisson = 1,
  kGenTraceFile = 2,
};

// Records how to rebuild the generator at stream start: its kind and
// construction arguments. The loop cannot swap generators once it has
// stepped, so this is the source every consumed arrival came from.
void put_generator(Writer& w, const ArrivalGenerator* gen) {
  if (gen == nullptr) {
    w.u8(kGenNone);
  } else if (const auto* p =
                 dynamic_cast<const PoissonArrivalGenerator*>(gen)) {
    w.u8(kGenPoisson);
    put_trace_config(w, p->config());
    w.u32(static_cast<std::uint32_t>(p->burst_every()));
  } else if (const auto* t =
                 dynamic_cast<const TraceFileArrivalReader*>(gen)) {
    w.u8(kGenTraceFile);
    w.str(t->path());
    w.u64(t->digest());
  } else {
    throw SnapshotError(std::string("snapshot: cannot save a loop fed by a '") +
                        gen->kind() +
                        "' arrival generator (restore rebuilds only poisson "
                        "and trace generators)");
  }
}

std::unique_ptr<ArrivalGenerator> get_generator(Reader& r) {
  std::unique_ptr<ArrivalGenerator> gen;
  const std::uint8_t kind = r.u8("generator.kind");
  switch (kind) {
    case kGenNone:
      break;
    case kGenPoisson: {
      const cluster::TraceConfig cfg = get_trace_config(r);
      const int burst = static_cast<int>(r.u32("generator.burst_every"));
      try {
        gen = std::make_unique<PoissonArrivalGenerator>(cfg, burst);
      } catch (const std::invalid_argument& e) {
        throw SnapshotError(std::string("snapshot: generator: ") + e.what());
      }
      break;
    }
    case kGenTraceFile: {
      const std::string path = r.str("generator.path");
      const std::uint64_t digest = r.u64("generator.digest");
      std::unique_ptr<TraceFileArrivalReader> reader;
      try {
        reader = std::make_unique<TraceFileArrivalReader>(path);
      } catch (const std::exception& e) {
        throw SnapshotError("snapshot: arrival trace " + path + ": " +
                            e.what());
      }
      if (reader->digest() != digest) {
        throw SnapshotError("snapshot: arrival trace " + path +
                            " changed since the snapshot was saved (digest 0x" +
                            hex(reader->digest()) + ", recorded 0x" +
                            hex(digest) + ")");
      }
      gen = std::move(reader);
      break;
    }
    default:
      throw SnapshotError("snapshot: unknown generator kind " +
                          std::to_string(kind));
  }
  r.expect_exhausted("generator section");
  return gen;
}

void put_section(Writer& w, std::uint32_t tag, const std::string& payload) {
  w.u32(tag);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

std::string save_snapshot(const ServiceLoop& loop) {
  Writer out;
  out.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.u32(kSnapshotVersion);

  {
    Writer w;
    const ServiceConfig& c = loop.config();
    w.u32(static_cast<std::uint32_t>(c.scheduler));
    w.u32(static_cast<std::uint32_t>(c.fabric));
    w.u32(static_cast<std::uint32_t>(c.hosts));
    w.f64(c.port_capacity);
    w.f64(c.oversubscription);
    w.u32(static_cast<std::uint32_t>(c.admission.policy));
    w.u64(c.admission.max_running);
    w.u64(c.admission.queue_cap);
    w.f64(c.admission.tardiness_limit);
    w.str(c.fault_plan != nullptr ? faultsim::serialize(*c.fault_plan)
                                  : std::string{});
    const TelemetryConfig& tc = c.telemetry;
    w.f64(tc.metrics_every);
    w.u64(tc.flightrec_capacity);
    w.u8(tc.profile ? 1 : 0);
    w.f64(tc.slo.window);
    w.u32(static_cast<std::uint32_t>(tc.slo.objectives.size()));
    for (const SloObjective& o : tc.slo.objectives) {
      w.u32(static_cast<std::uint32_t>(o.kind));
      w.f64(o.threshold);
      w.f64(o.budget);
    }
    w.u8(c.record_flow_finish ? 1 : 0);
    put_section(out, kConfigTag, w.take());
  }
  {
    Writer w;
    w.u64(loop.journal().size());
    for (const AdmissionOutcome o : loop.journal()) {
      w.u8(static_cast<std::uint8_t>(o));
    }
    put_section(out, kArrivalsTag, w.take());
  }
  {
    Writer w;
    put_generator(w, loop.generator());
    put_section(out, kGeneratorTag, w.take());
  }
  {
    Writer w;
    w.u64(loop.steps_executed());
    put_section(out, kServiceTag, w.take());
  }
  {
    Writer w;
    ImageBuilder img;
    build_verify_image(loop, img);
    put_image(w, img);
    put_section(out, kVerifyTag, w.take());
  }
  {
    Writer w;
    ImageBuilder img;
    build_telemetry_image(loop, img);
    put_image(w, img);
    put_flight_ring(w, loop.flight());
    put_section(out, kTelemetryTag, w.take());
  }

  out.u32(kEndTag);
  const std::uint64_t checksum =
      fnv1a(out.buffer().data(), out.buffer().size());
  out.u64(checksum);
  return out.take();
}

void save_snapshot_file(const ServiceLoop& loop, const std::string& path) {
  const std::string bytes = save_snapshot(loop);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError("snapshot: cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SnapshotError("snapshot: short write to " + path);
}

// ---------------------------------------------------------------------------
// restore
// ---------------------------------------------------------------------------

std::unique_ptr<ServiceLoop> restore_snapshot(const std::string& bytes,
                                              const RestoreOptions& options) {
  // Header and integrity first: nothing past this point sees unchecksummed
  // bytes, so a flipped bit can never parse into a half-restored loop.
  constexpr std::size_t kHeader = sizeof(kSnapshotMagic) + 4;
  constexpr std::size_t kTrailer = 4 + 8;  // end tag + checksum
  if (bytes.size() < kHeader + kTrailer) {
    throw SnapshotError("snapshot: " + std::to_string(bytes.size()) +
                        " bytes is too short to be a snapshot");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    throw SnapshotError("snapshot: bad magic (not an ECHSNAP1 snapshot)");
  }
  Reader header(bytes.data() + sizeof(kSnapshotMagic), 4, "header");
  const std::uint32_t version = header.u32("version");
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot: unsupported version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  {
    Reader tail(bytes.data() + bytes.size() - 8, 8, "trailer");
    const std::uint64_t recorded = tail.u64("checksum");
    const std::uint64_t actual = fnv1a(bytes.data(), bytes.size() - 8);
    if (recorded != actual) {
      std::ostringstream os;
      os << "snapshot: checksum mismatch (recorded 0x" << std::hex << recorded
         << ", computed 0x" << actual << ") -- corrupt or truncated";
      throw SnapshotError(os.str());
    }
  }

  Reader r(bytes.data() + kHeader, bytes.size() - kHeader - 8, "body");
  auto open_section = [&r](std::uint32_t want,
                           const char* name) -> std::string {
    const std::uint32_t tag = r.u32("section tag");
    if (tag != want) {
      throw SnapshotError("snapshot: expected section " + std::string(name) +
                          " (tag " + std::to_string(want) + "), found tag " +
                          std::to_string(tag));
    }
    const std::uint64_t len = r.u64("section length");
    if (len > r.remaining()) {
      throw SnapshotError("snapshot: section " + std::string(name) +
                          " claims " + std::to_string(len) +
                          " bytes but only " + std::to_string(r.remaining()) +
                          " remain");
    }
    std::string payload;
    for (std::uint64_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(r.u8("section payload")));
    }
    return payload;
  };

  // kConfig
  ServiceConfig config;
  std::optional<faultsim::FaultPlan> plan;
  {
    const std::string payload = open_section(kConfigTag, "config");
    Reader c(payload.data(), payload.size(), "config");
    const std::uint32_t sched = c.u32("config.scheduler");
    if (sched >
        static_cast<std::uint32_t>(cluster::SchedulerKind::kAalo)) {
      throw SnapshotError("snapshot: config.scheduler " +
                          std::to_string(sched) + " is out of range");
    }
    config.scheduler = static_cast<cluster::SchedulerKind>(sched);
    const std::uint32_t fabric = c.u32("config.fabric");
    if (fabric > static_cast<std::uint32_t>(cluster::FabricKind::kLeafSpine)) {
      throw SnapshotError("snapshot: config.fabric " +
                          std::to_string(fabric) + " is out of range");
    }
    config.fabric = static_cast<cluster::FabricKind>(fabric);
    config.hosts = static_cast<int>(c.u32("config.hosts"));
    config.port_capacity = c.f64("config.port_capacity");
    config.oversubscription = c.f64("config.oversubscription");
    const std::uint32_t policy = c.u32("config.admission.policy");
    if (policy >
        static_cast<std::uint32_t>(AdmissionPolicy::kTardinessAware)) {
      throw SnapshotError("snapshot: config.admission.policy " +
                          std::to_string(policy) + " is out of range");
    }
    config.admission.policy = static_cast<AdmissionPolicy>(policy);
    config.admission.max_running = c.u64("config.admission.max_running");
    config.admission.queue_cap = c.u64("config.admission.queue_cap");
    config.admission.tardiness_limit =
        c.f64("config.admission.tardiness_limit");
    const std::string plan_text = c.str("config.fault_plan");
    config.telemetry.metrics_every = c.f64("config.telemetry.metrics_every");
    config.telemetry.flightrec_capacity =
        c.u64("config.telemetry.flightrec_capacity");
    config.telemetry.profile = c.u8("config.telemetry.profile") != 0;
    config.telemetry.slo.window = c.f64("config.telemetry.slo.window");
    const std::uint32_t slo_count =
        c.u32("config.telemetry.slo.objective_count");
    for (std::uint32_t i = 0; i < slo_count; ++i) {
      SloObjective o;
      const std::uint32_t kind = c.u32("config.telemetry.slo.kind");
      if (kind >= static_cast<std::uint32_t>(kSloKindCount)) {
        throw SnapshotError("snapshot: SLO objective kind " +
                            std::to_string(kind) + " is out of range");
      }
      o.kind = static_cast<SloKind>(kind);
      o.threshold = c.f64("config.telemetry.slo.threshold");
      o.budget = c.f64("config.telemetry.slo.budget");
      config.telemetry.slo.objectives.push_back(o);
    }
    config.record_flow_finish = c.u8("config.record_flow_finish") != 0;
    c.expect_exhausted("config section");
    if (!plan_text.empty()) {
      try {
        plan = faultsim::parse_fault_plan(plan_text);
      } catch (const std::invalid_argument& e) {
        throw SnapshotError(
            std::string("snapshot: embedded fault plan failed to parse: ") +
            e.what());
      }
    }
  }

  // kArrivals
  std::vector<AdmissionOutcome> journal;
  {
    const std::string payload = open_section(kArrivalsTag, "arrivals");
    Reader a(payload.data(), payload.size(), "arrivals");
    const std::uint64_t count = a.u64("journal.count");
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint8_t outcome = a.u8("journal.outcome");
      if (outcome > static_cast<std::uint8_t>(AdmissionOutcome::kRejected)) {
        throw SnapshotError("snapshot: journal entry " + std::to_string(i) +
                            " has out-of-range outcome " +
                            std::to_string(outcome));
      }
      journal.push_back(static_cast<AdmissionOutcome>(outcome));
    }
    a.expect_exhausted("arrivals section");
  }

  // kGenerator
  std::unique_ptr<ArrivalGenerator> generator;
  {
    const std::string payload = open_section(kGeneratorTag, "generator");
    Reader g(payload.data(), payload.size(), "generator");
    generator = get_generator(g);
  }

  // kService
  std::uint64_t target_steps = 0;
  {
    const std::string payload = open_section(kServiceTag, "service");
    Reader s(payload.data(), payload.size(), "service");
    target_steps = s.u64("service.steps");
    s.expect_exhausted("service section");
  }

  // Rebuild + replay: the rebuilt generator starts its stream over and the
  // identical step loop pulls the same arrivals again, cross-checking each
  // admission decision against the journal (dark: observability attaches
  // only after the state is re-established). The replay leaves the
  // generator and the fetched-but-unconsumed arrival where the original run
  // had them.
  auto loop = std::make_unique<ServiceLoop>(config, std::move(plan));
  loop->set_generator(std::move(generator));
  loop->begin_replay(journal);
  while (loop->steps_executed() < target_steps) {
    if (!loop->step()) {
      throw SnapshotError(
          "snapshot replay underran: loop went idle after " +
          std::to_string(loop->steps_executed()) + " of " +
          std::to_string(target_steps) +
          " steps -- journal and step counter disagree");
    }
  }
  loop->end_replay();
  if (loop->journal().size() != journal.size()) {
    throw SnapshotError("snapshot replay consumed " +
                        std::to_string(loop->journal().size()) +
                        " arrivals but the journal holds " +
                        std::to_string(journal.size()));
  }

  // kVerify: bitwise comparison of the replayed state against the image.
  {
    const std::string payload = open_section(kVerifyTag, "verify");
    Reader v(payload.data(), payload.size(), "verify");
    ImageBuilder fresh;
    build_verify_image(*loop, fresh);
    verify_image(v, fresh, "verify");
    v.expect_exhausted("verify image");
  }

  // kTelemetry: the replay rebuilt the telemetry state from config +
  // arrivals; pin it (flush counters, SLO window, exposition bytes) against
  // what the checkpointed run held, then restore the flight ring verbatim
  // (replay cannot reproduce earlier saves' kSnapshot markers).
  {
    const std::string payload = open_section(kTelemetryTag, "telemetry");
    Reader t(payload.data(), payload.size(), "telemetry");
    ImageBuilder fresh;
    build_telemetry_image(*loop, fresh);
    verify_image(t, fresh, "telemetry");
    get_flight_ring(t, *loop);
    t.expect_exhausted("telemetry section");
  }

  const std::uint32_t end_tag = r.u32("end tag");
  if (end_tag != kEndTag) {
    throw SnapshotError("snapshot: missing end tag (found " +
                        std::to_string(end_tag) + ")");
  }
  r.expect_exhausted("snapshot body");

  loop->attach_observability(options.trace_sink, options.trace_detail,
                             options.metrics);
  loop->attach_telemetry_outputs(options.telemetry);
  return loop;
}

std::unique_ptr<ServiceLoop> restore_snapshot_file(
    const std::string& path, const RestoreOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return restore_snapshot(buf.str(), options);
}

}  // namespace echelon::service
