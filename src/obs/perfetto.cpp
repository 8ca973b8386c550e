#include "obs/perfetto.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "topology/graph.hpp"

namespace echelon::obs {

namespace {

// --- emission helpers -------------------------------------------------------

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Streams traceEvents with the shared boilerplate (comma separation,
// event counting) factored out.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  // `fields` is the pre-rendered body of the JSON object (no braces).
  void emit(const std::string& fields) {
    if (count_ != 0) os_ << ',';
    os_ << "\n{" << fields << '}';
    ++count_;
  }

  std::size_t finish() {
    os_ << "\n]}\n";
    return count_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::ostream& os_;
  std::size_t count_ = 0;
};

std::string common_fields(std::string_view name, std::string_view ph,
                          std::string_view cat, std::uint64_t pid,
                          std::uint64_t tid, double ts) {
  std::string f = "\"name\":\"";
  append_json_escaped(f, name);
  f += "\",\"ph\":\"";
  f += ph;
  f += "\",\"cat\":\"";
  f += cat;
  f += "\",\"pid\":";
  f += std::to_string(pid);
  f += ",\"tid\":";
  f += std::to_string(tid);
  f += ",\"ts\":";
  f += fmt_double(ts);
  return f;
}

std::uint64_t pid_for_job(std::uint64_t job) {
  return job == TraceEvent::kNone ? 0 : job + 1;
}

// Thread ids inside a job process: flow groups first, workers offset into a
// distant band so the two id spaces cannot collide.
constexpr std::uint64_t kWorkerTidBase = 1u << 20;

std::uint64_t flow_tid(std::uint64_t group) {
  return group == TraceEvent::kNone ? 0 : group + 1;
}

std::uint64_t worker_tid(std::uint64_t worker) {
  return worker == TraceEvent::kNone ? kWorkerTidBase
                                     : kWorkerTidBase + worker + 1;
}

struct OpenSlice {
  double t = 0.0;
  std::uint64_t job = TraceEvent::kNone;
  std::uint64_t ctx = TraceEvent::kNone;
  bool open = false;
  bool started = false;  // slice time anchored at kFlowStart, not kFlowSubmit
};

std::string series_display_name(std::string_view name,
                                const topology::Topology* topo) {
  // "link.<id>.util" -> "src->dst util" when a topology is available.
  constexpr std::string_view kPrefix = "link.";
  if (topo == nullptr || name.substr(0, kPrefix.size()) != kPrefix) {
    return std::string(name);
  }
  const std::string_view rest = name.substr(kPrefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos) return std::string(name);
  std::uint64_t id = 0;
  for (const char c : rest.substr(0, dot)) {
    if (c < '0' || c > '9') return std::string(name);
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (id >= topo->link_count()) return std::string(name);
  const topology::Link& l = topo->links()[id];
  std::string out = topo->node(l.src).name;
  out += "->";
  out += topo->node(l.dst).name;
  out += ' ';
  out += rest.substr(dot + 1);
  return out;
}

}  // namespace

std::size_t write_perfetto_trace(std::ostream& os, const TraceRecorder& rec,
                                 const MetricsSnapshot* metrics,
                                 const PerfettoOptions& options) {
  const std::vector<TraceEvent> events = rec.events();
  const double scale = options.time_scale;

  // Pass 1: discover slice opens, track structure and the time horizon.
  std::unordered_map<std::uint64_t, OpenSlice> flow_open;
  std::unordered_map<std::uint64_t, OpenSlice> task_open;
  std::set<std::uint64_t> jobs;                       // ordered => stable M order
  std::map<std::uint64_t, std::set<std::uint64_t>> groups_by_job;
  std::map<std::uint64_t, std::set<std::uint64_t>> workers_by_job;
  double horizon = 0.0;
  for (const TraceEvent& ev : events) {
    horizon = std::max(horizon, ev.t);
    switch (ev.kind) {
      case TraceKind::kFlowSubmit:
      case TraceKind::kFlowStart: {
        OpenSlice& s = flow_open[ev.id];
        if (ev.kind == TraceKind::kFlowStart) {
          // The slice is anchored at the *first* network entry; the submit
          // time only serves as a fallback for flows parked at birth that
          // never start.
          if (!s.started) s.t = ev.t;
          s.started = true;
          s.open = true;
          s.job = ev.job;
          s.ctx = ev.ctx;
        } else if (!s.open) {
          s.t = ev.t;
          s.open = true;
          s.job = ev.job;
          s.ctx = ev.ctx;
        }
        jobs.insert(pid_for_job(ev.job));
        groups_by_job[pid_for_job(ev.job)].insert(flow_tid(ev.ctx));
        break;
      }
      case TraceKind::kTaskStart: {
        OpenSlice& s = task_open[ev.id];
        s.t = ev.t;
        s.job = ev.job;
        s.ctx = ev.ctx;
        s.open = true;
        jobs.insert(pid_for_job(ev.job));
        workers_by_job[pid_for_job(ev.job)].insert(worker_tid(ev.ctx));
        break;
      }
      default: break;
    }
  }

  EventWriter w(os);

  // --- metadata: process / thread names -------------------------------------
  const auto meta = [&](std::string_view what, std::uint64_t pid,
                        std::uint64_t tid, bool thread_level,
                        std::string_view value) {
    std::string f = "\"name\":\"";
    f += what;
    f += "\",\"ph\":\"M\",\"pid\":";
    f += std::to_string(pid);
    if (thread_level) {
      f += ",\"tid\":";
      f += std::to_string(tid);
    }
    f += ",\"args\":{\"name\":\"";
    append_json_escaped(f, value);
    f += "\"}";
    w.emit(f);
  };

  for (const std::uint64_t pid : jobs) {
    meta("process_name", pid, 0, false, "job " + std::to_string(pid - 1));
    for (const std::uint64_t tid : groups_by_job[pid]) {
      meta("thread_name", pid, tid, true,
           "group " + std::to_string(tid - 1));
    }
    for (const std::uint64_t tid : workers_by_job[pid]) {
      meta("thread_name", pid, tid, true,
           "worker " + std::to_string(tid - kWorkerTidBase - 1));
    }
  }
  meta("process_name", kControlPid, 0, false, "control plane");
  for (const TraceKind k :
       {TraceKind::kControlPass, TraceKind::kAllocPass, TraceKind::kFaultFired,
        TraceKind::kHeuristicRun, TraceKind::kReuseHit}) {
    meta("thread_name", kControlPid, static_cast<std::uint64_t>(k), true,
         to_string(k));
  }
  if (metrics != nullptr && !metrics->series.empty()) {
    bool any_sim = false;
    bool any_service = false;
    for (const MetricsSnapshot::Ser& ser : metrics->series) {
      (ser.name.rfind("service.", 0) == 0 ? any_service : any_sim) = true;
    }
    if (any_sim) meta("process_name", kCountersPid, 0, false, "counters");
    if (any_service) {
      meta("process_name", kServicePid, 0, false, "service control");
    }
  }

  // --- events, in recorded order --------------------------------------------
  const auto flow_name = [&](std::uint64_t id) {
    const std::string_view label = rec.flow_label(id);
    return label.empty() ? "flow " + std::to_string(id) : std::string(label);
  };
  const auto task_name = [&](std::uint64_t id) {
    const std::string_view label = rec.task_label(id);
    return label.empty() ? "task " + std::to_string(id) : std::string(label);
  };
  const auto instant = [&](const TraceEvent& ev, std::uint64_t pid,
                           std::uint64_t tid, std::string_view cat,
                           const std::string& name) {
    std::string f = common_fields(name, "i", cat, pid, tid, ev.t * scale);
    f += ",\"s\":\"t\",\"args\":{\"value\":";
    f += fmt_double(ev.value);
    f += '}';
    w.emit(f);
  };

  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceKind::kFlowSubmit:
        instant(ev, pid_for_job(ev.job), flow_tid(ev.ctx), "flow",
                "submit " + flow_name(ev.id));
        break;
      case TraceKind::kFlowStart:
        break;  // slice emitted at the matching finish
      case TraceKind::kFlowFinish: {
        const auto it = flow_open.find(ev.id);
        const double t0 = it != flow_open.end() && it->second.open
                              ? it->second.t
                              : ev.t;
        std::string f = common_fields(flow_name(ev.id), "X", "flow",
                                      pid_for_job(ev.job), flow_tid(ev.ctx),
                                      t0 * scale);
        f += ",\"dur\":";
        f += fmt_double(std::max(0.0, ev.t - t0) * scale);
        f += ",\"args\":{\"undelivered_bytes\":";
        f += fmt_double(ev.value);
        f += '}';
        w.emit(f);
        if (it != flow_open.end()) it->second.open = false;
        break;
      }
      case TraceKind::kFlowPark:
      case TraceKind::kFlowResume:
      case TraceKind::kFlowReroute:
      case TraceKind::kFlowAbandon:
        instant(ev, pid_for_job(ev.job), flow_tid(ev.ctx), "fault",
                std::string(to_string(ev.kind)) + " " + flow_name(ev.id));
        break;
      case TraceKind::kFlowRetry:
        // ctx carries the attempt number, not a group; pin retries to the
        // control plane's fault thread so the job track stays clean.
        instant(ev, kControlPid,
                static_cast<std::uint64_t>(TraceKind::kFaultFired), "fault",
                "retry " + flow_name(ev.id));
        break;
      case TraceKind::kTaskStart:
        break;  // slice emitted at the matching finish
      case TraceKind::kTaskFinish: {
        const auto it = task_open.find(ev.id);
        // kTaskFinish carries the duration; fall back to it when the start
        // event was dropped from the ring.
        const double t0 = it != task_open.end() && it->second.open
                              ? it->second.t
                              : std::max(0.0, ev.t - ev.value);
        std::string f = common_fields(task_name(ev.id), "X", "compute",
                                      pid_for_job(ev.job), worker_tid(ev.ctx),
                                      t0 * scale);
        f += ",\"dur\":";
        f += fmt_double(std::max(0.0, ev.t - t0) * scale);
        w.emit(f);
        if (it != task_open.end()) it->second.open = false;
        break;
      }
      case TraceKind::kControlPass:
      case TraceKind::kAllocPass:
      case TraceKind::kFaultFired:
      case TraceKind::kHeuristicRun:
      case TraceKind::kReuseHit:
        instant(ev, kControlPid, static_cast<std::uint64_t>(ev.kind),
                "control",
                std::string(to_string(ev.kind)) + " " + std::to_string(ev.id));
        break;
      case TraceKind::kCompFill:
      case TraceKind::kClassFill:
        break;  // per-component fill detail has no Perfetto track (yet)
    }
  }

  // --- close slices whose finish never arrived ------------------------------
  // Deterministic order: ascending entity id.
  const auto close_open = [&](std::unordered_map<std::uint64_t, OpenSlice>& m,
                              bool is_flow) {
    std::vector<std::pair<std::uint64_t, OpenSlice>> open;
    for (const auto& [id, s] : m) {
      if (s.open) open.emplace_back(id, s);
    }
    std::sort(open.begin(), open.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [id, s] : open) {
      std::string f = common_fields(
          is_flow ? flow_name(id) : task_name(id), "X",
          is_flow ? "flow" : "compute", pid_for_job(s.job),
          is_flow ? flow_tid(s.ctx) : worker_tid(s.ctx), s.t * scale);
      f += ",\"dur\":";
      f += fmt_double(std::max(0.0, horizon - s.t) * scale);
      f += ",\"args\":{\"unfinished\":1}";
      w.emit(f);
    }
  };
  close_open(flow_open, /*is_flow=*/true);
  close_open(task_open, /*is_flow=*/false);

  // --- counter tracks from the metrics snapshot -----------------------------
  if (metrics != nullptr) {
    std::uint64_t tid = 0;
    for (const MetricsSnapshot::Ser& ser : metrics->series) {
      const std::string display =
          series_display_name(ser.name, options.topology);
      const std::uint64_t pid = ser.name.rfind("service.", 0) == 0
                                    ? kServicePid
                                    : kCountersPid;
      for (const auto& [t, v] : ser.points) {
        std::string f =
            common_fields(display, "C", "counter", pid, tid, t * scale);
        f += ",\"args\":{\"value\":";
        f += fmt_double(v);
        f += '}';
        w.emit(f);
      }
      ++tid;
    }
  }

  return w.finish();
}

bool write_perfetto_trace_file(const std::string& path,
                               const TraceRecorder& rec,
                               const MetricsSnapshot* metrics,
                               const PerfettoOptions& options) {
  std::ofstream f(path);
  if (!f) return false;
  write_perfetto_trace(f, rec, metrics, options);
  return f.good();
}

// --- parser -----------------------------------------------------------------

namespace {

class MiniJson {
 public:
  explicit MiniJson(std::string text) : text_(std::move(text)) {}

  [[nodiscard]] ParsedTrace parse() {
    ParsedTrace out;
    skip_ws();
    if (!expect('{')) return fail(out, "expected top-level object");
    bool found = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      std::string key;
      if (!parse_string(&key)) return fail(out, "expected object key");
      skip_ws();
      if (!expect(':')) return fail(out, "expected ':'");
      skip_ws();
      if (key == "traceEvents") {
        if (!parse_events(&out)) return fail(out, error_);
        found = true;
      } else {
        if (!skip_value()) return fail(out, "bad value for key " + key);
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; break; }
      return fail(out, "expected ',' or '}'");
    }
    if (!found) return fail(out, "no traceEvents array");
    out.ok = true;
    return out;
  }

 private:
  static ParsedTrace fail(ParsedTrace& out, std::string why) {
    out.ok = false;
    out.error = std::move(why);
    out.events.clear();
    return out;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool expect(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;   // exporter only emits control chars this way
            *out += '?';
            break;
          default: *out += e;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool parse_number(double* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    *out = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  // Skips any value (string / number / object / array / literal).
  bool skip_value() {
    skip_ws();
    const char c = peek();
    if (c == '"') {
      std::string tmp;
      return parse_string(&tmp);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      int depth = 1;
      while (pos_ < text_.size() && depth > 0) {
        const char d = text_[pos_];
        if (d == '"') {
          std::string tmp;
          if (!parse_string(&tmp)) return false;
          continue;
        }
        if (d == c) ++depth;
        if (d == close) --depth;
        ++pos_;
      }
      return depth == 0;
    }
    // number / true / false / null
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']') {
      ++pos_;
    }
    return true;
  }

  bool parse_events(ParsedTrace* out) {
    if (!expect('[')) { error_ = "traceEvents is not an array"; return false; }
    while (true) {
      skip_ws();
      if (peek() == ']') { ++pos_; return true; }
      if (!parse_event(out)) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      error_ = "expected ',' or ']' in traceEvents";
      return false;
    }
  }

  bool parse_event(ParsedTrace* out) {
    skip_ws();
    if (!expect('{')) { error_ = "expected event object"; return false; }
    ParsedTraceEvent ev;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      std::string key;
      if (!parse_string(&key)) { error_ = "expected event key"; return false; }
      skip_ws();
      if (!expect(':')) { error_ = "expected ':' in event"; return false; }
      skip_ws();
      bool parsed = false;
      if (key == "name" || key == "ph" || key == "cat" || key == "s") {
        std::string v;
        if (!parse_string(&v)) { error_ = "bad string field"; return false; }
        if (key == "name") ev.name = std::move(v);
        else if (key == "ph") ev.ph = std::move(v);
        else if (key == "cat") ev.cat = std::move(v);
        parsed = true;
      } else if (key == "pid" || key == "tid" || key == "ts" || key == "dur") {
        double v = 0.0;
        if (!parse_number(&v)) { error_ = "bad number field"; return false; }
        if (key == "pid") ev.pid = static_cast<std::uint64_t>(v);
        else if (key == "tid") ev.tid = static_cast<std::uint64_t>(v);
        else if (key == "ts") ev.ts = v;
        else { ev.dur = v; ev.has_dur = true; }
        parsed = true;
      }
      if (!parsed && !skip_value()) {
        error_ = "bad value for event key " + key;
        return false;
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; break; }
      error_ = "expected ',' or '}' in event";
      return false;
    }
    out->events.push_back(std::move(ev));
    return true;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::size_t ParsedTrace::count_ph(std::string_view ph) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const ParsedTraceEvent& e) { return e.ph == ph; }));
}

std::size_t ParsedTrace::count_name(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const ParsedTraceEvent& e) { return e.name == name; }));
}

ParsedTrace parse_trace_event_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return MiniJson(buf.str()).parse();
}

}  // namespace echelon::obs
