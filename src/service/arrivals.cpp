#include "service/arrivals.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/parse.hpp"

namespace echelon::service {

namespace {

workload::Paradigm paradigm_from_string(const std::string& s, int lineno) {
  using workload::Paradigm;
  for (const Paradigm p :
       {Paradigm::kDpAllReduce, Paradigm::kDpPs, Paradigm::kPipeline,
        Paradigm::kTensor, Paradigm::kFsdp, Paradigm::kExpert}) {
    if (s == workload::to_string(p)) return p;
  }
  throw std::invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": unknown paradigm '" + s + "'");
}

const char* pp_schedule_name(workload::PipelineSchedule s) noexcept {
  return s == workload::PipelineSchedule::kGpipe ? "gpipe" : "1f1b";
}

workload::PipelineSchedule pp_schedule_from_string(const std::string& s,
                                                   int lineno) {
  if (s == "gpipe") return workload::PipelineSchedule::kGpipe;
  if (s == "1f1b") return workload::PipelineSchedule::kOneFOneB;
  throw std::invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": unknown pipeline schedule '" + s + "'");
}

[[noreturn]] void fail(int lineno, const std::string& what) {
  throw std::invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": " + what);
}

// Reads one expected keyword token; loud mismatch diagnostics.
void expect_key(std::istringstream& ls, const char* key, int lineno) {
  std::string tok;
  if (!(ls >> tok) || tok != key) {
    fail(lineno, "expected '" + std::string(key) + "', got '" + tok + "'");
  }
}

// Reads `key` and its value, one whole token (common/parse.hpp): "4x",
// "-1" for an unsigned field, "nan" and "inf" all fail.
template <typename T>
T read_value(std::istringstream& ls, const char* key, int lineno) {
  expect_key(ls, key, lineno);
  std::string tok;
  ls >> tok;
  const auto v = parse_number<T>(tok);
  if (!v) fail(lineno, std::string("malformed value for ") + key);
  return *v;
}

// read_value plus a range check: fails, naming the field, unless `ok(v)`;
// `range` says what the field must be ("> 0", ...).
template <typename T, typename Ok>
T read_checked(std::istringstream& ls, const char* key, int lineno, Ok ok,
               const char* range) {
  const T v = read_value<T>(ls, key, lineno);
  if (!ok(v)) fail(lineno, std::string(key) + " must be " + range);
  return v;
}
constexpr auto kAtLeastOne = [](int v) { return v >= 1; };
constexpr auto kNonNegative = [](double v) { return v >= 0.0; };
constexpr auto kPositive = [](double v) { return v > 0.0; };

// The line must end after its last field.
void expect_end(std::istringstream& ls, int lineno) {
  if (std::string tok; ls >> tok) {
    fail(lineno, "unexpected trailing token '" + tok + "'");
  }
}

// Name fields sit last on their line and run to end-of-line (names may
// contain spaces), mirroring fault_plan's free-tail convention.
std::string read_name_tail(std::istringstream& ls, int lineno) {
  expect_key(ls, "name", lineno);
  std::string rest;
  std::getline(ls, rest);
  if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
  if (rest.empty()) fail(lineno, "empty name");
  return rest;
}

std::string next_line(std::istream& in, int& lineno) {
  std::string line;
  if (!std::getline(in, line)) {
    fail(lineno, "unexpected end of trace");
  }
  ++lineno;
  return line;
}

void put_f(std::ostream& out, double v) {
  out << std::setprecision(17) << v;
}

}  // namespace

// ---------------------------------------------------------------------------
// PoissonArrivalGenerator
// ---------------------------------------------------------------------------

PoissonArrivalGenerator::PoissonArrivalGenerator(
    const cluster::TraceConfig& config, int burst_every)
    : config_(config), burst_every_(burst_every), rng_(config.seed) {
  cluster::check_trace_config(config_);
}

std::optional<Arrival> PoissonArrivalGenerator::next() {
  if (emitted_ >= config_.num_jobs) return std::nullopt;

  // generate_trace's per-job draw, then the exponential gap consumed AFTER
  // the arrival instant is recorded: this stream == generate_trace(config)
  // element-for-element (tests/test_service.cpp pins it).
  cluster::JobSpec spec = cluster::draw_job(config_, rng_);
  spec.arrival = clock_;

  const double gap = rng_.exponential(config_.arrival_rate);
  ++emitted_;
  // Burst knob: every Nth job's *successor* arrives at the same instant --
  // the gap draw above was still consumed, so the job parameter stream is
  // untouched and burst_every == 0 reproduces generate_trace exactly.
  if (burst_every_ < 2 || emitted_ % burst_every_ != 0) {
    clock_ += gap;
  }
  return Arrival{spec.arrival, std::move(spec)};
}

// ---------------------------------------------------------------------------
// Trace-file serialization
// ---------------------------------------------------------------------------

void write_arrival_trace(std::ostream& out,
                         const std::vector<Arrival>& arrivals) {
  out << "# echelonflow arrival trace v1\n";
  out << "arrivals " << arrivals.size() << "\n";
  for (const Arrival& a : arrivals) {
    const cluster::JobSpec& j = a.job;
    out << "arrival ";
    put_f(out, a.at);
    out << " paradigm " << workload::to_string(j.paradigm) << " ranks "
        << j.ranks << " iterations " << j.iterations << " buckets "
        << j.buckets << " micro " << j.micro_batches << " ppsched "
        << pp_schedule_name(j.pp_schedule) << " jitter ";
    put_f(out, j.compute_jitter);
    out << " jseed " << j.jitter_seed << " submit ";
    put_f(out, j.arrival);
    out << "\n";
    out << "gpu peak ";
    put_f(out, j.gpu.peak_flops);
    out << " eff ";
    put_f(out, j.gpu.efficiency);
    out << " name " << j.gpu.name << "\n";
    out << "model bpe ";
    put_f(out, j.model.bytes_per_element);
    out << " layers " << j.model.layers.size() << " name " << j.model.name
        << "\n";
    for (const workload::LayerSpec& l : j.model.layers) {
      out << "layer params " << l.params << " act ";
      put_f(out, l.activation_bytes);
      out << " fwd ";
      put_f(out, l.fwd_flops);
      out << " bwd ";
      put_f(out, l.bwd_flops);
      out << " name " << l.name << "\n";
    }
  }
}

std::string serialize_arrivals(const std::vector<Arrival>& arrivals) {
  std::ostringstream out;
  write_arrival_trace(out, arrivals);
  return out.str();
}

std::vector<Arrival> parse_arrival_trace(std::istream& in) {
  int lineno = 0;
  std::string line = next_line(in, lineno);
  if (line != "# echelonflow arrival trace v1") {
    fail(lineno, "bad header '" + line + "'");
  }
  line = next_line(in, lineno);
  std::istringstream count_ls(line);
  const auto count = read_value<std::uint64_t>(count_ls, "arrivals", lineno);
  expect_end(count_ls, lineno);

  // Counts come from the file, so nothing is reserved from them.
  std::vector<Arrival> arrivals;
  for (std::uint64_t i = 0; i < count; ++i) {
    Arrival a;
    cluster::JobSpec& j = a.job;
    {
      std::istringstream ls(next_line(in, lineno));
      a.at = read_value<double>(ls, "arrival", lineno);
      expect_key(ls, "paradigm", lineno);
      std::string pname;
      if (!(ls >> pname)) fail(lineno, "missing paradigm");
      j.paradigm = paradigm_from_string(pname, lineno);
      j.ranks = read_checked<int>(ls, "ranks", lineno, kAtLeastOne, ">= 1");
      j.iterations =
          read_checked<int>(ls, "iterations", lineno, kAtLeastOne, ">= 1");
      j.buckets = read_checked<int>(ls, "buckets", lineno, kAtLeastOne, ">= 1");
      j.micro_batches =
          read_checked<int>(ls, "micro", lineno, kAtLeastOne, ">= 1");
      expect_key(ls, "ppsched", lineno);
      std::string sname;
      if (!(ls >> sname)) fail(lineno, "missing ppsched");
      j.pp_schedule = pp_schedule_from_string(sname, lineno);
      j.compute_jitter =
          read_checked<double>(ls, "jitter", lineno, kNonNegative, ">= 0");
      j.jitter_seed = read_value<std::uint64_t>(ls, "jseed", lineno);
      j.arrival =
          read_checked<double>(ls, "submit", lineno, kNonNegative, ">= 0");
      expect_end(ls, lineno);
    }
    {
      std::istringstream ls(next_line(in, lineno));
      expect_key(ls, "gpu", lineno);
      j.gpu.peak_flops =
          read_checked<double>(ls, "peak", lineno, kPositive, "> 0");
      j.gpu.efficiency = read_checked<double>(
          ls, "eff", lineno, [](double v) { return v > 0.0 && v <= 1.0; },
          "in (0, 1]");
      j.gpu.name = read_name_tail(ls, lineno);
    }
    std::uint64_t layer_count = 0;
    {
      std::istringstream ls(next_line(in, lineno));
      expect_key(ls, "model", lineno);
      j.model.bytes_per_element =
          read_checked<double>(ls, "bpe", lineno, kPositive, "> 0");
      layer_count = read_value<std::uint64_t>(ls, "layers", lineno);
      // Gradient buckets partition the layers, so there must be at least
      // one layer per bucket.
      if (layer_count < static_cast<std::uint64_t>(j.buckets)) {
        fail(lineno, "layers must be >= buckets (" +
                         std::to_string(j.buckets) + ")");
      }
      j.model.name = read_name_tail(ls, lineno);
    }
    for (std::uint64_t l = 0; l < layer_count; ++l) {
      std::istringstream ls(next_line(in, lineno));
      expect_key(ls, "layer", lineno);
      workload::LayerSpec spec;
      spec.params = read_value<std::uint64_t>(ls, "params", lineno);
      spec.activation_bytes =
          read_checked<double>(ls, "act", lineno, kNonNegative, ">= 0");
      spec.fwd_flops =
          read_checked<double>(ls, "fwd", lineno, kNonNegative, ">= 0");
      spec.bwd_flops =
          read_checked<double>(ls, "bwd", lineno, kNonNegative, ">= 0");
      spec.name = read_name_tail(ls, lineno);
      j.model.layers.push_back(std::move(spec));
    }
    arrivals.push_back(std::move(a));
  }
  for (std::string rest; std::getline(in, rest);) {
    ++lineno;
    if (rest.find_first_not_of(" \t\r") != std::string::npos) {
      fail(lineno, "content after the " + std::to_string(count) +
                       " declared arrivals");
    }
  }
  return arrivals;
}

std::vector<Arrival> parse_arrival_trace(const std::string& text) {
  std::istringstream in(text);
  return parse_arrival_trace(in);
}

// ---------------------------------------------------------------------------
// TraceFileArrivalReader
// ---------------------------------------------------------------------------

TraceFileArrivalReader::TraceFileArrivalReader(const std::string& path)
    : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open arrival trace: " + path);
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string text = bytes.str();
  digest_ = fnv1a(text.data(), text.size());
  arrivals_ = parse_arrival_trace(text);
}

std::optional<Arrival> TraceFileArrivalReader::next() {
  if (index_ >= arrivals_.size()) return std::nullopt;
  return arrivals_[index_++];
}

std::vector<Arrival> drain(ArrivalGenerator& gen) {
  std::vector<Arrival> out;
  while (auto a = gen.next()) out.push_back(std::move(*a));
  return out;
}

}  // namespace echelon::service
