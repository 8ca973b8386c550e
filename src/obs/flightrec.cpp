#include "obs/flightrec.hpp"

#include <bit>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/parse.hpp"

namespace echelon::obs {

namespace {

constexpr std::string_view kKindNames[kFlightKindCount] = {
    "admit", "queue", "reject", "launch", "complete",
    "fault", "flush", "snapshot", "error",
};

bool kind_from_name(std::string_view name, FlightKind& out) {
  for (int i = 0; i < kFlightKindCount; ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<FlightKind>(i);
      return true;
    }
  }
  return false;
}

// Splits the next space-delimited token off the front of `rest`; empty
// when none is left.
std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(' ');
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(begin);
  const std::string_view tok = rest.substr(0, rest.find(' '));
  rest.remove_prefix(tok.size());
  return tok;
}

std::string fmt_time(SimTime t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

}  // namespace

std::string_view flight_kind_name(FlightKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(FlightKind kind, SimTime t, std::uint64_t a,
                            std::uint64_t b, std::string note) {
  FlightEvent& slot = ring_[head_];
  slot.kind = kind;
  slot.t = t;
  slot.a = a;
  slot.b = b;
  slot.note = std::move(note);
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++recorded_;
  ++counts_[static_cast<std::size_t>(kind)];
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  for (auto& c : counts_) c = 0;
}

void FlightRecorder::restore(std::uint64_t recorded,
                             const std::vector<std::uint64_t>& counts,
                             std::vector<FlightEvent> events) {
  if (events.size() > ring_.size()) {
    throw std::invalid_argument(
        "FlightRecorder::restore: " + std::to_string(events.size()) +
        " events exceed ring capacity " + std::to_string(ring_.size()));
  }
  if (counts.size() != static_cast<std::size_t>(kFlightKindCount)) {
    throw std::invalid_argument(
        "FlightRecorder::restore: expected " +
        std::to_string(kFlightKindCount) + " per-kind counts, got " +
        std::to_string(counts.size()));
  }
  clear();
  size_ = events.size();
  head_ = size_ % ring_.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    ring_[i] = std::move(events[i]);
  }
  recorded_ = recorded;
  for (int i = 0; i < kFlightKindCount; ++i) {
    counts_[i] = counts[static_cast<std::size_t>(i)];
  }
}

std::uint64_t FlightRecorder::ring_digest() const noexcept {
  std::uint64_t h = fnv1a_word(kFnvOffset, recorded_);
  for (std::uint64_t c : counts_) h = fnv1a_word(h, c);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    const FlightEvent& ev = ring_[(start + i) % ring_.size()];
    h = fnv1a_word(h, static_cast<std::uint64_t>(ev.kind));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(ev.t));
    h = fnv1a_word(h, ev.a);
    h = fnv1a_word(h, ev.b);
    h = fnv1a(ev.note.data(), ev.note.size(), h);
    h = fnv1a_word(h, ev.note.size());
  }
  return h;
}

void FlightRecorder::dump(std::ostream& os) const {
  os << "ECHFLIGHT 1\n";
  os << "capacity " << ring_.size() << "\n";
  os << "recorded " << recorded_ << "\n";
  os << "counts";
  for (int i = 0; i < kFlightKindCount; ++i) {
    os << ' ' << kKindNames[i] << '=' << counts_[i];
  }
  os << "\n";
  for (const FlightEvent& ev : events()) {
    os << "E " << flight_kind_name(ev.kind) << ' ' << fmt_time(ev.t) << ' '
       << ev.a << ' ' << ev.b;
    if (!ev.note.empty()) os << ' ' << ev.note;
    os << "\n";
  }
  os << "END\n";
}

std::string FlightRecorder::dump_string() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

ParsedFlightDump parse_flight_dump(std::istream& is) {
  ParsedFlightDump out;
  std::string line;
  auto fail = [&out](std::string msg) {
    out.ok = false;
    out.error = std::move(msg);
    return out;
  };
  // N from a "<prefix>N" line, or nullopt.
  auto keyed = [&line](std::string_view prefix) {
    return std::string_view(line).starts_with(prefix)
               ? parse_number<std::uint64_t>(line.substr(prefix.size()))
               : std::nullopt;
  };

  if (!std::getline(is, line) || line != "ECHFLIGHT 1") {
    return fail("bad header: expected 'ECHFLIGHT 1'");
  }
  std::optional<std::uint64_t> capacity;
  if (!std::getline(is, line) || !(capacity = keyed("capacity "))) {
    return fail("bad capacity line");
  }
  out.capacity = *capacity;
  std::optional<std::uint64_t> recorded;
  if (!std::getline(is, line) || !(recorded = keyed("recorded "))) {
    return fail("bad recorded line");
  }
  out.recorded = *recorded;
  if (!std::getline(is, line) || line.rfind("counts", 0) != 0) {
    return fail("bad counts line");
  }
  {
    std::string_view rest = std::string_view(line).substr(6);
    for (std::string_view tok = next_token(rest); !tok.empty();
         tok = next_token(rest)) {
      const std::size_t eq = tok.find('=');
      FlightKind kind{};
      if (eq == std::string_view::npos ||
          !kind_from_name(tok.substr(0, eq), kind)) {
        return fail("bad counts token: " + std::string(tok));
      }
      const auto count = parse_number<std::uint64_t>(tok.substr(eq + 1));
      if (!count) return fail("bad count: " + std::string(tok));
      out.counts[static_cast<std::size_t>(kind)] = *count;
    }
  }
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    if (line.rfind("E ", 0) != 0) return fail("bad event line: " + line);
    std::string_view rest = std::string_view(line).substr(2);
    const std::string_view kind_name = next_token(rest);
    const std::string_view t = next_token(rest);
    const std::string_view a = next_token(rest);
    const std::string_view b = next_token(rest);
    if (b.empty()) return fail("short event line: " + line);
    FlightEvent ev;
    if (!kind_from_name(kind_name, ev.kind)) {
      return fail("unknown event kind: " + std::string(kind_name));
    }
    const auto time = parse_number<SimTime>(t);
    const auto field_a = parse_number<std::uint64_t>(a);
    const auto field_b = parse_number<std::uint64_t>(b);
    if (!time || !field_a || !field_b) {
      return fail("bad number in event line: " + line);
    }
    ev.t = *time;
    ev.a = *field_a;
    ev.b = *field_b;
    if (!rest.empty()) ev.note = rest.substr(1);  // after the one separator
    out.events.push_back(std::move(ev));
  }
  if (!saw_end) return fail("missing END");
  if (out.events.size() > out.capacity) {
    return fail("more events than capacity");
  }
  out.ok = true;
  return out;
}

}  // namespace echelon::obs
