#include "obs/stream.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"

namespace echelon::obs {

void TraceChunkWriter::record(const TraceEvent& ev, std::string_view label) {
  buf_.push_back(Buffered{ev, std::string(label)});
}

std::size_t TraceChunkWriter::flush() {
  const std::size_t n = buf_.size();
  *os_ << "ECHCHUNK " << n << "\n";
  char line[256];
  for (const Buffered& b : buf_) {
    std::snprintf(line, sizeof(line),
                  "%c %u %016" PRIx64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %016" PRIx64,
                  b.label.empty() ? 'E' : 'L',
                  static_cast<unsigned>(b.ev.kind), std::bit_cast<std::uint64_t>(b.ev.t), b.ev.id,
                  b.ev.job, b.ev.ctx, std::bit_cast<std::uint64_t>(b.ev.value));
    *os_ << line;
    if (!b.label.empty()) *os_ << ' ' << b.label;
    *os_ << "\n";
  }
  total_ += n;
  ++chunks_;
  buf_.clear();
  return n;
}

std::uint64_t merge_trace_chunks(std::istream& is, TraceSink& sink) {
  std::uint64_t replayed = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    constexpr std::string_view kHeader = "ECHCHUNK ";
    const auto n = std::string_view{line}.starts_with(kHeader)
                       ? parse_number<std::uint64_t>(
                             std::string_view{line}.substr(kHeader.size()))
                       : std::nullopt;
    if (!n) {
      throw std::runtime_error("merge_trace_chunks: bad chunk header: " +
                               line);
    }
    for (std::uint64_t i = 0; i < *n; ++i) {
      if (!std::getline(is, line)) {
        throw std::runtime_error(
            "merge_trace_chunks: chunk truncated (expected " +
            std::to_string(*n) + " events, got " + std::to_string(i) + ")");
      }
      const auto bad = [&line] {
        return std::runtime_error("merge_trace_chunks: bad event line: " +
                                  line);
      };
      // Six space-terminated fields, then the value bits, which end the
      // line ('E') or precede one space and the label ('L'). Every field is
      // one whole token: "1x", "+1", "-1" and "0x0" all fail.
      std::string_view rest{line};
      std::string_view field[6];
      for (std::string_view& f : field) {
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) throw bad();
        f = rest.substr(0, sp);
        rest.remove_prefix(sp + 1);
      }
      const std::size_t sp = rest.find(' ');
      const std::string_view value = rest.substr(0, sp);
      const bool labelled = field[0] == "L";
      if (!labelled && (field[0] != "E" || sp != std::string_view::npos)) {
        throw bad();
      }
      const auto kind = parse_number<unsigned>(field[1]);
      const auto t_bits = parse_number<std::uint64_t>(field[2], 16);
      const auto id = parse_number<std::uint64_t>(field[3]);
      const auto job = parse_number<std::uint64_t>(field[4]);
      const auto ctx = parse_number<std::uint64_t>(field[5]);
      const auto v_bits = parse_number<std::uint64_t>(value, 16);
      if (!kind || *kind >= kTraceKindCount || !t_bits || !id || !job ||
          !ctx || !v_bits) {
        throw bad();
      }
      TraceEvent ev;
      ev.kind = static_cast<TraceKind>(*kind);
      ev.t = std::bit_cast<double>(*t_bits);
      ev.id = *id;
      ev.job = *job;
      ev.ctx = *ctx;
      ev.value = std::bit_cast<double>(*v_bits);
      const std::string_view label =
          labelled && sp != std::string_view::npos ? rest.substr(sp + 1)
                                                   : std::string_view{};
      sink.record(ev, label);
      ++replayed;
    }
  }
  return replayed;
}

}  // namespace echelon::obs
