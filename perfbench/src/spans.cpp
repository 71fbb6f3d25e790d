#include "spans.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanRecorder::name(std::string_view text) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ns - s.start_ns - s.aggregated_ns;
    if (s.parent != kNoParent) self[s.parent] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += static_cast<double>(self[i]) * 1e-9;
  }
  for (const auto& [name, ns] : aggregated_by_name_) {
    out[names_[name]] += static_cast<double>(ns) * 1e-9;
  }
  return out;
}

void SpanRecorder::clear() {
  spans_.clear();
  aggregated_by_name_.clear();
}

void SpanRecorder::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id\tparent\top\tname\tstart_ns\tend_ns\taggregated_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t'
        << (s.parent == kNoParent ? std::string("-") : std::to_string(s.parent))
        << '\t' << s.op << '\t' << names_[s.name] << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.aggregated_ns << '\n';
  }
  for (const auto& [name, ns] : aggregated_by_name_) {
    out << "aggregate\t" << names_[name] << '\t' << ns << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
