#include "trace.h"

#include <iomanip>
#include <sstream>

#include "clock.h"
#include "common/atomic_file.h"

namespace gpumas::perf {

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), epoch_s_(now_s()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.iteration = tracer_->iteration_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  cpu0_ = process_cpu_s();
  tracer_->spans_[static_cast<size_t>(index_)].start_s =
      now_s() - tracer_->epoch_s_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.dur_s = now_s() - tracer_->epoch_s_ - span.start_s;
  span.cpu_s = process_cpu_s() - cpu0_;
  tracer_->open_.pop_back();
}

std::map<std::string, LayerTotals> Tracer::layers() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  std::vector<double> child_cpu_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_s[static_cast<size_t>(s.parent)] += s.dur_s;
    child_cpu_s[static_cast<size_t>(s.parent)] += s.cpu_s;
  }
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = out[spans_[i].layer];
    t.self_s += spans_[i].dur_s - child_s[i];
    t.self_cpu_s += spans_[i].cpu_s - child_cpu_s[i];
    ++t.calls;
  }
  return out;
}

std::vector<double> Tracer::root_durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.name == name) out.push_back(s.dur_s);
  }
  return out;
}

double Tracer::root_s() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.dur_s;
  }
  return total;
}

double Tracer::covered_s() const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].parent < 0) {
      covered += s.dur_s;
    }
  }
  return covered;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
       << ", \"cat\": " << json_string(s.layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << s.start_s * 1e6 << ", \"dur\": " << s.dur_s * 1e6
       << ", \"args\": {\"layer\": " << json_string(s.layer)
       << ", \"parent\": " << s.parent << ", \"workload\": "
       << json_string(workload_) << ", \"iteration\": " << s.iteration
       << ", \"cpu_ms\": " << s.cpu_s * 1e3 << "}}";
  }
  os << "\n]}\n";
  common::atomic_write_file(path, os.str());
}

}  // namespace gpumas::perf
