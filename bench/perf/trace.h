// Spans for gpumas-perf's traced runs.
//
// A span is one call into a layer of the library, recorded by the
// benchmark around the public function it calls (the library records no
// spans of its own). The benchmark calls one layer at a time from one
// thread, so spans nest strictly and an open-span stack gives each span its
// parent; the process CPU consumed during a span therefore belongs to that
// span's layer, whatever threads the layer uses internally. Spans are kept
// in memory and written once, at the end of the run, as Chrome trace-event
// JSON, which Perfetto and chrome://tracing open directly.
//
// Root spans are either "unit" (one unit of the workload's timed work, the
// thing the untraced run also times) or "setup" / "probe" (work only the
// traced run does, such as the sampled-mode pass of sim_pairs).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpumas::perf {

struct Span {
  std::string name;
  std::string layer;
  int parent = -1;       // index of the enclosing span, -1 for a root
  int iteration = 0;     // the workload's unit or iteration id
  double start_s = 0.0;  // since the tracer was created
  double dur_s = 0.0;
  double cpu_s = 0.0;    // process user+sys CPU consumed over the span
};

// One layer's self time: the duration of its spans minus the part their
// child spans cover, and the process CPU over that same self interval.
struct LayerTotals {
  double self_s = 0.0;
  double self_cpu_s = 0.0;
  uint64_t calls = 0;
};

class Tracer {
 public:
  explicit Tracer(std::string workload);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records one span from construction to destruction. A null tracer
  // records nothing, so untraced runs share the code with no clock reads.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
    double cpu0_ = 0.0;
  };

  void set_iteration(int iteration) { iteration_ = iteration; }
  const std::vector<Span>& spans() const { return spans_; }

  // Per-layer self time over every span, keyed by layer name.
  std::map<std::string, LayerTotals> layers() const;
  // Durations of the root spans named `name` ("unit" for workload units).
  std::vector<double> root_durations(const std::string& name) const;
  // Total duration of all root spans, and the part of it child spans cover.
  double root_s() const;
  double covered_s() const;

  // Writes the spans as Chrome trace-event JSON (atomically).
  void write_chrome_json(const std::string& path) const;

 private:
  std::string workload_;
  double epoch_s_ = 0.0;
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace gpumas::perf
