// The gpumas-perf workloads (see README.md for why each exists).
//
// Every workload runs in two modes. The plain run measures the end-to-end
// metrics with tracing off; the traced run re-runs the same work split into
// stages, one layer at a time, and reports the per-layer metrics. Both
// check the program's outputs and count each check as one operation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpumas::perf {

struct Options {
  uint64_t seed = 0;      // added to every base seed of the workload
  double seconds = 5.0;   // how long the timed phase keeps sampling
  int threads = 4;        // engine worker threads
  std::string out_dir;    // scratch: artifact stores, records, traces
  // Digest of this binary. Stores published for other workloads are keyed
  // on it, so a rebuilt benchmark never reads a stale build's store.
  std::string build_id;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Simulated outputs (record digests, STP per policy), printed as
  // `model.<name> = <value>` lines for cross-commit comparison; a
  // host-only change must leave them byte-identical.
  std::vector<std::pair<std::string, std::string>> model;

  // Counts one operation; a failed one is reported on stderr.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, const std::string& unit, double value);
};

struct Workload {
  const char* name = "";
  Result (*run)(const Options&) = nullptr;
  Result (*trace)(const Options&) = nullptr;
};

const std::vector<Workload>& workloads();

}  // namespace gpumas::perf
