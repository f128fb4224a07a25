// Host time and process resource usage for gpumas-perf.
//
// Every clock and getrusage read of the benchmark lives in this header, so
// the determinism linter's wall-clock rule has exactly one annotated site.
// Nothing read here ever reaches a result record, a fingerprint or a store
// key: the values only become benchmark metrics.
#pragma once

#include <sys/resource.h>

#include <chrono>  // detlint:ok(wall-clock) benchmark host timing, never serialized into records
#include <fstream>
#include <string>

namespace gpumas::perf {

// Seconds on the monotonic host clock, from an arbitrary epoch.
inline double now_s() {
  using Steady = std::chrono::steady_clock;  // detlint:ok(wall-clock) benchmark host timing
  return std::chrono::duration<double>(  // detlint:ok(wall-clock) benchmark host timing
             Steady::now().time_since_epoch())
      .count();
}

// User + system CPU seconds of this process so far (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const auto& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak resident set of this program image so far, in MB: VmHWM from
// /proc/self/status. (ru_maxrss would also count the launcher this process
// was forked from, because Linux carries it across exec.)
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Host seconds and process CPU seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(now_s()), cpu0_(process_cpu_s()) {}
  double wall_s() const { return now_s() - wall0_; }
  double cpu_s() const { return process_cpu_s() - cpu0_; }

 private:
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
};

}  // namespace gpumas::perf
