// gpumas-perf: the repository benchmark (see README.md in this directory).
//
//   gpumas-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// same work runs staged, one layer at a time, inside spans; the metrics are
// the per-layer ones and the spans go to <out>/trace-<workload>-seed<N>.json
// (Chrome trace-event JSON). Before the JSON line come the simulated
// outputs as `model.<name> = <value>` lines.
//
// --seed N is added to every base seed of the workload; --seconds S is how
// long the timed phase keeps taking samples (at least one sample, and the
// workload's minimum count); --out DIR holds artifact stores, records and
// traces (default: out/ beside this binary).
//
// Exit codes: 0 every check passed; 1 an output check failed or a layer
// threw; 2 usage error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/text.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using namespace gpumas;

int usage(const std::string& why) {
  std::cerr << "gpumas-perf: " << why << "\n"
            << "usage: gpumas-perf --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\nworkloads:";
  for (const auto& w : perf::workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

// Hashed in chunks: reading the whole binary at once would add its size to
// the peak RSS the workloads report.
std::string file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string chunk(1 << 16, '\0');
  uint64_t h = fnv1a("");
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         in.gcount() > 0) {
    h = fnv1a(chunk.substr(0, static_cast<size_t>(in.gcount())), h);
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

std::string json_result(const perf::Result& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perf::Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perf::Options o;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage("help");
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      const auto n = text::parse_int_strict(value);
      if (!n || *n < 0) return usage("--seed wants an integer >= 0");
      o.seed = static_cast<uint64_t>(*n);
    } else if (arg == "--seconds") {
      const auto s = text::parse_double_strict(value);
      if (!s || !(*s > 0.0)) return usage("--seconds wants a number > 0");
      o.seconds = *s;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      trace = value == "1";
    } else if (arg == "--out") {
      o.out_dir = value;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  const auto& all = perf::workloads();
  const auto w = std::find_if(all.begin(), all.end(), [&](const auto& x) {
    return workload == x.name;
  });
  if (w == all.end()) return usage("unknown workload '" + workload + "'");

  // At most four engine threads, and never more than the machine has.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  o.threads = std::clamp(hw, 1, 4);
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  if (o.out_dir.empty()) o.out_dir = (exe.parent_path() / "out").string();
  o.build_id = file_digest(exe);

  perf::Result r;
  try {
    fs::create_directories(o.out_dir);
    r = trace ? w->trace(o) : w->run(o);
  } catch (const std::exception& e) {
    std::cerr << "gpumas-perf: " << workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const auto& [name, value] : r.model) {
    std::cout << "model." << name << " = " << value << "\n";
  }
  std::cout << json_result(r) << std::endl;
  return r.failed == 0 ? 0 : 1;
}
