#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench/bench_common.h"
#include "clock.h"
#include "common/atomic_file.h"
#include "common/subprocess.h"
#include "common/text.h"
#include "exp/experiment.h"
#include "exp/result_io.h"
#include "ilp/pattern.h"
#include "profile/profile_cache.h"
#include "sched/policies.h"
#include "sched/queue_gen.h"
#include "sched/runner.h"
#include "sim/gpu.h"
#include "trace.h"
#include "workloads/suite.h"

namespace gpumas::perf {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "gpumas-perf: check failed: " << what << "\n";
}

void Result::add(const std::string& name, const std::string& unit,
                 double value) {
  metrics.push_back(Metric{name, unit, value});
}

namespace {

namespace fs = std::filesystem;
using Scope = Tracer::Scope;

// Fig 4.3: five 20-application queues, NC = 2, queue seed 17.
constexpr uint64_t kGridQueueSeed = 17;
constexpr int kGridLength = 20;
constexpr int kGridNc = 2;
// The Fig 4.11-style single scenario: A-oriented 12-app queue, NC = 3.
constexpr uint64_t kSmraQueueSeed = 29;
constexpr int kSmraLength = 12;
constexpr int kSmraNc = 3;
// Queue seeds a run's samples draw from: 29 + seed * stride + sample.
constexpr uint64_t kSmraSeedStride = 1000;

// Set-ups per run where a set-up is cheap, so setup_s is a median.
constexpr int kSetupReps = 5;
// smra3_latency's set-up measures the offline artifacts (seconds each).
constexpr int kSmraSetupReps = 3;
// grid2_warm's engine runs with one worker: with four, where the pool's
// threads land shifts a process's median iteration by up to 8%, which
// would swamp the store, ILP and rendering work this workload watches.
constexpr int kWarmEngineThreads = 1;
// Minimum samples per plain run, whatever --seconds says.
constexpr size_t kWarmMinIterations = 300;
constexpr size_t kSimMinPasses = 5;
constexpr size_t kSmraMinSamples = 8;
// Plain and staged warm iterations in a traced grid2_warm run.
constexpr int kWarmTraceIterations = 100;

const std::vector<sched::QueueDistribution> kDists = {
    sched::QueueDistribution::kEqual, sched::QueueDistribution::kMOriented,
    sched::QueueDistribution::kMCOriented,
    sched::QueueDistribution::kCOriented,
    sched::QueueDistribution::kAOriented};
const std::vector<sched::Policy> kPolicies = {
    sched::Policy::kEven, sched::Policy::kProfileBased, sched::Policy::kIlp,
    sched::Policy::kIlpSmra};

// The sim_pairs co-runs: DRAM-bound, cache-bound and compute-bound traffic
// (classes M+A, MC+C, M+MC and A+A).
struct PairSpec {
  const char* name = "";
  const char* a = "";
  const char* b = "";
};
const PairSpec kPairs[] = {{"GUPS-HS", "GUPS", "HS"},
                           {"FFT-SPMV", "FFT", "SPMV"},
                           {"BLK-LPS", "BLK", "LPS"},
                           {"JPEG-SAD", "JPEG", "SAD"}};

const char* const kLayers[] = {"sim",   "profile", "interference",
                               "ilp",   "sched",   "exp",
                               "store", "result_io", "render"};

// ---------------------------------------------------------------- samples

// Linear interpolation between order statistics (numpy's default).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

// A plain run's measurements: one time per set-up, one host time per
// timed-phase sample, and the process CPU summed over the samples.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  double cpu_s = 0.0;

  void sample(const Stopwatch& sw) {
    wall_s.push_back(sw.wall_s());
    cpu_s += sw.cpu_s();
  }
};

// The 95th percentile is printed but not a metric: on a shared 4-core
// machine it follows how often neighbours stall the run, and its spread
// across runs reached 19%.
void add_end_to_end(Result& r, const Timings& t) {
  r.add("wall_s", "s", median(t.wall_s));
  r.add("cpu_s", "s", t.cpu_s / static_cast<double>(t.wall_s.size()));
  r.add("setup_s", "s", median(t.setup_s));
  r.add("peak_rss_mb", "MB", peak_rss_mb());
  std::cerr << "gpumas-perf: " << t.wall_s.size() << " samples (min "
            << quantile(t.wall_s, 0.0) << " s, p95 "
            << quantile(t.wall_s, 0.95) << " s, max "
            << quantile(t.wall_s, 1.0) << " s), " << t.setup_s.size()
            << " set-ups (min " << quantile(t.setup_s, 0.0) << " s, max "
            << quantile(t.setup_s, 1.0) << " s)\n";
}

// ---------------------------------------------------------------- files

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

uint64_t dir_bytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

std::string pid_suffix() { return "." + std::to_string(::getpid()); }

// A scratch directory of this process under the output directory, removed
// on destruction.
class ScratchDir {
 public:
  ScratchDir(const Options& o, const std::string& tag)
      : path_(fs::path(o.out_dir) / (tag + pid_suffix())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------- inputs

std::vector<exp::ScenarioSpec> grid2_batch(uint64_t seed) {
  std::vector<exp::ScenarioSpec> batch;
  for (const auto dist : kDists) {
    for (const auto policy : kPolicies) {
      exp::ScenarioSpec spec;
      spec.name = std::string(sched::distribution_name(dist)) + "/" +
                  sched::policy_name(policy);
      spec.queue = exp::QueueSpec::Distribution(dist, kGridLength,
                                                kGridQueueSeed + seed);
      spec.policy = policy;
      spec.nc = kGridNc;
      batch.push_back(spec);
    }
  }
  return batch;
}

// Sample n of a run draws its own queue, so a run's median latency covers
// many co-run pairings rather than one (a single 12-app queue's latency
// varies from seed to seed, and more so on the parallel SM phase).
exp::ScenarioSpec smra3_spec(uint64_t seed, size_t sample) {
  exp::ScenarioSpec spec;
  spec.queue = exp::QueueSpec::Distribution(
      sched::QueueDistribution::kAOriented, kSmraLength,
      kSmraQueueSeed + seed * kSmraSeedStride + sample);
  spec.policy = sched::Policy::kIlpSmra;
  spec.nc = kSmraNc;
  spec.name = std::string(sched::distribution_name(spec.queue.dist)) + "/" +
              sched::policy_name(spec.policy);
  return spec;
}

sim::KernelParams seeded_kernel(const std::string& name, uint64_t seed) {
  sim::KernelParams kp = workloads::benchmark(name);
  kp.seed += seed;
  return kp;
}

// ---------------------------------------------------------------- outputs

std::vector<std::string> record_lines(
    const std::vector<exp::ScenarioResult>& results) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(exp::result_io::to_string(results[i], /*batch=*/0,
                                              static_cast<int>(i)));
  }
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& line : lines) s += line;
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  return lines;
}

std::string render_grid(const std::vector<exp::ScenarioResult>& results) {
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  for (const auto dist : kDists) rows.push_back(sched::distribution_name(dist));
  for (const auto policy : kPolicies) cols.push_back(sched::policy_name(policy));
  std::ostringstream os;
  bench::render_policy_grid(results, rows, cols, /*reps=*/1, os);
  return os.str();
}

// One operation per scenario: it ran, and its record line equals the
// reference's (when there is one).
void check_records(Result& r, const char* what,
                   const std::vector<exp::ScenarioResult>& results,
                   const std::vector<std::string>& lines,
                   const std::vector<std::string>& reference) {
  for (size_t i = 0; i < results.size(); ++i) {
    const bool ran = results[i].has_reps() && results[i].report().total_cycles > 0;
    const bool same = reference.empty() ||
                      (i < reference.size() && lines[i] == reference[i]);
    r.check(ran && same, std::string(what) + ": scenario " + results[i].name);
  }
}

std::string hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string exact(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void add_model_outputs(Result& r,
                       const std::vector<exp::ScenarioResult>& results,
                       const std::vector<std::string>& lines) {
  r.model.emplace_back("records_fnv1a", hex(fnv1a(joined(lines))));
  for (const auto& res : results) {
    r.model.emplace_back("stp." + res.name,
                         exact(res.mean_device_throughput()));
  }
}

// ---------------------------------------------------------------- stages

// The offline artifacts a scenario reads, forced in dependency order with
// the same arguments the engine's lazy stages pass, so the engine finds
// them in the store afterwards.
struct Offline {
  std::vector<profile::AppProfile> profiles;
  std::shared_ptr<const interference::SlowdownModel> model;
};

Offline force_offline(profile::ProfileCache& cache, int threads,
                      Tracer* tracer) {
  const sim::GpuConfig cfg;
  Offline off;
  {
    Scope s(tracer, "suite_profiles", "profile");
    off.profiles = cache.suite_profiles(workloads::suite(), cfg);
  }
  {
    Scope s(tracer, "model", "interference");
    off.model = cache.model(cfg, workloads::suite(), off.profiles,
                            /*max_samples_per_cell=*/0,
                            /*with_triples=*/false, threads);
  }
  return off;
}

// The per-layer counters of a traced run. Every traced run reports all of
// them, so a layer the workload never enters reads 0.
struct Counters {
  // sim: the benchmark's own detailed Gpu runs (sim_pairs).
  uint64_t ticked_cycles = 0;
  uint64_t skipped_cycles = 0;
  uint64_t thread_insns = 0;
  double sim_run_s = 0.0;
  uint64_t l1_accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_accesses = 0;
  uint64_t l2_hits = 0;
  uint64_t dram_lines = 0;
  std::vector<double> pair_minsts_per_s =
      std::vector<double>(std::size(kPairs), 0.0);
  double sampled_minsts_per_s = 0.0;
  double sampled_cycles_err_pct = 0.0;
  // profile / interference / ilp / sched
  uint64_t solo_sims = 0;
  uint64_t scalability_sims = 0;
  uint64_t co_runs = 0;
  uint64_t ilp_solves = 0;
  uint64_t ilp_nodes = 0;
  uint64_t sched_groups = 0;
  double intra_run_slowdown = 0.0;
  // store / result_io
  uint64_t store_bytes = 0;
  uint64_t store_profiles = 0;
  uint64_t store_models = 0;
  uint64_t store_groups = 0;
  uint64_t group_sims = 0;
  uint64_t group_hits = 0;
  uint64_t result_io_bytes = 0;

  void record_cache(const profile::ProfileCache& cache) {
    solo_sims = cache.misses() - cache.scalability_misses();
    scalability_sims = cache.scalability_misses();
    store_profiles = cache.size();
    store_models = cache.model_count();
    store_groups = cache.group_count();
    group_sims = cache.group_misses();
    group_hits = cache.group_hits();
  }
  void record_reports(const std::vector<exp::ScenarioResult>& results,
                   const std::vector<std::string>& lines) {
    for (const auto& res : results) sched_groups += res.report().groups.size();
    result_io_bytes = joined(lines).size();
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Stage 3: the ILP grouping of every ILP scenario's queue, solved directly.
void solve_matchings(const Offline& off,
                     const std::vector<exp::ScenarioSpec>& batch,
                     Counters& c, Tracer* tracer) {
  for (const auto& spec : batch) {
    if (spec.policy != sched::Policy::kIlp &&
        spec.policy != sched::Policy::kIlpSmra) {
      continue;
    }
    Scope s(tracer, "solve_matching", "ilp");
    const auto queue =
        sched::make_queue(workloads::suite(), off.profiles, spec.queue.dist,
                          spec.queue.length, spec.queue.seed);
    const auto solution = ilp::solve_matching(
        sched::build_matching_problem(queue, spec.nc, *off.model));
    ++c.ilp_solves;
    c.ilp_nodes += solution.nodes_explored;
  }
}

void add_layer_metrics(Result& r, const Tracer& t, const Counters& c,
                       double untraced_unit_s) {
  const double traced_unit_s = median(t.root_durations("unit"));
  const double root_s = t.root_s();
  r.add("trace.wall_s", "s", traced_unit_s);
  r.add("trace.untraced_minus_traced_s", "s", untraced_unit_s - traced_unit_s);
  r.add("trace.span_coverage", "ratio", ratio(t.covered_s(), root_s));
  const auto layers = t.layers();
  for (const char* layer : kLayers) {
    const auto it = layers.find(layer);
    const LayerTotals lt = it == layers.end() ? LayerTotals{} : it->second;
    const std::string name = layer;
    r.add(name + ".self_share", "ratio", ratio(lt.self_s, root_s));
    r.add(name + ".busy_cores", "cores", ratio(lt.self_cpu_s, lt.self_s));
    r.add(name + ".calls", "count", static_cast<double>(lt.calls));
  }
  const auto num = [](uint64_t v) { return static_cast<double>(v); };
  r.add("sim.ticked_cycles", "count", num(c.ticked_cycles));
  r.add("sim.skipped_frac", "ratio",
        ratio(num(c.skipped_cycles), num(c.ticked_cycles + c.skipped_cycles)));
  r.add("sim.ticked_cycles_per_s", "1/s",
        ratio(num(c.ticked_cycles), c.sim_run_s));
  r.add("sim.minsts_per_s", "Minsts/s",
        ratio(num(c.thread_insns), c.sim_run_s) / 1e6);
  r.add("sim.l1_hit_rate", "ratio", ratio(num(c.l1_hits), num(c.l1_accesses)));
  r.add("sim.l2_hit_rate", "ratio", ratio(num(c.l2_hits), num(c.l2_accesses)));
  r.add("sim.dram_lines", "count", num(c.dram_lines));
  for (size_t i = 0; i < std::size(kPairs); ++i) {
    r.add(std::string("sim.pair.") + kPairs[i].name + ".minsts_per_s",
          "Minsts/s", c.pair_minsts_per_s[i]);
  }
  r.add("sim.sampled.minsts_per_s", "Minsts/s", c.sampled_minsts_per_s);
  r.add("sim.sampled.cycles_err_pct", "%", c.sampled_cycles_err_pct);
  r.add("profile.solo_sims", "count", num(c.solo_sims));
  r.add("profile.scalability_sims", "count", num(c.scalability_sims));
  r.add("interference.co_runs", "count", num(c.co_runs));
  r.add("ilp.solves", "count", num(c.ilp_solves));
  r.add("ilp.nodes", "count", num(c.ilp_nodes));
  r.add("sched.groups", "count", num(c.sched_groups));
  r.add("exp.intra_run_slowdown", "ratio", c.intra_run_slowdown);
  r.add("store.bytes", "B", num(c.store_bytes));
  r.add("store.entries.profiles", "count", num(c.store_profiles));
  r.add("store.entries.models", "count", num(c.store_models));
  r.add("store.entries.groups", "count", num(c.store_groups));
  r.add("store.group_sims", "count", num(c.group_sims));
  r.add("store.group_hits", "count", num(c.group_hits));
  r.add("store.group_hit_ratio", "ratio",
        ratio(num(c.group_hits), num(c.group_hits + c.group_sims)));
  r.add("result_io.bytes", "B", num(c.result_io_bytes));
}

void write_trace(const Tracer& t, const Options& o, const char* workload) {
  const fs::path path = fs::path(o.out_dir) /
                        ("trace-" + std::string(workload) + "-seed" +
                         std::to_string(o.seed) + ".json");
  t.write_chrome_json(path.string());
  std::cerr << "gpumas-perf: wrote " << path.string() << "\n";
}

// ---------------------------------------------------------------- grid2

// Where grid2_cold publishes its store and records for grid2_warm.
fs::path grid2_published(const Options& o) {
  return fs::path(o.out_dir) /
         ("grid2-" + o.build_id + "-seed" + std::to_string(o.seed));
}

// Publishes a cold run's store (moved from `store`) and records for
// grid2_warm. The directory appears whole through one rename; when another
// process published this seed first, this copy is dropped.
void publish_grid2(const Options& o, const fs::path& store,
                   const std::vector<std::string>& lines) {
  const fs::path dir = grid2_published(o);
  if (fs::exists(dir)) return;
  const fs::path staging = dir.string() + ".staging" + pid_suffix();
  fs::create_directories(staging);
  fs::rename(store, staging / "store");
  common::atomic_write_file((staging / "records.txt").string(), joined(lines));
  std::error_code ec;
  fs::rename(staging, dir, ec);
  if (ec) fs::remove_all(staging, ec);
}

std::vector<std::string> published_records(const Options& o) {
  const fs::path path = grid2_published(o) / "records.txt";
  return fs::exists(path) ? split_lines(read_file(path))
                          : std::vector<std::string>{};
}

Result grid2_cold_run(const Options& o) {
  Result r;
  Timings t;
  const ScratchDir scratch(o, "grid2_cold");
  const fs::path store = scratch.path() / "store";
  std::vector<std::string> reference = published_records(o);
  std::vector<exp::ScenarioResult> results;
  std::vector<std::string> lines;
  const Stopwatch run;
  do {
    // Set-up: the batch, an empty store and a fresh engine.
    std::vector<exp::ScenarioSpec> batch;
    std::unique_ptr<exp::ExperimentRunner> engine;
    std::unique_ptr<profile::ProfileCache> cache;
    for (int i = 0; i < kSetupReps; ++i) {
      const Stopwatch sw;
      engine.reset();
      batch = grid2_batch(o.seed);
      fs::remove_all(store);
      cache = std::make_unique<profile::ProfileCache>();
      engine = std::make_unique<exp::ExperimentRunner>(*cache, o.threads);
      t.setup_s.push_back(sw.wall_s());
    }
    const Stopwatch sw;
    results = engine->run(batch);
    cache->save_store(store.string());
    t.sample(sw);

    lines = record_lines(results);
    check_records(r, "grid2_cold", results, lines, reference);
    if (reference.empty()) {
      publish_grid2(o, store, lines);
      reference = lines;
    }
  } while (run.wall_s() < o.seconds);
  add_end_to_end(r, t);
  add_model_outputs(r, results, lines);
  return r;
}

Result grid2_cold_trace(const Options& o) {
  Result r;
  Counters c;
  const ScratchDir scratch(o, "grid2_cold_trace");
  const auto batch = grid2_batch(o.seed);

  // The untraced unit: the engine forces its stages lazily.
  double untraced_s = 0.0;
  std::vector<std::string> untraced;
  const fs::path untraced_store = scratch.path() / "untraced";
  {
    profile::ProfileCache cache;
    exp::ExperimentRunner engine(cache, o.threads);
    const Stopwatch sw;
    const auto results = engine.run(batch);
    cache.save_store(untraced_store.string());
    untraced_s = sw.wall_s();
    untraced = record_lines(results);
  }
  const std::vector<std::string> published = published_records(o);
  r.check(published.empty() || published == untraced,
          "grid2_cold: records differ from the published ones");
  publish_grid2(o, untraced_store, untraced);

  // The traced unit forces the stages in dependency order, one layer at a
  // time, so the process CPU during a span belongs to that span's layer.
  Tracer t("grid2_cold");
  profile::ProfileCache cache;
  std::vector<exp::ScenarioResult> results;
  const fs::path store = scratch.path() / "traced";
  {
    Scope unit(&t, "unit", "bench");
    const Offline off = force_offline(cache, o.threads, &t);
    c.co_runs = cache.group_misses();  // every group so far is a model co-run
    solve_matchings(off, batch, c, &t);
    exp::ExperimentRunner engine(cache, o.threads);
    {
      Scope s(&t, "ExperimentRunner::run", "exp");
      results = engine.run(batch);
    }
    Scope s(&t, "save_store", "store");
    cache.save_store(store.string());
  }
  const auto lines = record_lines(results);
  check_records(r, "grid2_cold traced vs untraced", results, lines, untraced);
  c.record_cache(cache);
  c.record_reports(results, lines);
  c.store_bytes = dir_bytes(store);
  add_layer_metrics(r, t, c, untraced_s);
  add_model_outputs(r, results, lines);
  write_trace(t, o, "grid2_cold");
  return r;
}

// grid2_warm needs the store grid2_cold published for this seed. Without
// one it runs one grid2_cold sample, untimed, in a child process (so this
// process's peak RSS stays the warm path's own), which publishes it.
fs::path ensure_grid2_store(const Options& o) {
  const fs::path dir = grid2_published(o);
  if (fs::exists(dir / "records.txt")) return dir;
  const Stopwatch sw;
  const std::string log =
      (fs::path(o.out_dir) / ("prereq" + pid_suffix() + ".log")).string();
  common::Subprocess child;
  common::Subprocess::Options opts;
  opts.output_path = log;
  const bool spawned = child.spawn(
      {fs::read_symlink("/proc/self/exe").string(), "--workload",
       "grid2_cold", "--seed", std::to_string(o.seed), "--seconds", "1e-9",
       "--out", o.out_dir},
      opts);
  if (!spawned || !child.wait().ok() || !fs::exists(dir / "records.txt")) {
    throw std::runtime_error("could not build the grid2 store (see " + log +
                             ")");
  }
  fs::remove(log);
  std::cerr << "gpumas-perf: prereq_s = " << sw.wall_s()
            << " (ran grid2_cold for seed " << o.seed << ")\n";
  return dir;
}

bool simulated_nothing(const profile::ProfileCache& cache) {
  return cache.misses() == 0 && cache.model_misses() == 0 &&
         cache.group_misses() == 0;
}

struct WarmIteration {
  std::vector<exp::ScenarioResult> results;
  std::string records;
  std::string grid;
  bool simulated_nothing = false;
};

// One warm iteration as a user runs it: load the store into a fresh cache,
// run the batch, serialize the records and render the Fig 4.3 grid.
WarmIteration warm_iteration(const std::vector<exp::ScenarioSpec>& batch,
                             const std::string& store, Timings* t) {
  const Stopwatch sw;
  profile::ProfileCache cache;
  cache.load_store_if_exists(store);
  if (t != nullptr) t->setup_s.push_back(sw.wall_s());
  exp::ExperimentRunner engine(cache, kWarmEngineThreads);
  WarmIteration it;
  it.results = engine.run(batch);
  it.records = joined(record_lines(it.results));
  it.grid = render_grid(it.results);
  if (t != nullptr) t->sample(sw);
  it.simulated_nothing = simulated_nothing(cache);
  return it;
}

Result grid2_warm_run(const Options& o) {
  Result r;
  Timings t;
  const fs::path dir = ensure_grid2_store(o);
  const std::string cold_records = read_file(dir / "records.txt");
  const std::string store = (dir / "store").string();
  const auto batch = grid2_batch(o.seed);
  WarmIteration first;
  const Stopwatch run;
  for (size_t n = 0; n < kWarmMinIterations || run.wall_s() < o.seconds; ++n) {
    WarmIteration it = warm_iteration(batch, store, &t);
    r.check(it.simulated_nothing && it.records == cold_records &&
                (n == 0 || it.grid == first.grid),
            "grid2_warm iteration " + std::to_string(n) +
                " simulated or diverged from grid2_cold");
    if (n == 0) first = std::move(it);
  }
  add_end_to_end(r, t);
  add_model_outputs(r, first.results, split_lines(first.records));
  return r;
}

Result grid2_warm_trace(const Options& o) {
  Result r;
  Counters c;
  const fs::path dir = ensure_grid2_store(o);
  const std::string cold_records = read_file(dir / "records.txt");
  const std::string store = (dir / "store").string();
  const auto batch = grid2_batch(o.seed);

  std::vector<double> untraced;
  for (int i = 0; i < kWarmTraceIterations; ++i) {
    const Stopwatch sw;
    warm_iteration(batch, store, nullptr);
    untraced.push_back(sw.wall_s());
  }

  // Staged: the engine's stages forced one layer at a time, and each
  // scenario's queue run directly through sched::QueueRunner, which is
  // where a warm run's time goes (grouping, ILP and store lookups).
  Tracer t("grid2_warm");
  std::vector<exp::ScenarioResult> results;
  std::string records;
  std::string grid;
  for (int i = 0; i < kWarmTraceIterations; ++i) {
    t.set_iteration(i);
    profile::ProfileCache cache;
    Counters iteration;
    {
      Scope unit(&t, "unit", "bench");
      {
        Scope s(&t, "load_store_if_exists", "store");
        cache.load_store_if_exists(store);
      }
      const Offline off = force_offline(cache, o.threads, &t);
      solve_matchings(off, batch, iteration, &t);
      results.clear();
      {
        Scope s(&t, "QueueRunner", "sched");
        const sched::QueueRunner runner(batch.front().config, off.profiles,
                                        *off.model, &cache);
        for (const auto& spec : batch) {
          Scope run(&t, "QueueRunner::run", "sched");
          exp::ScenarioResult res;
          res.name = spec.name;
          res.reps.push_back(runner.run(
              sched::make_queue(workloads::suite(), off.profiles,
                                spec.queue.dist, spec.queue.length,
                                spec.queue.seed),
              spec.policy, spec.nc, spec.smra, spec.fixed_partition));
          results.push_back(std::move(res));
        }
      }
      {
        Scope s(&t, "result_io::to_string", "result_io");
        records = joined(record_lines(results));
      }
      Scope s(&t, "render_policy_grid", "render");
      grid = render_grid(results);
    }
    r.check(simulated_nothing(cache) && records == cold_records,
            "grid2_warm staged iteration " + std::to_string(i) +
                " simulated or diverged from grid2_cold");
    if (i == 0) {
      c = iteration;
      c.record_cache(cache);
    }
  }

  // Probe: the dump merge, checked by re-rendering the merged results.
  {
    t.set_iteration(0);
    Scope probe(&t, "probe", "bench");
    std::vector<exp::result_io::MergedBatch> merged;
    {
      Scope s(&t, "merge_dumps", "result_io");
      merged = exp::result_io::merge_dumps({{"grid2_warm", records}});
    }
    r.check(merged.size() == 1 && render_grid(merged.front().results) == grid,
            "grid2_warm: merged dump renders a different grid");
  }

  c.record_reports(results, split_lines(records));
  c.store_bytes = dir_bytes(store);
  add_layer_metrics(r, t, c, median(untraced));
  add_model_outputs(r, results, split_lines(records));
  write_trace(t, o, "grid2_warm");
  return r;
}

// ---------------------------------------------------------------- sim_pairs

struct PairRun {
  sim::RunResult result;
  uint64_t ticked_cycles = 0;
  uint64_t skipped_cycles = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
};

// One pair on an even split, simulated serially: construct and launch
// (set-up), then run.
PairRun run_pair(const PairSpec& pair, uint64_t seed, sim::SimMode mode,
                 Tracer* tracer) {
  sim::GpuConfig cfg;
  cfg.sim_mode = mode;
  PairRun out;
  std::unique_ptr<sim::Gpu> gpu;
  {
    Scope s(tracer, "Gpu+launch", "sim");
    const Stopwatch sw;
    gpu = std::make_unique<sim::Gpu>(cfg);
    gpu->launch(seeded_kernel(pair.a, seed));
    gpu->launch(seeded_kernel(pair.b, seed));
    gpu->set_even_partition();
    out.setup_s = sw.wall_s();
  }
  {
    Scope s(tracer, "run_to_completion", "sim");
    const Stopwatch sw;
    out.result = gpu->run_to_completion();
    out.run_s = sw.wall_s();
    out.run_cpu_s = sw.cpu_s();
  }
  out.ticked_cycles = gpu->ticked_cycles();
  out.skipped_cycles = gpu->skipped_cycles();
  return out;
}

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  if (a.cycles != b.cycles || a.apps.size() != b.apps.size()) return false;
  bool same = true;
  for (size_t i = 0; i < a.apps.size(); ++i) {
    sim::for_each_app_stat(a.apps[i], b.apps[i],
                           [&](const char*, uint64_t u, uint64_t v) {
                             same = same && u == v;
                           });
  }
  return same;
}

void add_pair_outputs(Result& r, const std::vector<sim::RunResult>& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    r.model.emplace_back(std::string("cycles.") + kPairs[i].name,
                         std::to_string(runs[i].cycles));
    r.model.emplace_back(std::string("thread_insns.") + kPairs[i].name,
                         std::to_string(runs[i].total_thread_insns()));
  }
}

Result sim_pairs_run(const Options& o) {
  Result r;
  Timings t;
  std::vector<sim::RunResult> first;
  const Stopwatch run;
  for (size_t pass = 0; pass < kSimMinPasses || run.wall_s() < o.seconds;
       ++pass) {
    double setup_s = 0.0;
    double run_s = 0.0;
    for (size_t i = 0; i < std::size(kPairs); ++i) {
      PairRun pr = run_pair(kPairs[i], o.seed, sim::SimMode::kDetailed,
                            nullptr);
      setup_s += pr.setup_s;
      run_s += pr.run_s;
      t.cpu_s += pr.run_cpu_s;
      if (pass == 0) first.push_back(pr.result);
      r.check(same_run(pr.result, first[i]),
              std::string("sim_pairs pass ") + std::to_string(pass) + " " +
                  kPairs[i].name + " differs from pass 0");
    }
    t.setup_s.push_back(setup_s);
    t.wall_s.push_back(run_s);
  }
  add_end_to_end(r, t);
  add_pair_outputs(r, first);
  return r;
}

Result sim_pairs_trace(const Options& o) {
  Result r;
  Counters c;
  std::vector<sim::RunResult> untraced;
  const Stopwatch sw;
  for (const auto& pair : kPairs) {
    untraced.push_back(
        run_pair(pair, o.seed, sim::SimMode::kDetailed, nullptr).result);
  }
  const double untraced_s = sw.wall_s();

  Tracer t("sim_pairs");
  {
    Scope unit(&t, "unit", "bench");
    for (size_t i = 0; i < std::size(kPairs); ++i) {
      t.set_iteration(static_cast<int>(i));
      const PairRun pr =
          run_pair(kPairs[i], o.seed, sim::SimMode::kDetailed, &t);
      r.check(same_run(pr.result, untraced[i]),
              std::string("sim_pairs traced ") + kPairs[i].name +
                  " differs from untraced");
      c.ticked_cycles += pr.ticked_cycles;
      c.skipped_cycles += pr.skipped_cycles;
      c.thread_insns += pr.result.total_thread_insns();
      c.sim_run_s += pr.run_s;
      c.pair_minsts_per_s[i] =
          ratio(static_cast<double>(pr.result.total_thread_insns()), pr.run_s) /
          1e6;
      for (const auto& app : pr.result.apps) {
        c.l1_accesses += app.l1_accesses;
        c.l1_hits += app.l1_hits;
        c.l2_accesses += app.l2_accesses;
        c.l2_hits += app.l2_hits;
        c.dram_lines += app.dram_transactions;
      }
    }
  }

  // Probe: one sampled-mode pass, its speed and its cycle error against
  // the detailed runs.
  {
    Scope probe(&t, "probe", "bench");
    double insns = 0.0;
    double run_s = 0.0;
    double err_cycles = 0.0;
    double cycles = 0.0;
    for (size_t i = 0; i < std::size(kPairs); ++i) {
      t.set_iteration(static_cast<int>(i));
      const PairRun pr =
          run_pair(kPairs[i], o.seed, sim::SimMode::kSampled, &t);
      r.check(pr.result.total_thread_insns() ==
                  untraced[i].total_thread_insns(),
              std::string("sim_pairs sampled ") + kPairs[i].name +
                  " did not complete the detailed run's work");
      insns += static_cast<double>(pr.result.total_thread_insns());
      run_s += pr.run_s;
      err_cycles += std::fabs(static_cast<double>(pr.result.cycles) -
                              static_cast<double>(untraced[i].cycles));
      cycles += static_cast<double>(untraced[i].cycles);
    }
    c.sampled_minsts_per_s = ratio(insns, run_s) / 1e6;
    c.sampled_cycles_err_pct = 100.0 * ratio(err_cycles, cycles);
  }
  add_layer_metrics(r, t, c, untraced_s);
  add_pair_outputs(r, untraced);
  write_trace(t, o, "sim_pairs");
  return r;
}

// ---------------------------------------------------------------- smra3

struct SmraSample {
  exp::ScenarioResult result;
  std::vector<std::string> lines;
  bool only_groups_simulated = false;
};

// One sample: the saved offline artifacts loaded into a fresh cache, then
// the scenario through an engine with `engine_threads` workers, which
// re-simulates its SMRA groups.
SmraSample smra3_sample(const Options& o, const exp::ScenarioSpec& spec,
                        const std::string& store, int engine_threads,
                        Tracer* tracer, Counters* c) {
  profile::ProfileCache cache;
  {
    Scope s(tracer, "load_store_if_exists", "store");
    cache.load_store_if_exists(store);
  }
  if (tracer != nullptr) {
    const Offline off = force_offline(cache, o.threads, tracer);
    solve_matchings(off, {spec}, *c, tracer);
  }
  exp::ExperimentRunner engine(cache, engine_threads);
  SmraSample out;
  {
    Scope s(tracer, "ExperimentRunner::run_one", "exp");
    out.result = engine.run_one(spec);
  }
  out.lines = record_lines({out.result});
  if (c != nullptr) {
    c->group_sims += cache.group_misses();
    c->group_hits += cache.group_hits();
  }
  out.only_groups_simulated =
      cache.misses() == 0 && cache.model_misses() == 0 &&
      cache.group_misses() > 0 &&
      cache.group_misses() + cache.group_hits() ==
          out.result.report().groups.size();
  return out;
}

// Same simulated groups, whatever intra-run thread budget ran them.
bool same_groups(const sched::RunReport& a, const sched::RunReport& b) {
  if (a.total_cycles != b.total_cycles ||
      a.total_thread_insns != b.total_thread_insns ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].app_cycles != b.groups[g].app_cycles) return false;
  }
  return true;
}

// smra3_latency's set-up: measure the suite profiles and the model into a
// fresh cache, then save them to `store`.
void smra3_setup(const Options& o, const fs::path& store, Tracer* tracer,
                 Counters* c) {
  fs::remove_all(store);
  profile::ProfileCache cache;
  force_offline(cache, o.threads, tracer);
  {
    Scope s(tracer, "save_store", "store");
    cache.save_store(store.string());
  }
  if (c != nullptr) {
    c->co_runs = cache.group_misses();
    c->record_cache(cache);
  }
}

Result smra3_run(const Options& o) {
  Result r;
  Timings t;
  const ScratchDir scratch(o, "smra3_latency");
  const fs::path store = scratch.path() / "store";
  for (int i = 0; i < kSmraSetupReps; ++i) {
    const Stopwatch sw;
    smra3_setup(o, store, nullptr, nullptr);
    t.setup_s.push_back(sw.wall_s());
  }
  SmraSample first;
  const Stopwatch run;
  for (size_t n = 0; n < kSmraMinSamples || run.wall_s() < o.seconds; ++n) {
    const Stopwatch sw;
    SmraSample s = smra3_sample(o, smra3_spec(o.seed, n), store.string(),
                                o.threads, nullptr, nullptr);
    t.sample(sw);
    r.check(s.only_groups_simulated,
            "smra3_latency sample " + std::to_string(n) +
                " simulated offline artifacts or missed its groups");
    if (n == 0) first = std::move(s);
  }
  // Untimed: the first scenario again, serially, must reproduce its records.
  const SmraSample again = smra3_sample(o, smra3_spec(o.seed, 0),
                                        store.string(), 1, nullptr, nullptr);
  r.check(again.only_groups_simulated &&
              same_groups(again.result.report(), first.result.report()),
          "smra3_latency: re-running sample 0 serially simulated differently");
  add_end_to_end(r, t);
  add_model_outputs(r, {first.result}, first.lines);
  return r;
}

Result smra3_trace(const Options& o) {
  Result r;
  Counters c;
  const ScratchDir scratch(o, "smra3_trace");
  const fs::path store = scratch.path() / "store";
  const auto spec = smra3_spec(o.seed, 0);
  Tracer t("smra3_latency");
  {
    Scope probe(&t, "setup", "bench");
    smra3_setup(o, store, &t, &c);
  }
  c.store_bytes = dir_bytes(store);

  const Stopwatch sw;
  const SmraSample untraced =
      smra3_sample(o, spec, store.string(), o.threads, nullptr, nullptr);
  const double untraced_s = sw.wall_s();

  SmraSample traced;
  {
    Scope unit(&t, "unit", "bench");
    traced = smra3_sample(o, spec, store.string(), o.threads, &t, &c);
  }

  // Probe: the same sample with one engine worker, so each simulation runs
  // serially. It is one span outside the layers, and its counters are its
  // own, so the layer metrics describe the whole-budget path alone.
  {
    Scope probe(&t, "probe", "bench");
    Scope s(&t, "run_one, 1 engine worker", "bench");
    const Stopwatch serial_sw;
    const SmraSample serial =
        smra3_sample(o, spec, store.string(), 1, nullptr, nullptr);
    c.intra_run_slowdown = ratio(untraced_s, serial_sw.wall_s());
    r.check(serial.only_groups_simulated &&
                same_groups(serial.result.report(), untraced.result.report()),
            "smra3_latency: one engine worker simulated differently");
  }
  r.check(untraced.only_groups_simulated && traced.only_groups_simulated,
          "smra3_latency simulated offline artifacts in a sample");
  check_records(r, "smra3_latency traced vs untraced", {traced.result},
                traced.lines, untraced.lines);
  c.record_reports({traced.result}, traced.lines);
  add_layer_metrics(r, t, c, untraced_s);
  add_model_outputs(r, {traced.result}, traced.lines);
  write_trace(t, o, "smra3_latency");
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"grid2_cold", grid2_cold_run, grid2_cold_trace},
      {"grid2_warm", grid2_warm_run, grid2_warm_trace},
      {"sim_pairs", sim_pairs_run, sim_pairs_trace},
      {"smra3_latency", smra3_run, smra3_trace},
  };
  return kWorkloads;
}

}  // namespace gpumas::perf
