// Serving benchmark: QueryService end to end on skewed and write-mixed
// traffic (README.md).
//
//   perfbench generate --workload W --out DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data DIR [--trace-out PATH]
//
// `generate` writes a workload's inputs with SaveDataset. `run` receives
// only those files: it loads them, serves them through SnapshotManager +
// QueryService, and drives an untimed warm-up, an open-loop phase at a
// fixed rate and deadline, and a closed-loop saturation phase. Every
// layer is timed from outside, around calls to its public functions.
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "common/metrics.h"
#include "core/batch_engine.h"
#include "core/dynamic_walk_index.h"
#include "core/engine_snapshot.h"
#include "core/iterative.h"
#include "core/mc_simrank.h"
#include "core/single_source.h"
#include "datasets/aminer_gen.h"
#include "datasets/dataset_io.h"
#include "graph/graph_io.h"
#include "graph/node_sampler.h"
#include "graph/transition_table.h"
#include "perfbench/schedule.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "serving/query_service.h"
#include "serving/snapshot_manager.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/semantic_measure.h"

namespace semsim::perfbench {
namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

/// Phase progress on stderr, so stdout stays the report.
void Progress(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%6.1f s] %s\n", Seconds(Clock::now() - start), what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile() or exit: the phase sizes are fixed so that every reported
/// percentile has at least ten samples beyond it.
double Tail(const std::vector<double>& samples, double q, const char* what) {
  std::optional<double> p = Percentile(samples, q);
  if (!p) {
    std::fprintf(stderr,
                 "perfbench: %s: %zu samples are too few for p%g\n", what,
                 samples.size(), q * 100);
    std::exit(2);
  }
  return *p;
}

/// CPU time of every thread of this process.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string Need(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument %s\n", argv[i]);
      std::exit(2);
    }
    args.values[key.substr(2)] = argv[i + 1];
  }
  return args;
}

// ---------------------------------------------------------------------------
// Inputs

void Generate(int num_authors, const std::string& dir) {
  AminerOptions options;
  options.num_authors = num_authors;
  options.seed = kDatasetSeed;
  Dataset dataset = Unwrap(GenerateAminer(options), "GenerateAminer");
  Require(SaveDataset(dataset, dir), "SaveDataset");
}

// ---------------------------------------------------------------------------
// The served system

/// Keeps the loaded dataset alive for as long as any graph version or
/// measure derived from it is.
struct LoadedInputs {
  Dataset dataset;
  std::unique_ptr<LinMeasure> lin;
};

struct Server {
  std::shared_ptr<const Hin> graph;
  std::shared_ptr<const SemanticMeasure> measure;
  const SemanticContext* context = nullptr;
  EngineSnapshotOptions options;
  WalkIndexOptions walk_options;
  std::unique_ptr<DynamicWalkIndex> dynamic;  // writers only
  std::unique_ptr<BatchQueryEngine> engine;
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<QueryService> service;

  ~Server() {
    if (service) service->Shutdown();
  }
};

struct SetupTimes {
  double total_s = 0;
  double walk_build_s = 0;
  double snapshot_create_s = 0;
};

/// From the input files on disk to a service that accepts requests.
std::unique_ptr<Server> SetUp(const std::string& dir, bool writable,
                              Tracer& tracer, SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  const uint32_t root = tracer.Open("setup");
  auto server = std::make_unique<Server>();

  Clock::time_point t = Clock::now();
  auto inputs = std::make_shared<LoadedInputs>();
  inputs->dataset = Unwrap(LoadDataset(dir), "LoadDataset");
  inputs->lin = std::make_unique<LinMeasure>(&inputs->dataset.context);
  server->graph = std::shared_ptr<const Hin>(inputs, &inputs->dataset.graph);
  server->measure =
      std::shared_ptr<const SemanticMeasure>(inputs, inputs->lin.get());
  server->context = &inputs->dataset.context;
  tracer.Record("dataset_io.load", t, Clock::now(), root);

  server->walk_options.num_walks = kNumWalks;
  server->walk_options.walk_length = kWalkLength;
  server->walk_options.weighted = true;
  server->walk_options.num_threads = kThreads;
  server->options.eager_single_source = writable;

  EngineSnapshotPtr initial;
  t = Clock::now();
  if (writable) {
    server->dynamic = std::make_unique<DynamicWalkIndex>(
        DynamicWalkIndex::Build(server->graph.get(), server->walk_options));
    times->walk_build_s = Seconds(Clock::now() - t);
    tracer.Record("walk_index.build", t, Clock::now(), root);
    // Exported copy-on-write, so later updates never touch the walks the
    // initial snapshot serves.
    t = Clock::now();
    initial = Unwrap(server->dynamic->UpdateToSnapshot(
                         server->graph, {}, server->measure, server->options,
                         /*version=*/1),
                     "DynamicWalkIndex::UpdateToSnapshot");
  } else {
    auto walks = std::make_shared<const WalkIndex>(
        WalkIndex::Build(*server->graph, server->walk_options));
    times->walk_build_s = Seconds(Clock::now() - t);
    tracer.Record("walk_index.build", t, Clock::now(), root);
    t = Clock::now();
    initial = Unwrap(EngineSnapshot::Create(server->graph, server->measure,
                                            walks, server->options,
                                            /*version=*/1),
                     "EngineSnapshot::Create");
  }
  times->snapshot_create_s = Seconds(Clock::now() - t);
  tracer.Record("engine_snapshot.create", t, Clock::now(), root);

  t = Clock::now();
  server->engine = std::make_unique<BatchQueryEngine>(
      Unwrap(BatchQueryEngine::CreateFromSnapshot(initial, kThreads),
             "BatchQueryEngine::CreateFromSnapshot"));
  server->manager = std::make_unique<SnapshotManager>(
      Unwrap(SnapshotManager::Create(initial), "SnapshotManager::Create"));
  server->service = std::make_unique<QueryService>(
      Unwrap(QueryService::Create(server->engine.get(), server->manager.get()),
             "QueryService::Create"));
  tracer.Record("service.create", t, Clock::now(), root);
  tracer.Close(root);
  times->total_s = Seconds(Clock::now() - start);
  return server;
}

// ---------------------------------------------------------------------------
// Accounting

/// One OK, undegraded response kept for the correctness gate.
struct GateSample {
  Phase phase;
  uint64_t index;
  uint64_t version;
  std::vector<double> scores;
  std::vector<std::vector<Scored>> topk;
};

/// Every response of the timed window passes through Account(); the
/// collector threads are its only callers, one at a time per phase.
struct Ledger {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t undegraded_ok = 0;
  int64_t rejected = 0;
  int64_t deadline_exceeded = 0;
  int64_t other_failed = 0;
  int64_t degraded = 0;
  double walk_budget_sum = 0;
  int64_t pairs_ok = 0;
  // All responses (the ledger cross-check) and OK kPairs responses only
  // (the per-pair estimator ratios).
  McQueryStats stats;
  McQueryStats pair_stats;
  std::set<uint64_t> versions;
  std::vector<GateSample> gate;
  // Normalizer lookups of the first kAfterSwapRequests OK responses served
  // by each version after the initial one.
  std::map<uint64_t, int> after_swap_seen;
  int64_t after_swap_hits = 0;
  int64_t after_swap_lookups = 0;
};

/// About one request in this many is replayed by the correctness gate.
constexpr uint64_t kGateEvery = 32;

void Account(uint64_t seed, Phase phase, uint64_t index,
             QueryRequestKind kind, size_t num_pairs, QueryResponse& resp,
             Ledger& ledger) {
  ++ledger.attempted;
  if (resp.snapshot_version != 0) ledger.versions.insert(resp.snapshot_version);
  ledger.stats.Merge(resp.stats);
  switch (resp.status.code()) {
    case StatusCode::kOk:
      break;
    case StatusCode::kResourceExhausted:
      ++ledger.rejected;
      return;
    case StatusCode::kDeadlineExceeded:
      ++ledger.deadline_exceeded;
      return;
    default:
      ++ledger.other_failed;
      return;
  }
  ++ledger.ok;
  ledger.walk_budget_sum += resp.effective_walk_budget;
  if (kind == QueryRequestKind::kPairs) {
    ledger.pairs_ok += static_cast<int64_t>(num_pairs);
    ledger.pair_stats.Merge(resp.stats);
  }
  if (resp.degraded) {
    ++ledger.degraded;
    return;
  }
  ++ledger.undegraded_ok;
  if (resp.snapshot_version > 1 &&
      ledger.after_swap_seen[resp.snapshot_version]++ < kAfterSwapRequests) {
    ledger.after_swap_hits += resp.stats.shared_cache_hits;
    ledger.after_swap_lookups +=
        resp.stats.shared_cache_hits + resp.stats.normalizers_computed;
  }
  if (StreamSeed(seed, phase, index) % kGateEvery == 0) {
    ledger.gate.push_back(GateSample{phase, index, resp.snapshot_version,
                                     std::move(resp.scores),
                                     std::move(resp.topk)});
  }
}

// ---------------------------------------------------------------------------
// The benchmark run

struct Counters {
  uint64_t met = 0, pruned = 0, sem_pruned = 0, computed = 0, static_hits = 0,
           shared_hits = 0, cache_hits = 0, cache_misses = 0,
           cache_evictions = 0;

  static Counters Read() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    Counters c;
    c.met = reg.GetCounter("semsim_query_met_walks_total")->Value();
    c.pruned = reg.GetCounter("semsim_query_pruned_walks_total")->Value();
    c.sem_pruned = reg.GetCounter("semsim_query_sem_pruned_total")->Value();
    c.computed =
        reg.GetCounter("semsim_query_normalizers_computed_total")->Value();
    c.static_hits =
        reg.GetCounter("semsim_query_normalizer_cache_hits_total")->Value();
    c.shared_hits =
        reg.GetCounter("semsim_query_shared_cache_hits_total")->Value();
    c.cache_hits = reg.GetCounter("semsim_cache_normalizer_hits_total")->Value();
    c.cache_misses =
        reg.GetCounter("semsim_cache_normalizer_misses_total")->Value();
    c.cache_evictions =
        reg.GetCounter("semsim_cache_normalizer_evictions_total")->Value();
    return c;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace)
      : spec_(spec), seed_(seed), seconds_(seconds), tracer_(trace) {}

  int Run(const std::string& data_dir, const std::string& trace_out);

 private:
  void Warmup();
  void OpenLoop();
  struct ClosedResult {
    double rps = 0;
    /// OK requests per CPU-second of the whole process: the capacity one
    /// core gives.
    double rps_per_cpu = 0;
    double cpu_per_ok_traced = 0;
    double cpu_per_ok_untraced = 0;
  };
  ClosedResult ClosedLoop(Phase phase, uint64_t seed, double seconds,
                          Ledger& ledger, bool alternate_tracing = false);
  void Writer();
  EngineSnapshotPtr ApplyWrite(int batch, uint32_t parent);
  bool Gate();
  void IdlePublishes();
  void Probes(const std::string& data_dir);
  bool Accuracy(double* mean_abs, double* max_abs);
  Clock::time_point Submit(QueryRequest request, uint64_t id,
                           Future<QueryResponse>* future);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double seconds_;
  Tracer tracer_;

  std::unique_ptr<Server> server_;
  std::unique_ptr<EndpointSampler> endpoints_;
  std::vector<NodeId> authors_;
  // Every snapshot the manager has published, kept so the gate can replay
  // responses against the exact version that served them.
  std::mutex published_mu_;
  std::map<uint64_t, EngineSnapshotPtr> published_;
  std::shared_ptr<const Hin> write_graph_;

  // Open-loop results.
  size_t open_requests_ = 0;
  std::vector<double> latency_s_, queue_s_, run_s_, lag_s_, submit_s_;
  size_t queue_depth_max_ = 0;
  Ledger ledger_;
  double sat_rps_ = 0;
  double sat_rps_per_cpu_ = 0;

  // Writer <-> generator handoff.
  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::vector<Clock::time_point> write_issued_;
  std::vector<double> publish_lag_s_, update_s_, publish_s_;
  double resampled_ = 0, walks_total_ = 0;
  int64_t idle_after_swap_hits_ = 0, idle_after_swap_lookups_ = 0;

  std::vector<Metric> layer_;
};

Clock::time_point Bench::Submit(QueryRequest request, uint64_t id,
                                Future<QueryResponse>* future) {
  const Clock::time_point t = Clock::now();
  *future = server_->service->Submit(std::move(request));
  const Clock::time_point done = Clock::now();
  tracer_.Record("query_service.submit", t, done, 0, id);
  return done;
}

void Bench::Warmup() {
  Ledger scratch;
  ClosedLoop(Phase::kWarmup, kWarmupSeed, /*seconds=*/0, scratch);
}

/// Fixed-rate arrivals from this thread, collection in order on another.
/// FIFO service resolves futures in submission order, so the collector
/// observes each one as it resolves.
void Bench::OpenLoop() {
  const size_t n = open_requests_;
  std::vector<QueryRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(MakeRequest(spec_, *endpoints_, seed_, Phase::kOpen, i));
    requests.back().timeout = std::chrono::nanoseconds(
        static_cast<int64_t>(spec_.deadline_ms * 1e6));
  }
  std::vector<Clock::time_point> due(n);
  std::vector<Future<QueryResponse>> futures(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t submitted = 0;

  latency_s_.assign(n, 0);
  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
      }
      futures[i].Wait();
      const Clock::time_point done = Clock::now();
      QueryResponse resp = futures[i].Take();
      latency_s_[i] = !resp.ok() ? INFINITY : Seconds(done - due[i]);
      tracer_.Record("request", due[i], done, 0, i + 1);
      if (resp.ok()) {
        queue_s_.push_back(resp.queue_seconds);
        run_s_.push_back(resp.run_seconds);
      }
      Account(seed_, Phase::kOpen, i, requests[i].kind,
              requests[i].pairs.size(), resp, ledger_);
    }
  });

  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / spec_.open_rate_rps));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  int next_write = 0;
  lag_s_.reserve(n);
  submit_s_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + interval * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point now = Clock::now();
    lag_s_.push_back(Seconds(now - due[i]));
    if (next_write < spec_.write_batches &&
        i == WriteIndex(n, spec_.write_batches, next_write)) {
      std::lock_guard<std::mutex> lock(write_mu_);
      write_issued_.push_back(now);
      ++next_write;
      write_cv_.notify_one();
    }
    QueryRequest request = requests[i];
    const Clock::time_point done = Submit(std::move(request), i + 1, &futures[i]);
    submit_s_.push_back(Seconds(done - now));
    queue_depth_max_ =
        std::max(queue_depth_max_, server_->service->queue_depth());
    {
      std::lock_guard<std::mutex> lock(mu);
      submitted = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
}

/// At most kThreads requests in flight; `seconds` == 0 runs exactly the
/// workload's warm-up requests instead of a timed phase. With
/// `alternate_tracing`, span recording switches on and off in
/// traced-untraced-untraced-traced quarters of kTraceToggleSeconds, so
/// the two CPU costs per request see the same cache state on average.
Bench::ClosedResult Bench::ClosedLoop(Phase phase, uint64_t seed,
                                      double seconds, Ledger& ledger,
                                      bool alternate_tracing) {
  std::counting_semaphore<kThreads> in_flight(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  struct Pending {
    uint64_t index;
    QueryRequestKind kind;
    size_t num_pairs;
    bool traced;
    Future<QueryResponse> future;
  };
  std::deque<Pending> pending;
  bool done = false;
  const auto timeout = std::chrono::nanoseconds(
      static_cast<int64_t>(spec_.deadline_ms * 1e6));
  const bool timed = seconds > 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  // By whether tracing was on at submission: OK responses, and the
  // process CPU time spent up to each response since the one before.
  int64_t ok[2] = {0, 0};
  double cpu_in[2] = {0, 0};
  std::vector<double> ok_at;  // completion times, seconds from start
  double cpu_prev = ProcessCpuSeconds();
  Clock::time_point last = start;
  auto traced_at = [&](double elapsed) {
    const int quarter = static_cast<int>(elapsed / kTraceToggleSeconds) % 4;
    return quarter == 0 || quarter == 3;
  };

  std::thread collector([&] {
    while (true) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) break;
        item = std::move(pending.front());
        pending.pop_front();
      }
      QueryResponse resp = item.future.Take();
      last = Clock::now();
      const double cpu = ProcessCpuSeconds();
      cpu_in[item.traced] += cpu - cpu_prev;
      cpu_prev = cpu;
      if (resp.ok()) {
        ++ok[item.traced];
        ok_at.push_back(Seconds(last - start));
      }
      Account(seed, phase, item.index, item.kind, item.num_pairs, resp,
              ledger);
      in_flight.release();
    }
  });

  for (uint64_t i = 0;; ++i) {
    in_flight.acquire();
    const Clock::time_point now = Clock::now();
    if (timed ? now >= end
              : i >= static_cast<uint64_t>(spec_.warmup_requests)) {
      break;
    }
    if (alternate_tracing) tracer_.set_enabled(traced_at(Seconds(now - start)));
    QueryRequest request = MakeRequest(spec_, *endpoints_, seed, phase, i);
    request.timeout = timeout;
    Pending item{i, request.kind, request.pairs.size(), tracer_.enabled(), {}};
    Submit(std::move(request), 0, &item.future);
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  const double total = Seconds(last - start);
  ClosedResult result;
  // Wall-clock rate: the median over fixed sub-windows, so one stretch of
  // expensive uncached normalizers moves a sub-window, not the rate.
  std::vector<double> rates;
  const int windows = static_cast<int>(total / kSatWindowSeconds);
  for (int w = 0; w < windows; ++w) {
    const auto lo = std::lower_bound(ok_at.begin(), ok_at.end(),
                                     w * kSatWindowSeconds);
    const auto hi = std::lower_bound(ok_at.begin(), ok_at.end(),
                                     (w + 1) * kSatWindowSeconds);
    rates.push_back(static_cast<double>(hi - lo) / kSatWindowSeconds);
  }
  result.rps = rates.empty() ? static_cast<double>(ok[0] + ok[1]) / total
                             : Median(rates);
  // CPU rate over the whole phase: time the host steals from this
  // process's threads is not CPU time of theirs, so it does not count, and
  // the rare very expensive pair counts at its full cost.
  result.rps_per_cpu =
      static_cast<double>(ok[0] + ok[1]) / (cpu_in[0] + cpu_in[1]);
  if (alternate_tracing) {
    tracer_.set_enabled(true);
    result.cpu_per_ok_traced = cpu_in[1] / static_cast<double>(ok[1]);
    result.cpu_per_ok_untraced = cpu_in[0] / static_cast<double>(ok[0]);
  }
  return result;
}

EngineSnapshotPtr Bench::ApplyWrite(int batch, uint32_t parent) {
  Server& s = *server_;
  const std::vector<NodePair> edges = MakeWriteBatch(authors_, batch);
  Clock::time_point t = Clock::now();
  HinBuilder builder = write_graph_->ToBuilder();
  std::vector<NodeId> dirty;
  for (const NodePair& e : edges) {
    Require(builder.AddUndirectedEdge(e.first, e.second, "co_author", 1.0),
            "AddUndirectedEdge");
    dirty.push_back(e.first);
    dirty.push_back(e.second);
  }
  auto next = std::make_shared<const Hin>(
      Unwrap(std::move(builder).Build(), "HinBuilder::Build"));
  tracer_.Record("graph.rebuild", t, Clock::now(), parent);

  t = Clock::now();
  size_t resampled = 0;
  EngineSnapshotPtr snap =
      Unwrap(s.dynamic->UpdateToSnapshot(next, dirty, s.measure, s.options,
                                         s.manager->NextVersion(), &resampled),
             "DynamicWalkIndex::UpdateToSnapshot");
  update_s_.push_back(Seconds(Clock::now() - t));
  tracer_.Record("dynamic_walk_index.update_to_snapshot", t, Clock::now(),
                 parent);
  resampled_ += static_cast<double>(resampled);
  walks_total_ += static_cast<double>(next->num_nodes()) * kNumWalks;
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_[snap->version()] = snap;
  }
  t = Clock::now();
  Require(s.manager->Publish(snap), "SnapshotManager::Publish");
  publish_s_.push_back(Seconds(Clock::now() - t));
  tracer_.Record("snapshot_manager.publish", t, Clock::now(), parent);
  write_graph_ = std::move(next);
  return snap;
}

void Bench::Writer() {
  for (int b = 0; b < spec_.write_batches; ++b) {
    Clock::time_point issued;
    {
      std::unique_lock<std::mutex> lock(write_mu_);
      write_cv_.wait(lock, [&] {
        return write_issued_.size() > static_cast<size_t>(b);
      });
      issued = write_issued_[b];
    }
    const uint32_t span = tracer_.Open("write");
    ApplyWrite(b, span);
    tracer_.Close(span);
    publish_lag_s_.push_back(Seconds(Clock::now() - issued));
  }
}

/// Sampled OK, undegraded responses must be bit-identical to a direct
/// engine call on the snapshot version that served them, and every served
/// version must be one that was published.
bool Bench::Gate() {
  bool ok = true;
  for (uint64_t v : ledger_.versions) {
    if (published_.count(v) == 0) {
      std::printf("GATE: served version %" PRIu64 " was never published\n", v);
      ok = false;
    }
  }
  size_t checked = 0;
  for (const GateSample& sample : ledger_.gate) {
    auto it = published_.find(sample.version);
    if (it == published_.end()) continue;  // reported above
    const EngineSnapshot& snap = *it->second;
    const SemSimMcOptions& mc = snap.options().query.mc;
    QueryRequest request =
        MakeRequest(spec_, *endpoints_, seed_, sample.phase, sample.index);
    bool same = true;
    if (request.kind == QueryRequestKind::kPairs) {
      same = server_->engine->QueryBatch(snap, request.pairs, mc).values ==
             sample.scores;
    } else {
      std::vector<std::vector<Scored>> direct =
          server_->engine->TopKBatch(snap, request.sources, request.k, mc)
              .values;
      same = direct.size() == sample.topk.size();
      for (size_t i = 0; same && i < direct.size(); ++i) {
        same = direct[i].size() == sample.topk[i].size();
        for (size_t j = 0; same && j < direct[i].size(); ++j) {
          same = direct[i][j].node == sample.topk[i][j].node &&
                 direct[i][j].score == sample.topk[i][j].score;
        }
      }
    }
    if (!same) {
      std::printf("GATE: response %" PRIu64 " (phase %d, version %" PRIu64
                  ") differs from the direct engine call\n",
                  sample.index, static_cast<int>(sample.phase),
                  sample.version);
      ok = false;
    }
    ++checked;
  }
  std::printf("gate: %zu sampled responses replayed over %zu versions: %s\n",
              checked, ledger_.versions.size(), ok ? "bit-identical" : "FAIL");
  return ok && checked > 0;
}

/// Read-only workloads take their writes after the timed window, on an
/// idle service: publish lag without competing traffic.
void Bench::IdlePublishes() {
  Server& s = *server_;
  EngineSnapshotPtr current = s.manager->Acquire();
  s.dynamic = std::make_unique<DynamicWalkIndex>(
      Unwrap(DynamicWalkIndex::Adopt(s.graph.get(), current->walk_index()),
             "DynamicWalkIndex::Adopt"));
  current.reset();
  for (int b = 0; b < kIdleWrites; ++b) {
    const Clock::time_point issued = Clock::now();
    const uint32_t span = tracer_.Open("write");
    EngineSnapshotPtr snap = ApplyWrite(b, span);
    tracer_.Close(span);
    publish_lag_s_.push_back(Seconds(Clock::now() - issued));
    for (int i = 0; i < kAfterSwapRequests; ++i) {
      QueryRequest request = MakeRequest(spec_, *endpoints_, seed_,
                                         Phase::kProbe, b * 1000 + i);
      QueryResponse resp = s.service->Submit(std::move(request)).Take();
      if (resp.ok() && resp.snapshot_version == snap->version()) {
        idle_after_swap_hits_ += resp.stats.shared_cache_hits;
        idle_after_swap_lookups_ +=
            resp.stats.shared_cache_hits + resp.stats.normalizers_computed;
      }
    }
  }
}

// Written once after the probe loops so the compiler keeps them.
volatile double g_probe_sink = 0;

/// Layer timings that need no traffic, taken after the timed window
/// through each layer's public building blocks, single-threaded unless
/// the layer's own pool is the point.
void Bench::Probes(const std::string& data_dir) {
  Server& s = *server_;
  EngineSnapshotPtr snap = s.manager->Acquire();
  const Hin& graph = snap->graph();
  const SemSimMcEstimator& est = snap->estimator();
  const SemSimMcOptions mc = snap->options().query.mc;
  const WalkIndex& walks = snap->walk_index();
  auto add = [&](const char* name, double value, const char* unit) {
    layer_.push_back(Metric{name, value, unit});
  };

  Clock::time_point t = Clock::now();
  Unwrap(LoadHin(data_dir + "/graph.hin"), "LoadHin");
  add("graph.load_s", Seconds(Clock::now() - t), "s");
  t = Clock::now();
  NodeSamplerIndex sampler =
      NodeSamplerIndex::Build(graph, SampleDirection::kIn, &s.engine->pool());
  add("node_sampler.build_s", Seconds(Clock::now() - t), "s");
  t = Clock::now();
  TransitionTable transitions = TransitionTable::Build(graph);
  add("transition_table.build_s", Seconds(Clock::now() - t), "s");
  t = Clock::now();
  FlatSemanticTable flat = FlatSemanticTable::Build(*s.context);
  add("flat_semantic_table.build_s", Seconds(Clock::now() - t), "s");

  // Estimator sub-stages on fresh probe pairs.
  const std::vector<NodePair> pairs =
      MakePairs(*endpoints_, seed_, Phase::kProbe, 128);
  constexpr int kSemRepeats = 200;
  double sink = 0;
  t = Clock::now();
  for (int r = 0; r < kSemRepeats; ++r) {
    for (const NodePair& p : pairs) sink += est.SemValue(p.first, p.second);
  }
  add("semantic.sem_ns",
      Seconds(Clock::now() - t) * 1e9 / (kSemRepeats * pairs.size()), "ns");

  t = Clock::now();
  for (const NodePair& p : pairs) {
    for (int w = 0; w < walks.num_walks(); ++w) {
      sink += FirstMeetingStep(walks, p.first, p.second, w);
    }
  }
  add("walk_index.meet_ns_per_walk",
      Seconds(Clock::now() - t) * 1e9 /
          static_cast<double>(pairs.size() * walks.num_walks()),
      "ns");

  double coupled_s = 0;
  int64_t coupled_calls = 0;
  for (const NodePair& p : pairs) {
    if (est.SemValue(p.first, p.second) <= mc.theta) continue;
    SemSimMcEstimator::QueryContext context;
    std::vector<std::pair<int, int>> met;
    for (int w = 0; w < walks.num_walks(); ++w) {
      int step = FirstMeetingStep(walks, p.first, p.second, w);
      if (step >= 0) met.emplace_back(w, step);
    }
    t = Clock::now();
    for (const auto& [w, step] : met) {
      sink += est.CoupledWalkScore(p.first, p.second, w, step, mc, &context);
    }
    coupled_s += Seconds(Clock::now() - t);
    coupled_calls += static_cast<int64_t>(met.size());
  }
  add("estimator.coupled_walk_us",
      coupled_calls == 0 ? 0 : coupled_s * 1e6 / coupled_calls, "us");

  t = Clock::now();
  for (const NodePair& p : pairs) sink += est.Query(p.first, p.second, mc);
  add("estimator.pair_us",
      Seconds(Clock::now() - t) * 1e6 / static_cast<double>(pairs.size()),
      "us");

  // Engine fan-out: the same batch size on one worker and on the pool.
  const std::vector<NodePair> batch_a =
      MakePairs(*endpoints_, seed_ + 1, Phase::kProbe, 256);
  const std::vector<NodePair> batch_b =
      MakePairs(*endpoints_, seed_ + 2, Phase::kProbe, 256);
  BatchQueryEngine single = Unwrap(BatchQueryEngine::CreateFromSnapshot(snap, 1),
                                   "BatchQueryEngine::CreateFromSnapshot");
  t = Clock::now();
  sink += single.QueryBatch(batch_a).values.back();
  add("batch_engine.pairs_per_s_1t",
      static_cast<double>(batch_a.size()) / Seconds(Clock::now() - t), "1/s");
  t = Clock::now();
  sink += s.engine->QueryBatch(*snap, batch_b, mc).values.back();
  add("batch_engine.pairs_per_s_nt",
      static_cast<double>(batch_b.size()) / Seconds(Clock::now() - t), "1/s");

  // Pool dispatch: a one-pair QueryBatch minus the bare Query of the same
  // (cached) pair.
  std::vector<double> via_batch, via_query;
  for (int r = 0; r < 400; ++r) {
    const NodePair& p = pairs[r % 16];
    t = Clock::now();
    sink += s.engine->QueryBatch(*snap, std::span<const NodePair>(&p, 1), mc)
                .values[0];
    via_batch.push_back(Seconds(Clock::now() - t));
    t = Clock::now();
    sink += est.Query(p.first, p.second, mc);
    via_query.push_back(Seconds(Clock::now() - t));
  }
  add("batch_engine.dispatch_us",
      (Median(via_batch) - Median(via_query)) * 1e6, "us");

  {
    t = Clock::now();
    SingleSourceIndex inverted =
        SingleSourceIndex::Build(walks, graph.num_nodes(), &s.engine->pool());
    add("single_source.build_s", Seconds(Clock::now() - t), "s");
    add("single_source.mb", inverted.MemoryBytes() / 1048576.0, "MB");
  }
  std::vector<NodeId> sources;
  constexpr int kTopKSources = 2;
  for (int i = 0; i <= kTopKSources; ++i) sources.push_back(pairs[i].first);
  // The first source builds the snapshot's lazy inverted index.
  sink += s.engine->TopKBatch(*snap, std::span<const NodeId>(sources.data(), 1),
                              kTopK, mc)
              .values.size();
  t = Clock::now();
  sink += s.engine->TopKBatch(
                     *snap,
                     std::span<const NodeId>(sources.data() + 1, kTopKSources),
                     kTopK, mc)
              .values.size();
  add("topk.ms_per_source", Seconds(Clock::now() - t) * 1e3 / kTopKSources,
      "ms");
  add("scratch.reuse_rate", s.engine->scratch_pool().reuse_rate(), "share");
  g_probe_sink = sink;
}

bool Bench::Accuracy(double* mean_abs, double* max_abs) {
  QueryRequest request;
  request.pairs =
      MakePairs(*endpoints_, kAccuracySeed, Phase::kAccuracy, kAccuracyPairs);
  const std::vector<NodePair> pairs = request.pairs;
  QueryResponse resp = server_->service->Submit(std::move(request)).Take();
  EngineSnapshotPtr snap = server_->manager->Acquire();
  if (!resp.ok() || resp.degraded ||
      resp.snapshot_version != snap->version()) {
    std::printf("accuracy probe failed: %s\n", resp.status.ToString().c_str());
    return false;
  }
  IterativeOptions oracle;
  oracle.decay = snap->options().query.mc.decay;
  oracle.max_iterations = kOracleIterations;
  oracle.use_weights = true;
  oracle.semantic = &snap->semantic();
  oracle.use_partial_sums = true;
  oracle.num_threads = kThreads;
  ScoreMatrix exact = Unwrap(ComputeIterativeScores(snap->graph(), oracle),
                             "ComputeIterativeScores");
  double sum = 0;
  *max_abs = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    double err = std::fabs(resp.scores[i] - exact.at(pairs[i].first,
                                                     pairs[i].second));
    sum += err;
    *max_abs = std::max(*max_abs, err);
  }
  *mean_abs = sum / static_cast<double>(pairs.size());
  return true;
}

int Bench::Run(const std::string& data_dir, const std::string& trace_out) {
  const bool traced = tracer_.enabled();
  const bool writes = spec_.write_batches > 0;

  // Set-up: the median of several, each torn down before the next, except
  // in the traced run, which needs one set-up's spans.
  Progress("set-up");
  std::vector<double> setup_s;
  SetupTimes times;
  const int repeats = traced ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    server_.reset();
    server_ = SetUp(data_dir, writes, tracer_, &times);
    setup_s.push_back(times.total_s);
  }
  Server& s = *server_;
  EngineSnapshotPtr initial = s.manager->Acquire();
  published_[initial->version()] = initial;
  write_graph_ = s.graph;
  authors_ = AuthorNodes(*s.graph);
  endpoints_ =
      std::make_unique<EndpointSampler>(WorkloadEndpoints(spec_, *s.graph));
  const double walk_mb = initial->walk_index().MemoryBytes() / 1048576.0;
  const double snapshot_mb = initial->MemoryBytes() / 1048576.0;
  initial.reset();

  Progress("set-up done; warm-up");
  const Clock::time_point warm = Clock::now();
  Warmup();
  const double warmup_s = Seconds(Clock::now() - warm);

  // ---- timed window ----------------------------------------------------
  Progress("timed window");
  const Counters before = Counters::Read();
  open_requests_ = static_cast<size_t>(spec_.open_rate_rps * seconds_ *
                                       kOpenShare);
  std::thread writer;
  if (writes) writer = std::thread([this] { Writer(); });
  OpenLoop();
  if (writer.joinable()) writer.join();
  // The traced run alternates span recording within this phase; its
  // throughput is reported as bench.sat_rps_wall with the traced/untraced
  // CPU cost ratio beside it.
  const ClosedResult closed = ClosedLoop(
      Phase::kClosed, seed_, seconds_ * (1 - kOpenShare), ledger_, traced);
  sat_rps_ = closed.rps;
  sat_rps_per_cpu_ = closed.rps_per_cpu;
  const Counters after = Counters::Read();
  const double peak_rss_mb = PeakRssMb();
  // ---- end of timed window ---------------------------------------------

  const int64_t failed = ledger_.rejected + ledger_.deadline_exceeded +
                         ledger_.other_failed;
  const McQueryStats& st = ledger_.stats;
  const double mismatch =
      std::fabs(static_cast<double>(after.met - before.met) - st.met_walks) +
      std::fabs(static_cast<double>(after.pruned - before.pruned) -
                st.pruned_walks) +
      std::fabs(static_cast<double>(after.sem_pruned - before.sem_pruned) -
                static_cast<double>(st.sem_pruned_queries)) +
      std::fabs(static_cast<double>(after.computed - before.computed) -
                static_cast<double>(st.normalizers_computed)) +
      std::fabs(static_cast<double>(after.static_hits - before.static_hits) -
                static_cast<double>(st.normalizer_cache_hits)) +
      std::fabs(static_cast<double>(after.shared_hits - before.shared_hits) -
                static_cast<double>(st.shared_cache_hits));
  const bool ledger_ok = mismatch == 0 || failed > 0;
  std::printf("ledger: responses vs semsim_query_* deltas differ by %.0f "
              "(%" PRId64 " failed requests): %s\n",
              mismatch, failed, ledger_ok ? "ok" : "FAIL");

  const double lag_p99_ms = Tail(lag_s_, 0.99, "generator lag") * 1e3;
  const bool generator_ok =
      lag_p99_ms <= kMaxGeneratorLagShare * spec_.deadline_ms;
  if (!generator_ok) {
    std::printf("INVALID RUN: the generator's p99 lag %.3f ms behind its "
                "schedule exceeds %.3f ms\n",
                lag_p99_ms, kMaxGeneratorLagShare * spec_.deadline_ms);
  }

  Progress("correctness gate");
  const bool gate_ok = Gate();

  // Before the idle publishes, which change the served graph.
  Progress("accuracy");
  double mean_abs = 0, max_abs = 0;
  bool accuracy_ok = true;
  if (!traced) {
    accuracy_ok = Accuracy(&mean_abs, &max_abs);
  }

  if (!writes) {
    Progress("idle publishes");
    IdlePublishes();
  }

  double trace_overhead = 0;
  if (traced) {
    Progress("layer probes");
    Probes(data_dir);
    trace_overhead = closed.cpu_per_ok_traced / closed.cpu_per_ok_untraced - 1;
  }

  Progress("done");
  const bool correct = ledger_ok && gate_ok && generator_ok && accuracy_ok;
  std::vector<Metric> metrics;
  if (!traced) {
    const double attempted = static_cast<double>(ledger_.attempted);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"sat_rps_per_cpu", sat_rps_per_cpu_, "1/cpu-s"},
        {"ok_share", ledger_.ok / attempted, "share"},
        {"undegraded_share", ledger_.undegraded_ok / attempted, "share"},
        {"mean_abs_err", mean_abs, "score"},
        {"max_abs_err", max_abs, "score"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"publish_lag_s", Median(publish_lag_s_), "s"},
    };
  } else {
    const double pairs = static_cast<double>(std::max<int64_t>(
        ledger_.pairs_ok, 1));
    const double cache_lookups =
        static_cast<double>((after.cache_hits - before.cache_hits) +
                            (after.cache_misses - before.cache_misses));
    const int64_t swap_hits = writes ? ledger_.after_swap_hits
                                     : idle_after_swap_hits_;
    const int64_t swap_lookups = writes ? ledger_.after_swap_lookups
                                        : idle_after_swap_lookups_;
    const McQueryStats& ps = ledger_.pair_stats;
    EngineSnapshotPtr final_snap = s.manager->Acquire();
    metrics = {
        {"query_service.queue_wait_p50_ms",
         Tail(queue_s_, 0.50, "queue wait") * 1e3, "ms"},
        {"query_service.queue_wait_p99_ms",
         Tail(queue_s_, 0.99, "queue wait") * 1e3, "ms"},
        {"query_service.run_p50_ms", Tail(run_s_, 0.50, "run") * 1e3, "ms"},
        {"query_service.run_p99_ms", Tail(run_s_, 0.99, "run") * 1e3, "ms"},
        {"query_service.submit_us", Median(submit_s_) * 1e6, "us"},
        {"query_service.queue_depth_max",
         static_cast<double>(queue_depth_max_), "count"},
        {"query_service.rejected", static_cast<double>(ledger_.rejected),
         "count"},
        {"query_service.deadline_exceeded",
         static_cast<double>(ledger_.deadline_exceeded), "count"},
        {"query_service.degraded", static_cast<double>(ledger_.degraded),
         "count"},
        {"query_service.walk_budget_mean",
         ledger_.walk_budget_sum / std::max<int64_t>(ledger_.ok, 1), "walks"},
        {"snapshot_manager.publish_us", Median(publish_s_) * 1e6, "us"},
        {"snapshot_manager.swaps", static_cast<double>(s.manager->swaps()),
         "count"},
        {"engine_snapshot.create_s", times.snapshot_create_s, "s"},
        {"engine_snapshot.mb", snapshot_mb, "MB"},
        {"dynamic_walk_index.update_to_snapshot_s", Median(update_s_), "s"},
        {"dynamic_walk_index.resampled_share", resampled_ / walks_total_,
         "share"},
        {"walk_index.build_s", times.walk_build_s, "s"},
        {"walk_index.mb", walk_mb, "MB"},
        {"estimator.met_walks_per_pair", ps.met_walks / pairs, "walks"},
        {"estimator.pruned_walks_per_pair", ps.pruned_walks / pairs, "walks"},
        {"estimator.sem_pruned_share", ps.sem_pruned_queries / pairs,
         "share"},
        {"estimator.normalizers_computed_per_pair",
         ps.normalizers_computed / pairs, "count"},
        {"normalizer_cache.hit_rate",
         cache_lookups == 0
             ? 0
             : (after.cache_hits - before.cache_hits) / cache_lookups,
         "share"},
        {"normalizer_cache.evictions",
         static_cast<double>(after.cache_evictions - before.cache_evictions),
         "count"},
        {"normalizer_cache.entries",
         static_cast<double>(final_snap->normalizer_cache()->size()),
         "count"},
        {"normalizer_cache.hit_rate_after_swap",
         swap_lookups == 0 ? 0 : static_cast<double>(swap_hits) / swap_lookups,
         "share"},
        {"bench.lat_p50_ms", Tail(latency_s_, 0.50, "latency") * 1e3, "ms"},
        {"bench.lat_p90_ms", Tail(latency_s_, 0.90, "latency") * 1e3, "ms"},
        {"bench.lat_p99_ms", Tail(latency_s_, 0.99, "latency") * 1e3, "ms"},
        {"bench.sat_rps_wall", sat_rps_, "1/s"},
        {"bench.generator_lag_p99_ms", lag_p99_ms, "ms"},
        {"bench.warmup_s", warmup_s, "s"},
        {"bench.trace_overhead", trace_overhead, "share"},
        {"bench.ledger_mismatch", mismatch, "count"},
    };
    metrics.insert(metrics.end(), layer_.begin(), layer_.end());
    if (!trace_out.empty() && !tracer_.WriteJsonLines(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger_.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof(value), "Infinity");
    }
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench generate|run --workload W ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.Need("workload"));
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.Need("workload").c_str());
    return 2;
  }
  if (command == "generate") {
    Progress("generate inputs");
    Generate(spec->num_authors, args.Need("out"));
    return 0;
  }
  if (command == "run") {
    const uint64_t seed =
        std::strtoull(args.Need("seed").c_str(), nullptr, 10);
    const double seconds = std::strtod(args.Need("seconds").c_str(), nullptr);
    if (!(seconds > 0)) {
      std::fprintf(stderr, "perfbench: --seconds must be positive\n");
      return 2;
    }
    Bench bench(*spec, seed, seconds, args.Get("trace", "0") == "1");
    return bench.Run(args.Need("data"), args.Get("trace-out", ""));
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace semsim::perfbench

int main(int argc, char** argv) { return semsim::perfbench::Main(argc, argv); }
