// The serving benchmark's workloads. Every rate, deadline and size here is
// an absolute constant, calibrated once and never derived from the run
// being measured; README.md gives the measurements behind each value.
#ifndef SEMSIM_PERFBENCH_WORKLOADS_H_
#define SEMSIM_PERFBENCH_WORKLOADS_H_

#include <string_view>

namespace semsim::perfbench {

struct WorkloadSpec {
  const char* name;
  /// AMiner generator size of the served graph.
  int num_authors;
  /// Endpoint distribution: Zipf exponent over node popularity
  /// (in-degree rank); 0 = uniform.
  double zipf_exponent;
  int pairs_per_request;
  /// Every `topk_every`-th request is a top-kTopK request for one source
  /// (0 = pairs only).
  int topk_every;
  /// Open-loop phase: fixed arrival rate and fixed per-request deadline.
  double open_rate_rps;
  double deadline_ms;
  /// Write batches issued during the open-loop phase (0 = read-only), each
  /// of kEdgesPerBatch new co_author edges.
  int write_batches;
  /// Untimed closed-loop requests before the timed window, of
  /// kWarmupPairsPerRequest pairs each: they fill the normalizer cache
  /// through the whole pool.
  int warmup_requests;
};

/// Walk index of every workload: the paper's n_w = 150, t = 15, sampled
/// proportionally to edge weights.
inline constexpr int kNumWalks = 150;
inline constexpr int kWalkLength = 15;
/// Worker threads of the engine and requests in flight in the closed loop
/// (the 4-core box the constants were calibrated on).
inline constexpr int kThreads = 4;
inline constexpr int kEdgesPerBatch = 32;
inline constexpr int kTopK = 10;
/// Share of --seconds spent in the open-loop phase; the rest is the
/// closed-loop saturation phase.
inline constexpr double kOpenShare = 0.5;
inline constexpr int kWarmupPairsPerRequest = 64;
/// The warm-up stream is the same for every --seed, so each timed window
/// starts from the same cache state.
inline constexpr uint64_t kWarmupSeed = 1;
/// The write batches are the same for every --seed, so every run of
/// mixed-reload ends on the same graph and the accuracy oracle compares
/// like with like.
inline constexpr uint64_t kWriteSeed = 1;
/// bench.sat_rps_wall is the median of the closed loop's rates over
/// sub-windows of this length.
inline constexpr double kSatWindowSeconds = 0.5;
/// Quarter length of the traced run's traced/untraced alternation.
inline constexpr double kTraceToggleSeconds = 0.25;
inline constexpr int kSetupRepeats = 9;
/// Publishes measured after the timed window on read-only workloads.
inline constexpr int kIdleWrites = 9;
/// Requests after each publish whose cache hit rate is reported.
inline constexpr int kAfterSwapRequests = 32;
/// Each workload serves one fixed dataset (AMiner generator seed) with the
/// library's default walk seed; --seed drives the request traffic.
/// Graph-to-graph differences in hub structure alone moved throughput on
/// a 12,000-author graph by 0.29 of its median across five generator
/// seeds, more than any bound the benchmark could hold.
inline constexpr uint64_t kDatasetSeed = 1;
/// The accuracy probes are one fixed set of pairs, so the error metrics
/// compare estimator outputs, not probe samples.
inline constexpr uint64_t kAccuracySeed = 1;
inline constexpr int kAccuracyPairs = 2000;
inline constexpr int kOracleIterations = 10;
/// A run is invalid when the generator's p99 lag behind its schedule
/// exceeds this share of the deadline.
inline constexpr double kMaxGeneratorLagShare = 0.25;

inline constexpr WorkloadSpec kWorkloads[] = {
    // name, authors, zipf, pairs/req, topk_every, rate, deadline,
    // writes, warm-up requests
    {"pairs-skewed", 1500, 1.1, 64, 0, 500.0, 100.0, 0, 100},
    {"mixed-reload", 1500, 1.1, 64, 50, 150.0, 1000.0, 9, 100},
};

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace semsim::perfbench

#endif  // SEMSIM_PERFBENCH_WORKLOADS_H_
