// Pure, seed-deterministic parts of the serving benchmark: the endpoint
// sampler, the request and write schedules, and the percentile helper.
// Nothing here reads a clock or starts a thread, so selftest.cc can pin
// every function.
#ifndef SEMSIM_PERFBENCH_SCHEDULE_H_
#define SEMSIM_PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/gen_util.h"
#include "graph/hin.h"
#include "perfbench/workloads.h"
#include "serving/query_service.h"

namespace semsim::perfbench {

/// Request streams. Each (seed, phase, index) names one request, so a
/// schedule never depends on how far another phase got.
enum class Phase : uint64_t {
  kWarmup = 1,
  kOpen = 2,
  kClosed = 3,
  kProbe = 4,
  kWrite = 5,
  kAccuracy = 6,
};

/// Seed of the RNG stream for item `index` of `phase`.
uint64_t StreamSeed(uint64_t seed, Phase phase, uint64_t index);

/// The AMiner author nodes: the endpoints of written co_author edges.
std::vector<NodeId> AuthorNodes(const Hin& graph);

/// Draws query endpoints: Zipf(exponent) over a popularity ranking (rank
/// 0 = most popular), or uniform over it when the exponent is 0.
class EndpointSampler {
 public:
  EndpointSampler(std::vector<NodeId> by_popularity, double zipf_exponent);

  NodeId Draw(Rng& rng) const;
  NodePair DrawPair(Rng& rng) const;

 private:
  std::vector<NodeId> ranking_;
  std::optional<ZipfSampler> zipf_;
};

/// The endpoint sampler `spec` asks for over `graph`: nodes ranked by
/// in-degree, highest first, ties by node id.
EndpointSampler WorkloadEndpoints(const WorkloadSpec& spec, const Hin& graph);

/// Request `index` of `phase`. Top-k requests ask for one source; warm-up
/// pair requests carry kWarmupPairsPerRequest pairs.
QueryRequest MakeRequest(const WorkloadSpec& spec,
                         const EndpointSampler& endpoints, uint64_t seed,
                         Phase phase, uint64_t index);

/// `count` fresh endpoint pairs from stream (seed, phase, 0).
std::vector<NodePair> MakePairs(const EndpointSampler& endpoints,
                                uint64_t seed, Phase phase, size_t count);

/// Write batch `batch`: kEdgesPerBatch undirected co_author edges between
/// distinct authors, the same for every --seed (kWriteSeed).
std::vector<NodePair> MakeWriteBatch(std::span<const NodeId> authors,
                                     uint64_t batch);

/// Open-loop request index at which write batch `batch` is issued.
size_t WriteIndex(size_t open_requests, int write_batches, int batch);

/// Canonical bytes of the first `requests` open-loop requests and every
/// write batch — equal bytes mean an identical schedule.
std::string ScheduleBytes(const WorkloadSpec& spec,
                          const EndpointSampler& endpoints,
                          std::span<const NodeId> authors, uint64_t seed,
                          size_t requests);

/// Nearest-rank q-quantile of `samples`. Refuses (nullopt) when fewer
/// than ten samples lie beyond it, since such a tail is one outlier's
/// reading.
std::optional<double> Percentile(std::vector<double> samples, double q);

}  // namespace semsim::perfbench

#endif  // SEMSIM_PERFBENCH_SCHEDULE_H_
