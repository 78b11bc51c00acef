#include "perfbench/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace semsim::perfbench {

uint64_t StreamSeed(uint64_t seed, Phase phase, uint64_t index) {
  // SplitMix64 over the three fields; Rng's own seeding scrambles again.
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^
               (static_cast<uint64_t>(phase) << 56) ^ index;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<NodeId> AuthorNodes(const Hin& graph) {
  std::vector<NodeId> authors;
  const LabelId label = graph.FindLabel("author");
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    if (graph.node_label(static_cast<NodeId>(v)) == label) {
      authors.push_back(static_cast<NodeId>(v));
    }
  }
  return authors;
}

EndpointSampler::EndpointSampler(std::vector<NodeId> by_popularity,
                                 double zipf_exponent)
    : ranking_(std::move(by_popularity)) {
  SEMSIM_CHECK(!ranking_.empty());
  if (zipf_exponent > 0) zipf_.emplace(ranking_.size(), zipf_exponent);
}

NodeId EndpointSampler::Draw(Rng& rng) const {
  size_t rank = zipf_ ? zipf_->Sample(rng) : rng.NextIndex(ranking_.size());
  return ranking_[rank];
}

NodePair EndpointSampler::DrawPair(Rng& rng) const {
  NodeId u = Draw(rng);
  NodeId v = Draw(rng);
  while (v == u) v = Draw(rng);
  return NodePair{u, v};
}

EndpointSampler WorkloadEndpoints(const WorkloadSpec& spec, const Hin& graph) {
  std::vector<NodeId> nodes(graph.num_nodes());
  for (size_t v = 0; v < nodes.size(); ++v) nodes[v] = static_cast<NodeId>(v);
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return graph.InDegree(a) > graph.InDegree(b);
  });
  return EndpointSampler(std::move(nodes), spec.zipf_exponent);
}

QueryRequest MakeRequest(const WorkloadSpec& spec,
                         const EndpointSampler& endpoints, uint64_t seed,
                         Phase phase, uint64_t index) {
  Rng rng(StreamSeed(seed, phase, index));
  QueryRequest request;
  request.k = kTopK;
  if (spec.topk_every > 0 &&
      index % static_cast<uint64_t>(spec.topk_every) ==
          static_cast<uint64_t>(spec.topk_every) - 1) {
    request.kind = QueryRequestKind::kTopK;
    request.sources.push_back(endpoints.Draw(rng));
    return request;
  }
  request.kind = QueryRequestKind::kPairs;
  const int pairs =
      phase == Phase::kWarmup ? kWarmupPairsPerRequest : spec.pairs_per_request;
  for (int i = 0; i < pairs; ++i) {
    request.pairs.push_back(endpoints.DrawPair(rng));
  }
  return request;
}

std::vector<NodePair> MakePairs(const EndpointSampler& endpoints,
                                uint64_t seed, Phase phase, size_t count) {
  Rng rng(StreamSeed(seed, phase, 0));
  std::vector<NodePair> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) pairs.push_back(endpoints.DrawPair(rng));
  return pairs;
}

std::vector<NodePair> MakeWriteBatch(std::span<const NodeId> authors,
                                     uint64_t batch) {
  SEMSIM_CHECK(authors.size() >= 2);
  Rng rng(StreamSeed(kWriteSeed, Phase::kWrite, batch));
  std::vector<NodePair> edges;
  edges.reserve(kEdgesPerBatch);
  for (int e = 0; e < kEdgesPerBatch; ++e) {
    NodeId a = authors[rng.NextIndex(authors.size())];
    NodeId b = authors[rng.NextIndex(authors.size())];
    while (b == a) b = authors[rng.NextIndex(authors.size())];
    edges.push_back(NodePair{a, b});
  }
  return edges;
}

size_t WriteIndex(size_t open_requests, int write_batches, int batch) {
  return open_requests * static_cast<size_t>(batch + 1) /
         static_cast<size_t>(write_batches + 1);
}

namespace {

void AppendU64(std::string& out, uint64_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(bytes));
}

}  // namespace

std::string ScheduleBytes(const WorkloadSpec& spec,
                          const EndpointSampler& endpoints,
                          std::span<const NodeId> authors, uint64_t seed,
                          size_t requests) {
  std::string out;
  for (size_t i = 0; i < requests; ++i) {
    QueryRequest r = MakeRequest(spec, endpoints, seed, Phase::kOpen, i);
    AppendU64(out, static_cast<uint64_t>(r.kind));
    AppendU64(out, r.k);
    for (const NodePair& p : r.pairs) {
      AppendU64(out, (static_cast<uint64_t>(p.first) << 32) | p.second);
    }
    for (NodeId s : r.sources) AppendU64(out, s);
  }
  for (int b = 0; b < spec.write_batches; ++b) {
    AppendU64(out, WriteIndex(requests, spec.write_batches, b));
    for (const NodePair& e : MakeWriteBatch(authors, b)) {
      AppendU64(out, (static_cast<uint64_t>(e.first) << 32) | e.second);
    }
  }
  return out;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0 && q < 1)) return std::nullopt;
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace semsim::perfbench
