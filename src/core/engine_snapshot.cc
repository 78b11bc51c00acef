#include "core/engine_snapshot.h"

#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/mc_kernels.h"
#include "core/pair_graph.h"

namespace semsim {

namespace {

Gauge* InflightGauge() {
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("semsim_snapshot_inflight");
  return gauge;
}

template <typename T>
uint64_t ChainValue(uint64_t seed, const T& value) {
  return Fnv1a64(&value, sizeof(value), seed);
}

}  // namespace

EngineSnapshot::EngineSnapshot() { InflightGauge()->Add(1); }

EngineSnapshot::~EngineSnapshot() { InflightGauge()->Sub(1); }

Result<EngineSnapshotPtr> EngineSnapshot::Create(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic,
    std::shared_ptr<const WalkIndex> walk_index,
    const EngineSnapshotOptions& options, uint64_t version,
    const PairNormalizerCache* static_cache, const ThreadPool* build_pool) {
  if (graph == nullptr || semantic == nullptr || walk_index == nullptr) {
    return Status::InvalidArgument(
        "graph, semantic measure, and walk index are required");
  }
  if (options.normalizer_cache_capacity < 0 ||
      options.semantic_cache_capacity < 0) {
    return Status::InvalidArgument(
        "cache capacities must be >= 0 (0 disables the cache)");
  }
  SEMSIM_RETURN_NOT_OK(ValidateMcOptions(options.query.mc));
  SEMSIM_TRACE_SPAN("semsim_snapshot_create");
  std::shared_ptr<EngineSnapshot> snap(new EngineSnapshot());
  snap->graph_ = std::move(graph);
  snap->semantic_ = std::move(semantic);
  snap->walk_index_ = std::move(walk_index);
  snap->options_ = options;
  snap->version_ = version;
  if (static_cache != nullptr) {
    snap->static_cache_ = static_cache;
  } else if (options.cache_min_sem >= 0) {
    // The PairGraph is only a build-time scaffold; the cache is
    // self-contained afterwards.
    PairGraph pair_graph(snap->graph_.get(), snap->semantic_.get());
    snap->owned_static_cache_ = std::make_unique<PairNormalizerCache>(
        PairNormalizerCache::Build(pair_graph, options.cache_min_sem));
    snap->static_cache_ = snap->owned_static_cache_.get();
  }
  // The estimator builds its own flat tables (DESIGN.md §7). A measure
  // it devirtualizes needs no memoizing CachedSemanticMeasure — the
  // wrapper would only add shard locks in front of a few array reads —
  // so only measures that run through their virtual Sim get one.
  const SemanticMeasure* measure = snap->semantic_.get();
  if (options.semantic_cache_capacity > 0 &&
      kernels::ClassifyMeasure(measure).kind == kernels::SemKind::kVirtual) {
    snap->cached_semantic_ = std::make_unique<CachedSemanticMeasure>(
        measure, static_cast<size_t>(options.semantic_cache_capacity));
    snap->cached_semantic_->cache().BindMetrics("semantic");
    measure = snap->cached_semantic_.get();
  }
  snap->estimator_ = std::make_unique<SemSimMcEstimator>(
      snap->graph_.get(), measure, snap->walk_index_.get(),
      snap->static_cache_);
  if (options.normalizer_cache_capacity > 0) {
    snap->normalizer_cache_ = std::make_unique<ConcurrentPairCache>(
        static_cast<size_t>(options.normalizer_cache_capacity));
    snap->normalizer_cache_->BindMetrics("normalizer");
    snap->estimator_->set_shared_cache(snap->normalizer_cache_.get());
  }
  const WalkIndexOptions& walks = snap->walk_index_->options();
  if (walks.weighted && walks.sampler == SamplerKind::kAlias) {
    snap->sampler_ = std::make_unique<NodeSamplerIndex>(NodeSamplerIndex::Build(
        *snap->graph_, SampleDirection::kIn, build_pool));
  }
  SEMSIM_RETURN_NOT_OK(ComputeFingerprint(*snap));
  if (options.eager_single_source) snap->InvertedIndex(build_pool);
  return EngineSnapshotPtr(std::move(snap));
}

Result<EngineSnapshotPtr> EngineSnapshot::Build(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic,
    const WalkIndexOptions& walks, const EngineSnapshotOptions& options,
    uint64_t version, const PairNormalizerCache* static_cache,
    const ThreadPool* build_pool) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  auto index =
      std::make_shared<const WalkIndex>(WalkIndex::Build(*graph, walks));
  return Create(std::move(graph), std::move(semantic), std::move(index),
                options, version, static_cache, build_pool);
}

Result<EngineSnapshotPtr> EngineSnapshot::MapArtifact(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic, const std::string& path,
    const EngineSnapshotOptions& options, uint64_t version,
    const WalkIndexMapOptions& map_options, const ThreadPool* build_pool) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  SEMSIM_ASSIGN_OR_RETURN(
      WalkIndex mapped,
      WalkIndex::Map(path, graph->num_nodes(), map_options));
  auto index = std::make_shared<const WalkIndex>(std::move(mapped));
  return Create(std::move(graph), std::move(semantic), std::move(index),
                options, version, /*static_cache=*/nullptr, build_pool);
}

Status EngineSnapshot::ComputeFingerprint(EngineSnapshot& snap) {
  uint64_t fp = kFnv1a64Offset;
  // Options that change results: the estimator parameters (walk_budget
  // defaults resolve at query time; decay/theta pin the estimate itself).
  fp = ChainValue(fp, snap.options_.query.mc.decay);
  fp = ChainValue(fp, snap.options_.query.mc.theta);
  fp = ChainValue(fp, snap.options_.cache_min_sem);
  const uint64_t nodes = snap.graph_->num_nodes();
  const uint64_t edges = snap.graph_->num_edges();
  fp = ChainValue(fp, nodes);
  fp = ChainValue(fp, edges);
  const WalkIndex& index = *snap.walk_index_;
  const WalkIndexOptions& walks = index.options();
  fp = ChainValue(fp, walks.num_walks);
  fp = ChainValue(fp, walks.walk_length);
  fp = ChainValue(fp, walks.seed);
  const uint8_t weighted = walks.weighted ? 1 : 0;
  fp = ChainValue(fp, weighted);
  // Walk content, one origin at a time: bounds-check its walks, then
  // hash its contiguous block of steps word-wise while it is still in
  // cache. A mapped artifact faults all pages in here — the documented
  // one-time publish cost.
  if (nodes > 0 && index.num_walks() > 0 && index.walk_length() > 0) {
    const size_t node_bytes = static_cast<size_t>(index.num_walks()) *
                              static_cast<size_t>(index.walk_length()) *
                              sizeof(NodeId);
    std::vector<uint16_t> live;
    live.reserve(static_cast<size_t>(nodes) * index.num_walks());
    for (NodeId v = 0; v < static_cast<NodeId>(nodes); ++v) {
      SEMSIM_RETURN_NOT_OK(index.CheckWalks(nodes, v, v + 1));
      fp = Fnv1a64Words(index.WalkData(v, 0), node_bytes, fp);
      for (int w = 0; w < index.num_walks(); ++w) {
        live.push_back(index.WalkLiveLength(v, w));
      }
    }
    fp = Fnv1a64Words(live.data(), live.size() * sizeof(uint16_t), fp);
  }
  if (snap.sampler_ != nullptr) {
    fp = ChainValue(fp, snap.sampler_->Fingerprint());
  }
  if (snap.static_cache_ != nullptr) {
    const uint64_t cached_pairs = snap.static_cache_->size();
    fp = ChainValue(fp, cached_pairs);
  }
  snap.fingerprint_ = fp;
  return Status::OK();
}

const SingleSourceIndex& EngineSnapshot::InvertedIndex(
    const ThreadPool* pool) const {
  const SingleSourceIndex* published =
      inverted_published_.load(std::memory_order_acquire);
  if (published != nullptr) return *published;
  std::lock_guard<std::mutex> lock(inverted_mu_);
  if (!inverted_) {
    SEMSIM_TRACE_SPAN("semsim_snapshot_inverted_index_build");
    inverted_ = std::make_unique<SingleSourceIndex>(SingleSourceIndex::Build(
        *walk_index_, graph_->num_nodes(), pool));
    inverted_published_.store(inverted_.get(), std::memory_order_release);
  }
  return *inverted_;
}

size_t EngineSnapshot::MemoryBytes() const {
  size_t total = walk_index_->MemoryBytes();
  total += estimator_->transition_table()->MemoryBytes();
  if (const FlatSemanticTable* flat = estimator_->flat_semantic_table()) {
    total += flat->MemoryBytes();
  }
  if (sampler_) total += sampler_->TableBytes();
  if (owned_static_cache_) total += owned_static_cache_->MemoryBytes();
  if (normalizer_cache_) total += normalizer_cache_->MemoryBytes();
  if (cached_semantic_) total += cached_semantic_->cache().MemoryBytes();
  const SingleSourceIndex* inverted =
      inverted_published_.load(std::memory_order_acquire);
  if (inverted != nullptr) total += inverted->MemoryBytes();
  return total;
}

}  // namespace semsim
