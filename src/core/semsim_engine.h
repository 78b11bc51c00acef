#ifndef SEMSIM_CORE_SEMSIM_ENGINE_H_
#define SEMSIM_CORE_SEMSIM_ENGINE_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/engine_snapshot.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/topk.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// Configuration of the high-level engine.
struct SemSimEngineOptions {
  /// Reverse-walk index parameters (paper defaults n_w=150, t=15).
  WalkIndexOptions walks;
  /// Estimator parameters — the QueryOptions surface shared with
  /// BatchQueryEngineOptions (defaults: c=0.6, θ=0.05).
  QueryOptions query;
  /// When >= 0, build the SLING-style normalizer cache for pairs with
  /// sem >= this value (the paper uses 0.1). Negative disables the cache.
  double cache_min_sem = -1.0;
  /// Build the inverted single-source index: TopK() then answers through
  /// one shared-meeting sweep instead of n pair queries (Sec. 7's
  /// single-source direction). Doubles the index memory.
  bool single_source = false;
};

/// The library's front door: builds one EngineSnapshot binding a HIN, a
/// semantic measure and the freshly sampled walk index, and serves
/// single-pair and top-k SemSim queries from it. See
/// examples/quickstart.cc for end-to-end usage.
class SemSimEngine {
 public:
  /// Builds the walk index (and optionally the normalizer cache).
  /// `graph` and `semantic` must outlive the engine.
  static Result<SemSimEngine> Create(const Hin* graph,
                                     const SemanticMeasure* semantic,
                                     const SemSimEngineOptions& options);

  /// Approximate SemSim score of (u, v) with the engine's options. Stage
  /// counts reach the global MetricsRegistry on every call; `stats` is
  /// the legacy per-call out-param view.
  double Similarity(NodeId u, NodeId v, McQueryStats* stats = nullptr) const {
    return snapshot_->estimator().Query(u, v, options_.query.mc, stats);
  }

  /// Name-based convenience wrapper.
  Result<double> SimilarityByName(std::string_view u,
                                  std::string_view v) const;

  /// Top-k most similar nodes to `query`. Uses the inverted
  /// single-source index when the engine was built with one.
  std::vector<Scored> TopK(NodeId query, size_t k,
                           const std::vector<NodeId>* candidates = nullptr) const;

  /// Single-source scores sim(query, v) for every node v. Requires
  /// options.single_source.
  Result<std::vector<double>> AllScores(NodeId query) const;

  const Hin& graph() const { return snapshot_->graph(); }
  const SemanticMeasure& semantic() const { return snapshot_->semantic(); }
  const WalkIndex& walk_index() const { return snapshot_->walk_index(); }
  const SemSimEngineOptions& options() const { return options_; }
  const SemSimMcEstimator& estimator() const { return snapshot_->estimator(); }
  /// The snapshot holding every artifact; share it to serve the same
  /// version elsewhere (BatchQueryEngine::CreateFromSnapshot).
  EngineSnapshotPtr snapshot() const { return snapshot_; }
  /// Index + cache + flat-table footprint (Sec. 5.2 memory report).
  size_t MemoryBytes() const { return snapshot_->MemoryBytes(); }

 private:
  SemSimEngine() = default;

  SemSimEngineOptions options_;
  EngineSnapshotPtr snapshot_;
};

}  // namespace semsim

#endif  // SEMSIM_CORE_SEMSIM_ENGINE_H_
