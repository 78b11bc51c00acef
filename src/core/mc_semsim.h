#ifndef SEMSIM_CORE_MC_SEMSIM_H_
#define SEMSIM_CORE_MC_SEMSIM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/concurrent_cache.h"
#include "core/mc_kernels.h"
#include "core/sling_cache.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// Options of the IS-based MC estimator (Algorithm 1). The last two
/// fields are request-scoped: the serving layer's graceful-degradation
/// and cancellation knobs, defaulted off so every existing aggregate
/// initializer keeps its meaning.
struct SemSimMcOptions {
  /// Decay factor c.
  double decay = 0.6;
  /// Pruning threshold θ. 0 disables pruning (the unbiased estimator);
  /// the paper's default with pruning is 0.05 and Lemma 4.7 requires
  /// θ ≤ 1 - c for scores to stay in [0,1].
  double theta = 0.0;
  /// Per-query walk budget n_b: only the first n_b walks of the index
  /// are estimated and the average is taken over n_b. 0 (or any value
  /// >= the index's n_w) means the full index — bit-identical to the
  /// pre-budget behavior. Smaller budgets keep the estimator unbiased
  /// with fewer samples; the widened Hoeffding band is
  /// WalkBudgetErrorBand(n_b, ...). Negative values are rejected by
  /// ValidateMcOptions.
  int walk_budget = 0;
  /// Cooperative cancellation/deadline token polled between work chunks
  /// (per pair in batches, every few walks inside a pair, every few
  /// meetings inside a single-source sweep). When it fires, loops stop
  /// refining and return partial values — the caller that armed the
  /// token is expected to discard them (the serving layer reports
  /// token->ToStatus() instead of the scores). nullptr = never stops.
  /// Not an estimator parameter: results are bit-identical for any
  /// token that never fires.
  const CancelToken* cancel = nullptr;
};

/// The walk budget a query over an index with `index_walks` walks
/// actually runs with.
inline int EffectiveWalkBudget(const SemSimMcOptions& options,
                               int index_walks) {
  return options.walk_budget > 0 && options.walk_budget < index_walks
             ? options.walk_budget
             : index_walks;
}

/// Domain check shared by SemSimEngine::Create, BatchQueryEngine::Create
/// and the differential verification harness: decay must lie in (0,1)
/// and θ ≤ 1 - decay (Lemma 4.7). Returns InvalidArgument naming the
/// violated constraint.
Status ValidateMcOptions(const SemSimMcOptions& options);

/// The query-time surface shared by SemSimEngine and BatchQueryEngine:
/// the estimator parameters applied to every query. Both engines embed
/// one of these as `.query`, so the two option structs cannot drift
/// apart.
struct QueryOptions {
  /// Estimator parameters: c=0.6 and pruning θ=0.05 are the paper's
  /// experimental setting.
  SemSimMcOptions mc{0.6, 0.05};
};

/// Per-query instrumentation (used by the Fig. 4 experiment to explain
/// where time goes).
struct McQueryStats {
  /// Coupled walks whose members met within the truncation.
  int met_walks = 0;
  /// Walks cut short by the θ partial-product bound (Def. 4.5).
  int pruned_walks = 0;
  /// Number of queries answered 0 by the sem(u,v) <= θ test (lines 2-3
  /// of Algorithm 1).
  int64_t sem_pruned_queries = 0;
  /// Number of d²-cost normalizer (SO) computations performed.
  int64_t normalizers_computed = 0;
  /// Normalizer lookups answered by the SLING-style cache.
  int64_t normalizer_cache_hits = 0;
  /// Normalizer lookups answered by the cross-query concurrent cache.
  int64_t shared_cache_hits = 0;

  /// Accumulates `other` into this record (counter sums). Sums commute,
  /// so merging per-thread partials yields the same totals for every
  /// thread count.
  void Merge(const McQueryStats& other) {
    met_walks += other.met_walks;
    pruned_walks += other.pruned_walks;
    sem_pruned_queries += other.sem_pruned_queries;
    normalizers_computed += other.normalizers_computed;
    normalizer_cache_hits += other.normalizer_cache_hits;
    shared_cache_hits += other.shared_cache_hits;
  }
};

/// Typed result of the batch entry points: the per-item values plus the
/// instrumentation of the whole batch. Replaces the legacy
/// `McQueryStats* stats = nullptr` out-param idiom — callers that want
/// the counters read `.stats`, callers that don't simply ignore it.
template <typename T>
struct BatchResult {
  std::vector<T> values;
  McQueryStats stats;
};

/// Adds one stats record to the global MetricsRegistry's
/// `semsim_query_*` counters. The estimator's public entry points call
/// this on every query, so registry totals accumulate even for the
/// (legacy) `stats = nullptr` call sites that used to drop the counts.
void PublishQueryStats(const McQueryStats& stats);

/// Single-pair SemSim estimator implementing the paper's Algorithm 1:
/// walks are drawn once from the proposal distribution Q (the WalkIndex),
/// and Importance Sampling reweights each coupled walk by P(w)/Q(w) under
/// the semantic-aware distribution P, yielding an unbiased estimate of
/// sem(u,v)·E_P[c^τ] (Eq. 4). Average query time O(n_w·t·d²); with the
/// pruning rules the observed time is on par with SimRank (Sec. 5.2).
///
/// One kernel (DESIGN.md §7): every coupled-walk step reads the
/// estimator's own TransitionTable. The semantic policy follows from the
/// measure's type: the four built-in measures (Lin, Resnik, WuPalmer,
/// Path — final classes) run a devirtualized Flat*Kernel over the
/// estimator's own FlatSemanticTable; every other measure (JiangConrath,
/// constant, custom, or a CachedSemanticMeasure over one of those) is
/// called through its virtual Sim.
class SemSimMcEstimator {
 public:
  /// Builds the transition table over `graph` and, when `semantic` is a
  /// flattenable built-in, the flat semantic table over its context.
  /// All pointers must outlive the estimator; `cache` is optional
  /// (nullptr = compute every normalizer on the fly).
  SemSimMcEstimator(const Hin* graph, const SemanticMeasure* semantic,
                    const WalkIndex* index,
                    const PairNormalizerCache* cache = nullptr);

  /// Installs a cross-query normalizer cache shared by every thread and
  /// every subsequent query. Consulted after the static SLING cache and
  /// the per-query context; computed normalizers are published to it.
  /// Values are deterministic functions of the pair, so cache history
  /// never changes results. Pass nullptr to detach. The cache must
  /// outlive the estimator (or the detach).
  void set_shared_cache(ConcurrentPairCache* cache) { shared_cache_ = cache; }
  const ConcurrentPairCache* shared_cache() const { return shared_cache_; }

  /// The tables the estimator owns: the transition table is always
  /// built; the flat semantic table is nullptr when the measure runs
  /// through its virtual Sim.
  const TransitionTable* transition_table() const { return &transitions_; }
  const FlatSemanticTable* flat_semantic_table() const {
    return flat_sem_ ? &*flat_sem_ : nullptr;
  }

  /// Name of the active semantic kernel: "virtual", or
  /// "flat-lin" / "flat-resnik" / "flat-wupalmer" / "flat-path".
  std::string_view sem_kernel_name() const;

  /// sem(u, v) through the active semantic kernel — bit-identical to
  /// semantic().Sim(u, v), minus the virtual dispatch when flat.
  double SemValue(NodeId u, NodeId v) const;

  /// Estimates sim(u, v). Unbiased for θ = 0 (Prop. 4.4); with θ > 0 the
  /// additional one-sided error is bounded by θ (Prop. 4.6). Stage
  /// counts are always published to the global MetricsRegistry
  /// (`semsim_query_*`); the `stats` out-param is the legacy per-call
  /// view and may stay nullptr.
  double Query(NodeId u, NodeId v, const SemSimMcOptions& options,
               McQueryStats* stats = nullptr) const;

  /// Batch form of Query: results[i] == Query(pairs[i].first,
  /// pairs[i].second, options) for every i, with the items partitioned
  /// dynamically across `pool`. Deterministic and thread-count
  /// independent: each item is estimated in isolation (per-item
  /// accumulation order is fixed by the walk index, queries draw no
  /// randomness) and written to its own slot; per-thread stats partials
  /// are merged by commutative sums into *stats. As with Query, stage
  /// counts always reach the global MetricsRegistry; `stats` is the
  /// legacy out-param view.
  std::vector<double> QueryBatch(std::span<const NodePair> pairs,
                                 const SemSimMcOptions& options,
                                 const ThreadPool& pool,
                                 McQueryStats* stats = nullptr) const;

  /// Reusable per-source scratch state: SO normalizers computed along
  /// coupled-walk prefixes. Sharing one context across many queries with
  /// the same source node (single-source / top-k workloads) removes most
  /// of the d²-cost recomputation.
  struct QueryContext {
    std::unordered_map<NodePair, double, NodePairHash> normalizers;
  };

  /// IS score of the `walk`-th coupled walk from (u,v), given its first
  /// meeting at step `meeting_step` (1-based, as returned by
  /// FirstMeetingStep): the running product Π_j (P_j/Q_j)·c over the
  /// prefix, stopped at the θ bound per Def. 4.5. Building block of
  /// Query() and of the single-source engine.
  double CoupledWalkScore(NodeId u, NodeId v, int walk, int meeting_step,
                          const SemSimMcOptions& options,
                          QueryContext* context,
                          McQueryStats* stats = nullptr) const;

  const Hin& graph() const { return *graph_; }
  const SemanticMeasure& semantic() const { return *semantic_; }
  const WalkIndex& index() const { return *index_; }

 private:
  /// SO(u,v): the d²-cost semantic-aware normalizer. Served from the
  /// SLING-style cache when available, else from the context memo (walk
  /// prefixes overlap heavily within one source), else computed.
  double Normalizer(NodeId u, NodeId v, QueryContext* context,
                    McQueryStats* stats) const;

  // Templated inner loops, instantiated per semantic policy in
  // mc_semsim.cc; Dispatch routes a call to the instantiation matching
  // sem_kind_ (defined there too — all uses are in that translation
  // unit).
  template <typename F>
  auto Dispatch(F&& f) const;
  template <typename Sem>
  double QueryT(const Sem& sem, const kernels::TableEdges& edges, NodeId u,
                NodeId v, const SemSimMcOptions& options,
                McQueryStats* stats) const;
  template <typename Sem>
  double CoupledWalkScoreT(const Sem& sem, const kernels::TableEdges& edges,
                           NodeId u, NodeId v, int walk, int meeting_step,
                           const SemSimMcOptions& options,
                           QueryContext* context, McQueryStats* stats) const;
  template <typename Sem>
  double NormalizerT(const Sem& sem, NodeId u, NodeId v,
                     QueryContext* context, McQueryStats* stats) const;

  const Hin* graph_;
  const SemanticMeasure* semantic_;
  const WalkIndex* index_;
  const PairNormalizerCache* cache_;
  ConcurrentPairCache* shared_cache_ = nullptr;
  TransitionTable transitions_;
  // Engaged exactly when sem_kind_ != kVirtual.
  std::optional<FlatSemanticTable> flat_sem_;
  kernels::SemKind sem_kind_ = kernels::SemKind::kVirtual;
};

/// Sampling parameters guaranteeing a target accuracy (Prop. 4.2): with
///   t   > log_c(eps / 2)            and
///   n_w >= 14/(3 eps²) · (log(2/delta) + 2 log n)
/// the estimate of any pair is within eps of sim(u,v) with probability at
/// least 1-delta. The paper's default (n_w=150, t=15) corresponds to
/// loose eps at its graph sizes — these formulas let callers pick
/// rigorously instead.
struct WalkAccuracy {
  int num_walks;
  int walk_length;
};
WalkAccuracy RequiredWalkParameters(double epsilon, double delta,
                                    size_t num_nodes, double decay);

/// Inverse of the n_w bound of Prop. 4.2: the additive error eps that a
/// budget of `walk_budget` walks still guarantees with probability
/// 1 - delta on a graph of `num_nodes` nodes,
///   eps(n_b) = sqrt(14 (log(2/delta) + 2 log n) / (3 n_b)).
/// This is the error band the serving layer reports when graceful
/// degradation shrinks a request's walk budget. Monotone: fewer walks,
/// wider band. Not clamped — budgets far below the Prop. 4.2
/// requirement yield bands above 1, which is honest (the bound is
/// vacuous there).
double WalkBudgetErrorBand(int walk_budget, double delta, size_t num_nodes);

/// The naive MC framework of Sec. 4.2: samples `num_walks` coupled SARWs
/// of at most `walk_length` steps directly from the semantic-aware
/// distribution P (each step costs d² to materialize the transition row)
/// and averages sem(u,v)·c^τ. Unbiased, but cannot reuse a per-node walk
/// index — precomputing its walks for all pairs would need O(n_w·t·n²)
/// storage, the quadratic blow-up that motivates Importance Sampling.
double NaiveSemSimMcQuery(const Hin& graph, const SemanticMeasure& semantic,
                          NodeId u, NodeId v, int num_walks, int walk_length,
                          double decay, Rng& rng);

}  // namespace semsim

#endif  // SEMSIM_CORE_MC_SEMSIM_H_
