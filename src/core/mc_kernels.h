#ifndef SEMSIM_CORE_MC_KERNELS_H_
#define SEMSIM_CORE_MC_KERNELS_H_

#include <string_view>

#include "core/concurrent_cache.h"
#include "graph/transition_table.h"
#include "graph/types.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

namespace kernels {

/// Semantic policy for the templated estimator loops: the fallback for
/// measures without a flat kernel — every sem(u,v) is a virtual call.
/// Any SemanticMeasure (custom, cached, JiangConrath, ...) runs through
/// this.
struct VirtualSem {
  const SemanticMeasure* m;
  double Sim(NodeId u, NodeId v) const { return m->Sim(u, v); }
};

/// Per-side factors of one coupled-walk step: the collapsed parallel-edge
/// weight (numerator of P) and the proposal probability q (denominator
/// of the IS ratio).
struct StepSide {
  double total_weight;
  double q;
};

/// Edge policy of every estimator loop. One O(1) hash probe returns the
/// collapsed parallel-edge group with both q quotients precomputed (by
/// the same divisions as Hin::InEdgeInfo plus InDegree / TotalInWeight —
/// see TransitionTable), so a step is two loads.
struct TableEdges {
  const TransitionTable* table;
  StepSide Step(NodeId cur, NodeId next, bool weighted) const {
    const TransitionTable::Group& g = table->InGroup(cur, next);
    return {g.total_weight, weighted ? g.q_weighted : g.q_uniform};
  }
};

/// Which devirtualized semantic kernel (if any) can replace a measure.
enum class SemKind { kVirtual, kLin, kResnik, kWuPalmer, kPath };

struct SemInfo {
  SemKind kind = SemKind::kVirtual;
  /// The SemanticContext the measure is bound to (nullptr for kVirtual)
  /// — a FlatSemanticTable may only substitute for the measure when it
  /// was built from this same context.
  const SemanticContext* context = nullptr;
};

/// Detects whether `measure` is one of the four flattenable built-in
/// measures, unwrapping a CachedSemanticMeasure decorator first (the
/// flat kernels are cheaper than the cache's sharded lookup, so the
/// cache layer is bypassed entirely when devirtualizing). The four
/// classes are final, so a match is always the stock formula.
inline SemInfo ClassifyMeasure(const SemanticMeasure* measure) {
  if (auto* cached = dynamic_cast<const CachedSemanticMeasure*>(measure)) {
    measure = &cached->base();
  }
  if (auto* m = dynamic_cast<const LinMeasure*>(measure)) {
    return {SemKind::kLin, m->context()};
  }
  if (auto* m = dynamic_cast<const ResnikMeasure*>(measure)) {
    return {SemKind::kResnik, m->context()};
  }
  if (auto* m = dynamic_cast<const WuPalmerMeasure*>(measure)) {
    return {SemKind::kWuPalmer, m->context()};
  }
  if (auto* m = dynamic_cast<const PathMeasure*>(measure)) {
    return {SemKind::kPath, m->context()};
  }
  return {};
}

}  // namespace kernels
}  // namespace semsim

#endif  // SEMSIM_CORE_MC_KERNELS_H_
