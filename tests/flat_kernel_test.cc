#include "core/mc_kernels.h"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "core/batch_engine.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "datasets/figure1.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

Dataset Figure1() { return Unwrap(MakeFigure1Dataset()); }

Dataset Aminer() {
  AminerOptions opt;
  opt.num_authors = 180;
  opt.seed = 7;
  return Unwrap(GenerateAminer(opt));
}

// Forwards Sim to another measure. ClassifyMeasure cannot see through
// it, so an estimator or engine over it runs the virtual semantic
// policy: the reference every flat-kernel answer is compared against.
class ForwardingMeasure final : public SemanticMeasure {
 public:
  explicit ForwardingMeasure(const SemanticMeasure* base) : base_(base) {}
  double Sim(NodeId u, NodeId v) const override { return base_->Sim(u, v); }
  std::string_view name() const override { return base_->name(); }

 private:
  const SemanticMeasure* base_;
};

std::vector<NodePair> MakePairs(size_t num_nodes, size_t count) {
  std::vector<NodePair> pairs;
  Rng rng(1234);
  for (size_t i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(i % num_nodes);
    NodeId v = static_cast<NodeId>(rng.NextIndex(num_nodes));
    pairs.push_back(NodePair{u, v});
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Layer 1: the devirtualized measure kernels agree with their virtual
// counterparts bit-for-bit, on every node pair.
// ---------------------------------------------------------------------------

TEST(FlatSemanticTable, LcaMatchesContext) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    FlatSemanticTable table = FlatSemanticTable::Build(d.context);
    size_t concepts = table.num_concepts();
    for (ConceptId a = 0; a < concepts; ++a) {
      for (ConceptId b = 0; b < concepts; ++b) {
        ASSERT_EQ(table.Lca(a, b), d.context.Lca(a, b))
            << "concepts " << a << "," << b;
      }
    }
    for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
      for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
        ASSERT_EQ(table.LcaOfNodes(u, v),
                  d.context.Lca(d.context.concept_of(u),
                                d.context.concept_of(v)));
      }
    }
  }
}

template <typename Measure, typename Kernel>
void CheckSimEquivalence(const Dataset& d) {
  Measure measure(&d.context);
  FlatSemanticTable table = FlatSemanticTable::Build(d.context);
  Kernel kernel{&table};
  for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
      // Bit-equality, not tolerance: the kernels mirror the formulas.
      ASSERT_EQ(kernel.Sim(u, v), measure.Sim(u, v))
          << measure.name() << " nodes " << u << "," << v;
    }
  }
}

TEST(FlatSemanticTable, KernelsMatchVirtualMeasures) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    CheckSimEquivalence<LinMeasure, FlatLinKernel>(d);
    CheckSimEquivalence<ResnikMeasure, FlatResnikKernel>(d);
    CheckSimEquivalence<WuPalmerMeasure, FlatWuPalmerKernel>(d);
    CheckSimEquivalence<PathMeasure, FlatPathKernel>(d);
  }
}

TEST(MeasureClassification, DetectsFlattenableMeasuresThroughCache) {
  Dataset d = Figure1();
  LinMeasure lin(&d.context);
  ResnikMeasure resnik(&d.context);
  WuPalmerMeasure wp(&d.context);
  PathMeasure path(&d.context);
  JiangConrathMeasure jc(&d.context);
  ConstantMeasure constant;
  EXPECT_EQ(kernels::ClassifyMeasure(&lin).kind, kernels::SemKind::kLin);
  EXPECT_EQ(kernels::ClassifyMeasure(&resnik).kind,
            kernels::SemKind::kResnik);
  EXPECT_EQ(kernels::ClassifyMeasure(&wp).kind, kernels::SemKind::kWuPalmer);
  EXPECT_EQ(kernels::ClassifyMeasure(&path).kind, kernels::SemKind::kPath);
  EXPECT_EQ(kernels::ClassifyMeasure(&jc).kind, kernels::SemKind::kVirtual);
  EXPECT_EQ(kernels::ClassifyMeasure(&constant).kind,
            kernels::SemKind::kVirtual);
  EXPECT_EQ(kernels::ClassifyMeasure(&lin).context, &d.context);
  // The decorator is transparent to classification.
  CachedSemanticMeasure cached(&lin, 1 << 10);
  EXPECT_EQ(kernels::ClassifyMeasure(&cached).kind, kernels::SemKind::kLin);
  // A forwarding wrapper is not.
  ForwardingMeasure forwarding(&lin);
  EXPECT_EQ(kernels::ClassifyMeasure(&forwarding).kind,
            kernels::SemKind::kVirtual);
  // Classification matches by dynamic_cast, so a subclass overriding Sim
  // would be swapped for the stock formula; the classes forbid one.
  static_assert(std::is_final_v<LinMeasure>);
  static_assert(std::is_final_v<ResnikMeasure>);
  static_assert(std::is_final_v<WuPalmerMeasure>);
  static_assert(std::is_final_v<PathMeasure>);
  // A directly constructed estimator picks the kernel from the measure.
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{10, 4, 13, false});
  EXPECT_EQ(SemSimMcEstimator(&d.graph, &lin, &index).sem_kernel_name(),
            "flat-lin");
  EXPECT_EQ(SemSimMcEstimator(&d.graph, &jc, &index).sem_kernel_name(),
            "virtual");
}

// ---------------------------------------------------------------------------
// Layer 2: estimator-level bit-equality — single-pair, single-source and
// top-k answers of the flat semantic kernel equal those of the virtual
// policy over the same measure.
// ---------------------------------------------------------------------------

template <typename Measure>
void CheckEstimatorEquivalence(const Dataset& d, const char* flat_name) {
  Measure measure(&d.context);
  ForwardingMeasure forwarding(&measure);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});

  SemSimMcEstimator flat(&d.graph, &measure, &index);
  SemSimMcEstimator reference(&d.graph, &forwarding, &index);
  EXPECT_EQ(flat.sem_kernel_name(), flat_name);
  ASSERT_NE(flat.flat_semantic_table(), nullptr);
  EXPECT_EQ(reference.sem_kernel_name(), "virtual");
  EXPECT_EQ(reference.flat_semantic_table(), nullptr);

  std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 150);
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    for (const NodePair& p : pairs) {
      ASSERT_EQ(flat.Query(p.first, p.second, opt),
                reference.Query(p.first, p.second, opt))
          << "pair (" << p.first << "," << p.second << ") theta " << theta;
      ASSERT_EQ(flat.SemValue(p.first, p.second),
                measure.Sim(p.first, p.second));
    }
  }

  SingleSourceIndex inverted =
      SingleSourceIndex::Build(index, d.graph.num_nodes());
  SemSimMcOptions opt{0.6, 0.05};
  for (NodeId u = 0; u < d.graph.num_nodes();
       u += 1 + d.graph.num_nodes() / 8) {
    std::vector<double> sf = inverted.SemSimFrom(u, flat, opt);
    std::vector<double> sr = inverted.SemSimFrom(u, reference, opt);
    ASSERT_EQ(sf.size(), sr.size());
    for (size_t v = 0; v < sf.size(); ++v) ASSERT_EQ(sf[v], sr[v]);
    std::vector<Scored> tf = inverted.TopKFrom(u, 10, flat, opt);
    std::vector<Scored> tr = inverted.TopKFrom(u, 10, reference, opt);
    ASSERT_EQ(tf.size(), tr.size());
    for (size_t i = 0; i < tf.size(); ++i) {
      ASSERT_EQ(tf[i].node, tr[i].node);
      ASSERT_EQ(tf[i].score, tr[i].score);
    }
  }
}

TEST(FlatKernelEstimator, LinBitIdentical) {
  CheckEstimatorEquivalence<LinMeasure>(Figure1(), "flat-lin");
  CheckEstimatorEquivalence<LinMeasure>(Aminer(), "flat-lin");
}

TEST(FlatKernelEstimator, ResnikBitIdentical) {
  CheckEstimatorEquivalence<ResnikMeasure>(Figure1(), "flat-resnik");
  CheckEstimatorEquivalence<ResnikMeasure>(Aminer(), "flat-resnik");
}

TEST(FlatKernelEstimator, WuPalmerBitIdentical) {
  CheckEstimatorEquivalence<WuPalmerMeasure>(Figure1(), "flat-wupalmer");
  CheckEstimatorEquivalence<WuPalmerMeasure>(Aminer(), "flat-wupalmer");
}

TEST(FlatKernelEstimator, PathBitIdentical) {
  CheckEstimatorEquivalence<PathMeasure>(Figure1(), "flat-path");
  CheckEstimatorEquivalence<PathMeasure>(Aminer(), "flat-path");
}

TEST(FlatKernelEstimator, JiangConrathRunsVirtualSemantics) {
  // JiangConrath has no flat kernel: the estimator keeps the virtual
  // semantics, builds no flat semantic table, and still steps through
  // its transition table.
  Dataset d = Figure1();
  JiangConrathMeasure measure(&d.context);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});
  SemSimMcEstimator estimator(&d.graph, &measure, &index);
  EXPECT_EQ(estimator.sem_kernel_name(), "virtual");
  EXPECT_EQ(estimator.flat_semantic_table(), nullptr);
  ASSERT_NE(estimator.transition_table(), nullptr);
  EXPECT_EQ(estimator.transition_table()->num_nodes(), d.graph.num_nodes());
  for (const NodePair& p : MakePairs(d.graph.num_nodes(), 100)) {
    ASSERT_EQ(estimator.SemValue(p.first, p.second),
              measure.Sim(p.first, p.second));
  }
}

// ---------------------------------------------------------------------------
// Layer 3: engine-level bit-equality — engines over Lin return the same
// batches at 1, 2 and 8 threads as a 1-thread engine over the virtual
// reference, across repeated rounds (cache history must not matter).
// ---------------------------------------------------------------------------

TEST(FlatKernelEngine, BatchesBitIdenticalToVirtualAcrossThreads) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    LinMeasure lin(&d.context);
    ForwardingMeasure forwarding(&lin);
    WalkIndex index = WalkIndex::Build(d.graph,
                                       WalkIndexOptions{40, 8, 13, false});
    std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 300);
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < d.graph.num_nodes();
         u += 1 + d.graph.num_nodes() / 6) {
      sources.push_back(u);
    }

    BatchQueryEngineOptions reference_opt;
    reference_opt.num_threads = 1;
    BatchQueryEngine reference = testutil::Unwrap(BatchQueryEngine::Create(
        &d.graph, &forwarding, &index, reference_opt));
    EXPECT_EQ(reference.estimator().sem_kernel_name(), "virtual");
    // Virtual semantics get the memoizing wrapper.
    EXPECT_NE(reference.cached_semantic(), nullptr);
    std::vector<double> want = reference.QueryBatch(pairs).values;
    auto want_sources = reference.SingleSourceBatch(sources).values;
    auto want_topk = reference.TopKBatch(sources, 10).values;

    for (int threads : {1, 2, 8}) {
      BatchQueryEngineOptions opt;
      opt.num_threads = threads;
      BatchQueryEngine engine = testutil::Unwrap(
          BatchQueryEngine::Create(&d.graph, &lin, &index, opt));
      EXPECT_EQ(engine.estimator().sem_kernel_name(), "flat-lin");
      ASSERT_NE(engine.estimator().flat_semantic_table(), nullptr);
      // Devirtualized semantics: no memoizing wrapper is built.
      EXPECT_EQ(engine.cached_semantic(), nullptr);

      for (int round = 0; round < 2; ++round) {
        std::vector<double> got = engine.QueryBatch(pairs).values;
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "pair " << i << " threads " << threads << " round "
              << round;
        }
      }
      auto got_sources = engine.SingleSourceBatch(sources).values;
      ASSERT_EQ(got_sources.size(), want_sources.size());
      for (size_t i = 0; i < got_sources.size(); ++i) {
        for (size_t v = 0; v < got_sources[i].size(); ++v) {
          ASSERT_EQ(got_sources[i][v], want_sources[i][v]);
        }
      }
      auto got_topk = engine.TopKBatch(sources, 10).values;
      for (size_t i = 0; i < got_topk.size(); ++i) {
        ASSERT_EQ(got_topk[i].size(), want_topk[i].size());
        for (size_t j = 0; j < got_topk[i].size(); ++j) {
          ASSERT_EQ(got_topk[i][j].node, want_topk[i][j].node);
          ASSERT_EQ(got_topk[i][j].score, want_topk[i][j].score);
        }
      }
    }
  }
}

TEST(FlatKernelEngine, ConstantMeasureFallsBackToVirtual) {
  Dataset d = Figure1();
  ConstantMeasure constant;
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{30, 8, 13, false});
  BatchQueryEngineOptions opt;
  opt.num_threads = 2;
  BatchQueryEngine engine = testutil::Unwrap(
      BatchQueryEngine::Create(&d.graph, &constant, &index, opt));
  EXPECT_EQ(engine.estimator().sem_kernel_name(), "virtual");
  EXPECT_EQ(engine.estimator().flat_semantic_table(), nullptr);
  EXPECT_NE(engine.cached_semantic(), nullptr);

  std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 120);
  std::vector<double> got = engine.QueryBatch(pairs).values;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], engine.estimator().Query(pairs[i].first,
                                               pairs[i].second,
                                               engine.query_options().mc));
  }
}

}  // namespace
}  // namespace semsim
