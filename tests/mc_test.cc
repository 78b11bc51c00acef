#include "core/mc_semsim.h"

#include <gtest/gtest.h>

#include "core/iterative.h"
#include "core/mc_simrank.h"
#include "core/walk_index.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeJehWidomWorld;
using testutil::MakeSmallWorld;
using testutil::Unwrap;

WalkIndexOptions BigIndex(uint64_t seed) {
  WalkIndexOptions opt;
  opt.num_walks = 3000;  // large n_w so MC error is small in tests
  opt.walk_length = 15;
  opt.seed = seed;
  return opt;
}

TEST(McSimRank, ApproximatesIterativeScores) {
  auto w = MakeJehWidomWorld();
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(11));
  ScoreMatrix exact = Unwrap(ComputeSimRank(w.graph, 0.8, 40, nullptr));
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(McSimRankQuery(index, u, v, 0.8), exact.at(u, v), 0.03)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(McSimRank, SelfPairIsOne) {
  auto w = MakeJehWidomWorld();
  WalkIndexOptions opt;
  opt.num_walks = 10;
  opt.walk_length = 5;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  EXPECT_DOUBLE_EQ(McSimRankQuery(index, w.univ, w.univ, 0.8), 1.0);
}

TEST(FirstMeetingStep, HandlesDeadWalks) {
  // x has no in-neighbors, so every walk from it dies immediately and the
  // coupled walks never meet.
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");
  NodeId y = b.AddNode("y", "t");
  ASSERT_TRUE(b.AddEdge(x, y, "e", 1).ok());
  Hin g = Unwrap(std::move(b).Build());
  WalkIndexOptions opt;
  opt.num_walks = 4;
  opt.walk_length = 6;
  WalkIndex index = WalkIndex::Build(g, opt);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(FirstMeetingStep(index, x, y, w), -1);
  }
}

TEST(SemSimMcIs, UnbiasedAgainstIterativeGroundTruth) {
  // The IS estimator with θ=0 approximates the exact SemSim fixed point
  // (Prop. 4.4 + Prop. 4.2).
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(13));
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  SemSimMcOptions opt;
  opt.decay = 0.6;
  opt.theta = 0.0;
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(estimator.Query(u, v, opt), exact.at(u, v), 0.05)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, WeightedProposalAlsoUnbiased) {
  // Eq. 4 holds for any proposal Q; the ablation swaps uniform for
  // weight-proportional sampling.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt = BigIndex(17);
  wopt.weighted = true;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  SemSimMcOptions opt;
  opt.decay = 0.6;
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(estimator.Query(u, v, opt), exact.at(u, v), 0.05);
    }
  }
}

TEST(SemSimMcIs, PruningAddsBoundedOneSidedError) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(19));
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  SemSimMcOptions unpruned{0.6, 0.0};
  SemSimMcOptions pruned{0.6, 0.05};
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      double full = estimator.Query(u, v, unpruned);
      double cut = estimator.Query(u, v, pruned);
      // Prop. 4.6: the pruning error is bounded by θ. Pruned walk scores
      // are *kept at their bound*, so the estimate may move either way,
      // but never by more than θ per Prop. 4.6.
      EXPECT_NEAR(cut, full, 0.05 + 1e-9) << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, SemanticPruningShortCircuits) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 50;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  // a0 and b0 live under different categories: sem is small.
  double sem = lin.Sim(w.a0, w.b0);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  opt.theta = sem + 0.01;  // force the sem-prune branch
  McQueryStats stats;
  EXPECT_DOUBLE_EQ(estimator.Query(w.a0, w.b0, opt, &stats), 0.0);
  EXPECT_EQ(stats.sem_pruned_queries, 1);
  EXPECT_EQ(stats.normalizers_computed, 0);
}

TEST(SemSimMcIs, CacheGivesIdenticalScores) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(23));
  PairGraph pg(&w.graph, &lin);
  PairNormalizerCache cache = PairNormalizerCache::Build(pg, /*min_sem=*/0.0);
  SemSimMcEstimator plain(&w.graph, &lin, &index);
  SemSimMcEstimator cached(&w.graph, &lin, &index, &cache);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      McQueryStats stats;
      double a = plain.Query(u, v, opt);
      double b = cached.Query(u, v, opt, &stats);
      // The cache stores normalizers summed in canonical (min,max) pair
      // order, so results may differ in the last ulps.
      EXPECT_NEAR(a, b, 1e-12 + 1e-9 * std::abs(a));
    }
  }
}

TEST(NaiveSemSimMc, MatchesIterativeGroundTruth) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  Rng rng(31);
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      double est = NaiveSemSimMcQuery(w.graph, lin, u, v, /*num_walks=*/3000,
                                      /*walk_length=*/15, 0.6, rng);
      EXPECT_NEAR(est, exact.at(u, v), 0.05) << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, AgreesWithNaiveSampler) {
  // The two estimators target the same quantity from different samplers.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(37));
  SemSimMcEstimator is_estimator(&w.graph, &lin, &index);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  Rng rng(41);
  double is_score = is_estimator.Query(w.a0, w.a1, opt);
  double naive = NaiveSemSimMcQuery(w.graph, lin, w.a0, w.a1, 3000, 15, 0.6,
                                    rng);
  EXPECT_NEAR(is_score, naive, 0.06);
}

}  // namespace
}  // namespace semsim
