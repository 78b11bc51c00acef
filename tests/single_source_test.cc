#include "core/single_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/mc_simrank.h"
#include "datasets/amazon_gen.h"
#include "datasets/aminer_gen.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

// Reference build: the comparison-sort construction the index used
// before the counting transpose. Every (walk, step) bucket is filled in
// origin order and then sorted on (position, origin). Returns the
// FNV-1a of the offsets and entries, the bytes
// SingleSourceIndex::Fingerprint() covers.
uint64_t ReferenceFingerprint(const WalkIndex& index, size_t num_nodes) {
  struct Entry {
    NodeId position;
    NodeId origin;
  };
  const size_t t = static_cast<size_t>(index.walk_length());
  const size_t num_buckets = static_cast<size_t>(index.num_walks()) * t;
  std::vector<size_t> offsets(num_buckets + 1, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (int w = 0; w < index.num_walks(); ++w) {
      for (int s = 0; s < index.WalkLiveLength(v, w); ++s) {
        ++offsets[static_cast<size_t>(w) * t + static_cast<size_t>(s) + 1];
      }
    }
  }
  for (size_t b = 1; b <= num_buckets; ++b) offsets[b] += offsets[b - 1];
  std::vector<Entry> entries(offsets.back());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (int w = 0; w < index.num_walks(); ++w) {
      const NodeId* walk = index.WalkData(v, w);
      for (int s = 0; s < index.WalkLiveLength(v, w); ++s) {
        entries[cursor[static_cast<size_t>(w) * t + static_cast<size_t>(s)]++] =
            Entry{walk[s], v};
      }
    }
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    std::sort(entries.begin() + static_cast<long>(offsets[b]),
              entries.begin() + static_cast<long>(offsets[b + 1]),
              [](const Entry& a, const Entry& e) {
                return a.position != e.position ? a.position < e.position
                                                : a.origin < e.origin;
              });
  }
  uint64_t h = Fnv1a64(offsets.data(), offsets.size() * sizeof(size_t));
  return Fnv1a64(entries.data(), entries.size() * sizeof(Entry), h);
}

// The serial build and the 1-, 2- and 8-thread pool builds all
// reproduce the reference structure byte for byte.
void ExpectBuildsMatchReference(const WalkIndex& index, size_t num_nodes,
                                const std::string& input) {
  const uint64_t reference = ReferenceFingerprint(index, num_nodes);
  SingleSourceIndex serial = SingleSourceIndex::Build(index, num_nodes);
  EXPECT_EQ(serial.Fingerprint(), reference) << input << ", serial";
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    SingleSourceIndex pooled = SingleSourceIndex::Build(index, num_nodes, &pool);
    EXPECT_EQ(pooled.Fingerprint(), reference)
        << input << ", threads=" << threads;
    EXPECT_EQ(pooled.MemoryBytes(), serial.MemoryBytes()) << input;
  }
}

class SingleSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeSmallWorld();
    WalkIndexOptions opt;
    opt.num_walks = 200;
    opt.walk_length = 12;
    opt.seed = 9;
    index_ = WalkIndex::Build(world_.graph, opt);
    inverted_ = SingleSourceIndex::Build(index_, world_.graph.num_nodes());
  }

  testutil::SmallWorld world_;
  WalkIndex index_;
  SingleSourceIndex inverted_;
};

TEST_F(SingleSourceTest, FirstMeetingsMatchPairwiseScan) {
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    // Collect per-(v, walk) meetings from the inverted index.
    std::vector<std::vector<int>> inverted_meet(
        world_.graph.num_nodes(),
        std::vector<int>(index_.num_walks(), -1));
    for (const auto& m : inverted_.FirstMeetings(u)) {
      inverted_meet[m.node][m.walk] = m.step;
    }
    for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
      if (v == u) continue;
      for (int w = 0; w < index_.num_walks(); ++w) {
        ASSERT_EQ(inverted_meet[v][w], FirstMeetingStep(index_, u, v, w))
            << "u=" << u << " v=" << v << " walk=" << w;
      }
    }
  }
}

TEST_F(SingleSourceTest, SimRankFromMatchesPairQueries) {
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    std::vector<double> scores = inverted_.SimRankFrom(u, 0.6);
    ASSERT_EQ(scores.size(), world_.graph.num_nodes());
    for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
      EXPECT_NEAR(scores[v], McSimRankQuery(index_, u, v, 0.6), 1e-12)
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_F(SingleSourceTest, SemSimFromMatchesPairQueries) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
      std::vector<double> scores = inverted_.SemSimFrom(u, estimator, opt);
      for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
        EXPECT_NEAR(scores[v], estimator.Query(u, v, opt), 1e-10)
            << "theta=" << theta << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST_F(SingleSourceTest, TopKMatchesMcTopK) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  SemSimMcOptions opt{0.6, 0.0};
  auto fast = inverted_.TopKFrom(world_.a0, 4, estimator, opt);
  auto slow = McTopK(estimator, world_.a0, 4, opt);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].node, slow[i].node) << "rank " << i;
    EXPECT_NEAR(fast[i].score, slow[i].score, 1e-10);
  }
}

TEST_F(SingleSourceTest, MemoryIsReported) {
  EXPECT_GT(inverted_.MemoryBytes(), 0u);
}

TEST_F(SingleSourceTest, ParallelBuildIsBitIdenticalAcrossThreadCounts) {
  // The inverted index must not depend on how construction was
  // partitioned, and must equal the comparison-sort reference: on the
  // fixture world, on one-step walks, on a directed chain whose walks
  // die early (zero and short live prefixes), and on a one-node graph.
  const size_t n = world_.graph.num_nodes();
  ExpectBuildsMatchReference(index_, n, "small world");

  WalkIndexOptions one_step;
  one_step.num_walks = 20;
  one_step.walk_length = 1;
  ExpectBuildsMatchReference(WalkIndex::Build(world_.graph, one_step), n,
                             "walk_length=1");

  // Edges 0->1->2->3->4 plus 2->4: reverse walks from node 0 are empty,
  // from node 1 live for one step, and so on.
  HinBuilder chain;
  for (int i = 0; i < 5; ++i) chain.AddNode("c" + std::to_string(i), "n");
  for (NodeId i = 0; i < 4; ++i) ASSERT_TRUE(chain.AddEdge(i, i + 1, "e").ok());
  ASSERT_TRUE(chain.AddEdge(2, 4, "e").ok());
  Hin chain_graph = Unwrap(std::move(chain).Build());
  WalkIndexOptions chain_walks;
  chain_walks.num_walks = 30;
  chain_walks.walk_length = 6;
  WalkIndex chain_index = WalkIndex::Build(chain_graph, chain_walks);
  ASSERT_EQ(chain_index.WalkLiveLength(0, 0), 0);
  ASSERT_EQ(chain_index.WalkLiveLength(1, 0), 1);
  ExpectBuildsMatchReference(chain_index, chain_graph.num_nodes(),
                             "directed chain");

  HinBuilder single;
  single.AddNode("only", "n");
  ASSERT_TRUE(single.AddEdge(0, 0, "self").ok());
  Hin single_graph = Unwrap(std::move(single).Build());
  ExpectBuildsMatchReference(WalkIndex::Build(single_graph, chain_walks), 1,
                             "n=1");
}

TEST_F(SingleSourceTest, ScratchSweepsAreBitIdenticalToFreshAllocation) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  QueryScratch scratch;
  std::vector<double> out;
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    // One scratch reused across every source and both thetas — epoch
    // stamping must fully isolate the queries.
    for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
      McQueryStats fresh_stats, scratch_stats;
      std::vector<double> fresh =
          inverted_.SemSimFrom(u, estimator, opt, &fresh_stats);
      inverted_.SemSimFromInto(u, estimator, opt, scratch, out,
                               &scratch_stats);
      ASSERT_EQ(out.size(), fresh.size());
      for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
        ASSERT_EQ(out[v], fresh[v])  // bit-identical, not just near
            << "theta=" << theta << " u=" << u << " v=" << v;
      }
      EXPECT_EQ(scratch_stats.met_walks, fresh_stats.met_walks);
      EXPECT_EQ(scratch_stats.sem_pruned_queries,
                fresh_stats.sem_pruned_queries);
      EXPECT_EQ(scratch_stats.normalizers_computed,
                fresh_stats.normalizers_computed);
    }
  }
}

TEST_F(SingleSourceTest, ScratchTopKMatchesPlainTopK) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  SemSimMcOptions opt{0.6, 0.05};
  QueryScratch scratch;
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    auto plain = inverted_.TopKFrom(u, 4, estimator, opt);
    auto pooled = inverted_.TopKFrom(u, 4, estimator, opt, scratch);
    ASSERT_EQ(plain.size(), pooled.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].node, pooled[i].node) << "u=" << u << " rank " << i;
      EXPECT_EQ(plain[i].score, pooled[i].score);
    }
  }
}

TEST_F(SingleSourceTest, ScratchPoolLeasesAndReuses) {
  ScratchPool pool;
  {
    ScratchPool::Lease a = pool.Acquire();
    ScratchPool::Lease b = pool.Acquire();
    ASSERT_NE(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    ASSERT_NE(a.get(), b.get());
  }
  QueryScratch* first = nullptr;
  {
    ScratchPool::Lease c = pool.Acquire();
    first = c.get();
  }
  ScratchPool::Lease d = pool.Acquire();
  EXPECT_EQ(d.get(), first);  // freelist reuse, most-recently-returned
  EXPECT_EQ(pool.acquired(), 4u);
  EXPECT_EQ(pool.reused(), 2u);
  EXPECT_DOUBLE_EQ(pool.reuse_rate(), 0.5);
}

TEST(SingleSourceGenerated, ParallelBuildMatchesSerialOnLargerGraph) {
  AmazonOptions gen;
  gen.num_items = 200;
  gen.seed = 31;
  Dataset d = Unwrap(GenerateAmazon(gen));
  WalkIndexOptions wopt;
  wopt.num_walks = 60;
  wopt.walk_length = 10;
  ExpectBuildsMatchReference(WalkIndex::Build(d.graph, wopt),
                             d.graph.num_nodes(), "amazon");

  AminerOptions aminer;
  aminer.num_authors = 150;
  aminer.seed = 5;
  Dataset a = Unwrap(GenerateAminer(aminer));
  WalkIndexOptions weighted = wopt;
  weighted.weighted = true;
  ExpectBuildsMatchReference(WalkIndex::Build(a.graph, weighted),
                             a.graph.num_nodes(), "weighted aminer");
}

TEST(SingleSourceGenerated, ConsistentOnLargerGraph) {
  AmazonOptions gen;
  gen.num_items = 150;
  gen.seed = 77;
  Dataset d = Unwrap(GenerateAmazon(gen));
  WalkIndexOptions wopt;
  wopt.num_walks = 80;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  SingleSourceIndex inverted =
      SingleSourceIndex::Build(index, d.graph.num_nodes());
  LinMeasure lin(&d.context);
  SemSimMcEstimator est(&d.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.05};
  Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
    std::vector<double> scores = inverted.SemSimFrom(u, est, opt);
    for (int c = 0; c < 30; ++c) {
      NodeId v = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
      ASSERT_NEAR(scores[v], est.Query(u, v, opt), 1e-10);
    }
  }
}

}  // namespace
}  // namespace semsim
