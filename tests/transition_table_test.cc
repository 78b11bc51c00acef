#include "graph/transition_table.h"

#include <gtest/gtest.h>

#include "datasets/aminer_gen.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

// Every group must reproduce Hin::InEdgeInfo bit-for-bit, and the
// precomputed quotients must equal InEdgeInfo plus its divisions by
// InDegree / TotalInWeight — exact EXPECT_EQ on doubles, no tolerance.
void CheckAgainstGraph(const Hin& g, const TransitionTable& t) {
  ASSERT_EQ(t.num_nodes(), g.num_nodes());
  size_t groups_seen = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto groups = t.InGroups(v);
    groups_seen += groups.size();
    NodeId prev = kInvalidNode;
    for (const TransitionTable::Group& grp : groups) {
      if (prev != kInvalidNode) {
        EXPECT_LT(prev, grp.from) << "groups must mirror the sorted CSR";
      }
      prev = grp.from;
      Hin::EdgeInfo info = g.InEdgeInfo(v, grp.from);
      EXPECT_EQ(grp.multiplicity, info.multiplicity);
      EXPECT_EQ(grp.total_weight, info.total_weight);
      EXPECT_EQ(grp.q_uniform,
                static_cast<double>(info.multiplicity) /
                    static_cast<double>(g.InDegree(v)));
      EXPECT_EQ(grp.q_weighted, info.total_weight / g.TotalInWeight(v));
      // The O(1) map agrees with the per-node span.
      const TransitionTable::Group* found = t.FindInGroup(v, grp.from);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found, &grp);
    }
    if (g.InDegree(v) == 0) {
      EXPECT_TRUE(groups.empty());
      EXPECT_EQ(t.inv_in_degree(v), 0.0);
      EXPECT_EQ(t.inv_total_in_weight(v), 0.0);
    } else {
      EXPECT_EQ(t.inv_in_degree(v),
                1.0 / static_cast<double>(g.InDegree(v)));
      EXPECT_EQ(t.inv_total_in_weight(v), 1.0 / g.TotalInWeight(v));
    }
  }
  EXPECT_EQ(t.num_groups(), groups_seen);
}

TEST(TransitionTable, MatchesInEdgeInfoOnSmallWorld) {
  auto w = MakeSmallWorld();
  TransitionTable table = TransitionTable::Build(w.graph);
  CheckAgainstGraph(w.graph, table);
}

TEST(TransitionTable, MatchesInEdgeInfoOnGeneratedHin) {
  AminerOptions opt;
  opt.num_authors = 150;
  opt.seed = 5;
  Dataset dataset = Unwrap(GenerateAminer(opt));
  TransitionTable table = TransitionTable::Build(dataset.graph);
  CheckAgainstGraph(dataset.graph, table);
}

TEST(TransitionTable, CollapsesParallelEdges) {
  HinBuilder b;
  NodeId a = b.AddNode("a", "t");
  NodeId c = b.AddNode("c", "t");
  NodeId d = b.AddNode("d", "t");
  // Three parallel edges a->c with distinct labels/weights, one d->c.
  ASSERT_TRUE(b.AddEdge(a, c, "e1", 1.0).ok());
  ASSERT_TRUE(b.AddEdge(a, c, "e2", 2.5).ok());
  ASSERT_TRUE(b.AddEdge(a, c, "e3", 0.5).ok());
  ASSERT_TRUE(b.AddEdge(d, c, "e1", 4.0).ok());
  Hin g = Unwrap(std::move(b).Build());
  TransitionTable table = TransitionTable::Build(g);

  const TransitionTable::Group* ac = table.FindInGroup(c, a);
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->multiplicity, 3u);
  EXPECT_EQ(ac->total_weight, g.InEdgeInfo(c, a).total_weight);
  EXPECT_EQ(ac->q_uniform, 3.0 / static_cast<double>(g.InDegree(c)));
  const TransitionTable::Group* dc = table.FindInGroup(c, d);
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->multiplicity, 1u);
  EXPECT_EQ(table.InGroups(c).size(), 2u);
}

TEST(TransitionTable, FindInGroupReturnsNullForMissingEdges) {
  auto w = MakeSmallWorld();
  TransitionTable table = TransitionTable::Build(w.graph);
  // Self-loops don't exist in the small world.
  EXPECT_EQ(table.FindInGroup(w.a0, w.a0), nullptr);
  // A pair with no edge in this direction.
  bool has_edge = false;
  for (const Neighbor& nb : w.graph.InNeighbors(w.a0)) {
    if (nb.node == w.b1) has_edge = true;
  }
  if (!has_edge) EXPECT_EQ(table.FindInGroup(w.a0, w.b1), nullptr);
}

TEST(TransitionTable, IsolatedNodesHaveNoGroups) {
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");  // in-isolated
  NodeId y = b.AddNode("y", "t");
  ASSERT_TRUE(b.AddEdge(x, y, "e", 2.0).ok());
  Hin g = Unwrap(std::move(b).Build());
  TransitionTable table = TransitionTable::Build(g);
  EXPECT_TRUE(table.InGroups(x).empty());
  EXPECT_EQ(table.FindInGroup(x, y), nullptr);
  EXPECT_EQ(table.inv_in_degree(x), 0.0);
  EXPECT_EQ(table.inv_total_in_weight(x), 0.0);
  ASSERT_EQ(table.InGroups(y).size(), 1u);
  EXPECT_EQ(table.InGroups(y)[0].from, x);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace semsim
