#include "core/engine_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "core/batch_engine.h"
#include "core/dynamic_walk_index.h"
#include "core/walk_index.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

WalkIndexOptions SmallWalks(uint64_t seed = 11) {
  WalkIndexOptions opt;
  opt.num_walks = 40;
  opt.walk_length = 8;
  opt.seed = seed;
  return opt;
}

TEST(EngineSnapshot, BuildDerivesArtifactsAndFingerprint) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr snap = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      /*version=*/7));

  EXPECT_EQ(snap->version(), 7u);
  EXPECT_NE(snap->fingerprint(), 0u);
  EXPECT_EQ(&snap->graph(), &w.graph);
  EXPECT_EQ(snap->walk_index().num_walks(), SmallWalks().num_walks);
  EXPECT_GT(snap->MemoryBytes(), 0u);
  // Default query options use the flat kernel on a flattenable graph.
  EXPECT_NE(snap->transition_table(), nullptr);

  // Same inputs, same fingerprint; a different sampling seed changes the
  // walk content and therefore the fingerprint.
  EngineSnapshotPtr same = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      /*version=*/8));
  EXPECT_EQ(snap->fingerprint(), same->fingerprint());
  EngineSnapshotPtr other = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(99), opt,
      /*version=*/9));
  EXPECT_NE(snap->fingerprint(), other->fingerprint());
}

TEST(EngineSnapshot, RejectsNullArtifactsAndBadCapacities) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  auto walks = std::make_shared<const WalkIndex>(
      WalkIndex::Build(w.graph, SmallWalks()));
  EngineSnapshotOptions opt;
  EXPECT_FALSE(EngineSnapshot::Create(nullptr, Unowned<SemanticMeasure>(&lin),
                                      walks, opt, 0)
                   .ok());
  EXPECT_FALSE(
      EngineSnapshot::Create(Unowned(&w.graph), nullptr, walks, opt, 0).ok());
  EXPECT_FALSE(EngineSnapshot::Create(Unowned(&w.graph),
                                      Unowned<SemanticMeasure>(&lin), nullptr,
                                      opt, 0)
                   .ok());
  EngineSnapshotOptions bad = opt;
  bad.normalizer_cache_capacity = -1;
  EXPECT_FALSE(EngineSnapshot::Create(Unowned(&w.graph),
                                      Unowned<SemanticMeasure>(&lin), walks,
                                      bad, 0)
                   .ok());
}

TEST(EngineSnapshot, InvertedIndexIsLazyIdempotentAndEagerOnRequest) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr lazy = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      0));
  EXPECT_EQ(lazy->inverted_if_built(), nullptr);
  const SingleSourceIndex& first = lazy->InvertedIndex();
  EXPECT_EQ(&first, lazy->inverted_if_built());
  EXPECT_EQ(&first, &lazy->InvertedIndex());  // idempotent

  opt.eager_single_source = true;
  EngineSnapshotPtr eager = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      0));
  EXPECT_NE(eager->inverted_if_built(), nullptr);
}

TEST(EngineSnapshot, MappedArtifactServesBitIdenticallyToOwned) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex built = WalkIndex::Build(w.graph, SmallWalks());
  std::string path = ::testing::TempDir() + "semsim_snapshot_mapped.widx";
  ASSERT_TRUE(built.Save(path).ok());

  EngineSnapshotOptions opt;
  EngineSnapshotPtr owned = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      1));
  EngineSnapshotPtr mapped = Unwrap(EngineSnapshot::MapArtifact(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), path, opt, 2));
  ASSERT_TRUE(mapped->walk_index().mapped());

  // Identical walk content + options => identical fingerprint, and the
  // engines bound to the two snapshots agree bit for bit.
  EXPECT_EQ(owned->fingerprint(), mapped->fingerprint());
  BatchQueryEngine a = Unwrap(BatchQueryEngine::CreateFromSnapshot(owned, 1));
  BatchQueryEngine b = Unwrap(BatchQueryEngine::CreateFromSnapshot(mapped, 1));
  std::vector<NodePair> pairs = {{w.a0, w.a1}, {w.a2, w.b0}, {w.b0, w.b1}};
  std::vector<double> got_a = a.QueryBatch(pairs).values;
  std::vector<double> got_b = b.QueryBatch(pairs).values;
  ASSERT_EQ(got_a.size(), got_b.size());
  for (size_t i = 0; i < got_a.size(); ++i) EXPECT_EQ(got_a[i], got_b[i]);
  std::remove(path.c_str());
}

// Writes a copy of the artifact at `path` to `out_path` with sizeof(T)
// bytes at `at` inside section `record` (0 = steps, 1 = live lengths)
// replaced by `value`, and that section's checksum rewritten. The
// section directory is 32-byte records {offset, size, checksum, ...}
// after the 48-byte header and an 8-byte directory header.
template <typename T>
void WriteWithSectionValue(const std::string& path,
                           const std::string& out_path, int record, size_t at,
                           T value) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const size_t rec = 56 + static_cast<size_t>(record) * 32;
  uint64_t offset = 0;
  uint64_t size = 0;
  std::memcpy(&offset, bytes.data() + rec, sizeof(offset));
  std::memcpy(&size, bytes.data() + rec + 8, sizeof(size));
  std::memcpy(bytes.data() + offset + at, &value, sizeof(T));
  uint64_t checksum = Fnv1a64(bytes.data() + offset, size);
  std::memcpy(bytes.data() + rec + 16, &checksum, sizeof(checksum));
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A mapped artifact is not read at Map time, so out-of-bounds walk
// content must be caught when the snapshot is created — as a Status,
// before any single-source build or query can index past an array.
TEST(EngineSnapshot, MappedArtifactWithOutOfRangeWalksIsRejected) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex built = WalkIndex::Build(w.graph, SmallWalks());
  ASSERT_GT(built.WalkLiveLength(0, 0), 0);
  std::string path = ::testing::TempDir() + "semsim_snapshot_bounds.widx";
  std::string bad = ::testing::TempDir() + "semsim_snapshot_bounds_bad.widx";
  ASSERT_TRUE(built.Save(path).ok());
  EngineSnapshotOptions opt;
  opt.eager_single_source = true;
  WalkIndexMapOptions verify;
  verify.verify_checksums = true;

  const NodeId n = static_cast<NodeId>(w.graph.num_nodes());
  WriteWithSectionValue<NodeId>(path, bad, 0, 0, n);
  Result<EngineSnapshotPtr> step = EngineSnapshot::MapArtifact(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), bad, opt, 1, verify);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(step.status().message().find("out of range"), std::string::npos)
      << step.status().ToString();

  const uint16_t too_long = static_cast<uint16_t>(SmallWalks().walk_length + 1);
  WriteWithSectionValue<uint16_t>(path, bad, 1, 0, too_long);
  Result<EngineSnapshotPtr> live = EngineSnapshot::MapArtifact(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), bad, opt, 2, verify);
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(live.status().message().find("exceeds walk_length"),
            std::string::npos)
      << live.status().ToString();

  // The pristine artifact still maps and serves.
  EXPECT_TRUE(EngineSnapshot::MapArtifact(Unowned(&w.graph),
                                          Unowned<SemanticMeasure>(&lin), path,
                                          opt, 3, verify)
                  .ok());
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// Mapped -> owned promotion through the maintainer: Adopt COW-promotes
// the mapped artifact, and UpdateToSnapshot publishes the maintained
// walks as a fresh owned snapshot while the mapped-era results replay.
TEST(EngineSnapshot, AdoptedMappedIndexPublishesOwnedSnapshot) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex built = WalkIndex::Build(w.graph, SmallWalks());
  std::string path = ::testing::TempDir() + "semsim_snapshot_adopt.widx";
  ASSERT_TRUE(built.Save(path).ok());
  WalkIndex mapped = Unwrap(WalkIndex::Map(path, w.graph.num_nodes()));
  DynamicWalkIndex dyn =
      Unwrap(DynamicWalkIndex::Adopt(&w.graph, std::move(mapped)));

  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const LinMeasure>(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr snap = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, /*version=*/1));
  EXPECT_FALSE(snap->walk_index().mapped());
  EXPECT_EQ(snap->version(), 1u);

  // The published snapshot serves the same walks the artifact held.
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    auto a = built.Walk(v, 0);
    auto b = snap->walk_index().Walk(v, 0);
    for (int s = 0; s < built.walk_length(); ++s) ASSERT_EQ(a[s], b[s]);
  }
  std::remove(path.c_str());
}

// The COW seam: a snapshot exported by UpdateToSnapshot must stay
// bit-stable while the maintainer keeps resampling.
TEST(EngineSnapshot, PublishedSnapshotSurvivesFurtherUpdatesUnchanged) {
  auto w = MakeSmallWorld();
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, SmallWalks());

  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const ConstantMeasure>();
  EngineSnapshotOptions opt;
  EngineSnapshotPtr v1 = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, /*version=*/1));
  BatchQueryEngine e1 = Unwrap(BatchQueryEngine::CreateFromSnapshot(v1, 1));
  std::vector<NodePair> pairs = {{w.a0, w.a1}, {w.a2, w.b0}, {w.b0, w.b1}};
  std::vector<double> before = e1.QueryBatch(pairs).values;
  uint64_t fp_before = v1->fingerprint();

  // Mutate the graph; the maintainer resamples onto a private copy.
  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.b1, w.a0, "rel", 1.0).ok());
  auto updated = std::make_shared<const Hin>(Unwrap(std::move(builder).Build()));
  size_t resampled = 0;
  EngineSnapshotPtr v2 = Unwrap(dyn.UpdateToSnapshot(
      updated, std::vector<NodeId>{w.b1, w.a0}, measure, opt, /*version=*/2,
      &resampled));
  EXPECT_GT(resampled, 0u);
  EXPECT_NE(v2->fingerprint(), fp_before);

  // v1 readers still see exactly the pre-update world.
  EXPECT_EQ(v1->fingerprint(), fp_before);
  std::vector<double> after = e1.QueryBatch(pairs).values;
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

// Destruction ordering under chaining: the old snapshot (and the
// artifacts only it references) must die exactly when its last reader
// releases it, never while an engine still serves from it. ASan guards
// the use-after-free half; the weak_ptr guards the leak half.
TEST(EngineSnapshot, ChainedSnapshotsDieWithTheirLastReader) {
  auto w = MakeSmallWorld();
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, SmallWalks());
  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const ConstantMeasure>();
  EngineSnapshotOptions opt;

  EngineSnapshotPtr v1 = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, 1));
  std::weak_ptr<const EngineSnapshot> watch = v1;
  auto engine = std::make_unique<BatchQueryEngine>(
      Unwrap(BatchQueryEngine::CreateFromSnapshot(v1, 1)));
  v1.reset();  // the engine is now the only reader
  EXPECT_FALSE(watch.expired());
  std::vector<NodePair> pairs = {{w.a0, w.b1}};
  EXPECT_EQ(engine->QueryBatch(pairs).values.size(), 1u);
  engine.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace semsim
