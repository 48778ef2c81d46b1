#include <gtest/gtest.h>

#include "rdd/block_manager.h"
#include "rdd/shuffle.h"

namespace shark {
namespace {

BlockData MakeBlock(int tag) {
  return std::make_shared<const std::vector<int>>(std::vector<int>{tag});
}

// A map output holding `records_per_bucket[b]` ints in bucket b, in the
// single-block layout.
MapOutput MakeMapOutput(int node, const std::vector<uint32_t>& records_per_bucket,
                        std::vector<uint64_t> bucket_bytes) {
  MapOutput out;
  out.node = node;
  out.offsets = {0};
  for (uint32_t r : records_per_bucket) out.offsets.push_back(out.offsets.back() + r);
  out.records = std::make_shared<const std::vector<int>>(out.offsets.back(), 0);
  out.bucket_bytes = std::move(bucket_bytes);
  return out;
}

TEST(BlockManagerTest, PutGetRoundTrip) {
  BlockManager bm(4, 1000);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(7), 100, 2));
  const CachedBlock* b = bm.Get(1, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->node, 2);
  EXPECT_EQ(b->bytes, 100u);
  EXPECT_EQ(bm.Location(1, 0), 2);
  EXPECT_EQ(bm.Get(1, 1), nullptr);
  EXPECT_EQ(bm.Location(9, 9), -1);
}

TEST(BlockManagerTest, RejectsOversizedBlock) {
  BlockManager bm(2, 100);
  EXPECT_FALSE(bm.Put(1, 0, MakeBlock(1), 101, 0));
  EXPECT_EQ(bm.Get(1, 0), nullptr);
}

TEST(BlockManagerTest, LruEvictionUnderPressure) {
  BlockManager bm(1, 250);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(0), 100, 0));
  EXPECT_TRUE(bm.Put(1, 1, MakeBlock(1), 100, 0));
  // Touch partition 0 so partition 1 is LRU.
  EXPECT_NE(bm.Get(1, 0), nullptr);
  EXPECT_TRUE(bm.Put(1, 2, MakeBlock(2), 100, 0));  // forces eviction
  EXPECT_NE(bm.Get(1, 0), nullptr);  // recently used: kept
  EXPECT_EQ(bm.Get(1, 1), nullptr);  // LRU: evicted
  EXPECT_NE(bm.Get(1, 2), nullptr);
  EXPECT_LE(bm.UsedBytes(0), 250u);
}

TEST(BlockManagerTest, ReplaceMovesBlockBetweenNodes) {
  BlockManager bm(3, 1000);
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(1), 100, 0));
  EXPECT_TRUE(bm.Put(1, 0, MakeBlock(2), 150, 2));  // recomputed elsewhere
  EXPECT_EQ(bm.Location(1, 0), 2);
  EXPECT_EQ(bm.UsedBytes(0), 0u);
  EXPECT_EQ(bm.UsedBytes(2), 150u);
}

TEST(BlockManagerTest, DropNodeRemovesOnlyItsBlocks) {
  BlockManager bm(3, 1000);
  bm.Put(1, 0, MakeBlock(0), 10, 0);
  bm.Put(1, 1, MakeBlock(1), 10, 1);
  bm.Put(2, 0, MakeBlock(2), 10, 0);
  bm.DropNode(0);
  EXPECT_EQ(bm.Get(1, 0), nullptr);
  EXPECT_EQ(bm.Get(2, 0), nullptr);
  EXPECT_NE(bm.Get(1, 1), nullptr);
  EXPECT_EQ(bm.UsedBytes(0), 0u);
}

TEST(BlockManagerTest, DropRddRemovesAllPartitions) {
  BlockManager bm(2, 1000);
  bm.Put(1, 0, MakeBlock(0), 10, 0);
  bm.Put(1, 1, MakeBlock(1), 10, 1);
  bm.Put(2, 0, MakeBlock(2), 10, 0);
  bm.DropRdd(1);
  EXPECT_TRUE(bm.CachedPartitions(1).empty());
  EXPECT_EQ(bm.CachedPartitions(2), std::vector<int>{0});
  EXPECT_EQ(bm.TotalUsedBytes(), 10u);
}

TEST(ShuffleManagerTest, RegisterPutFetchLifecycle) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(2, 3);
  EXPECT_TRUE(sm.IsRegistered(id));
  EXPECT_EQ(sm.NumBuckets(id), 3);
  EXPECT_EQ(sm.NumMapPartitions(id), 2);
  EXPECT_FALSE(sm.IsComplete(id));
  EXPECT_EQ(sm.MissingMapPartitions(id).size(), 2u);

  MapOutput out = MakeMapOutput(1, {1, 2, 3}, {10, 20, 30});
  sm.PutMapOutput(id, 0, out);
  EXPECT_FALSE(sm.IsComplete(id));
  sm.PutMapOutput(id, 1, out);
  EXPECT_TRUE(sm.IsComplete(id));
  EXPECT_EQ(sm.Stats(id).total_records, 12u);
}

TEST(ShuffleManagerTest, DropNodeMarksOutputsLostAndRecomputeDoesNotDoubleCount) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(1, 1);
  MapOutput out = MakeMapOutput(0, {5}, {100});
  sm.PutMapOutput(id, 0, out);
  uint64_t bytes_before = sm.Stats(id).total_bytes;
  sm.DropNode(0);
  EXPECT_FALSE(sm.IsComplete(id));
  EXPECT_EQ(sm.MissingMapPartitions(id), std::vector<int>{0});
  // Recompute on another node: stats must not double count.
  out.node = 1;
  sm.PutMapOutput(id, 0, out);
  EXPECT_TRUE(sm.IsComplete(id));
  EXPECT_EQ(sm.Stats(id).total_bytes, bytes_before);
  EXPECT_EQ(sm.Stats(id).total_records, 5u);
}

}  // namespace
}  // namespace shark
