#include "twigm/candidate_store.h"

#include <gtest/gtest.h>

namespace vitex::twigm {
namespace {

TEST(CandidateStoreTest, CreateHoldsFragment) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create("frag", 7);
  EXPECT_EQ(store.fragment(id), "frag");
  EXPECT_EQ(store.sequence(id), 7u);
  EXPECT_EQ(store.live(), 1u);
}

TEST(CandidateStoreTest, RefCountingReclaims) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create("x", 1);
  store.Ref(id);
  store.Unref(id);
  EXPECT_EQ(store.live(), 1u);
  store.Unref(id);
  EXPECT_EQ(store.live(), 0u);
}

TEST(CandidateStoreTest, UnemittedReclaimCountsAsPruned) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create("x", 1);
  store.Unref(id);
  EXPECT_EQ(store.stats().pruned, 1u);
  EXPECT_EQ(store.stats().emitted, 0u);
}

TEST(CandidateStoreTest, EmittedReclaimNotPruned) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create("x", 1);
  EXPECT_EQ(store.MarkEmitted(id, 0b1), 0b1u);
  store.Unref(id);
  EXPECT_EQ(store.stats().pruned, 0u);
  EXPECT_EQ(store.stats().emitted, 1u);
}

TEST(CandidateStoreTest, MarkEmittedOnlyOnce) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create("x", 1);
  EXPECT_EQ(store.MarkEmitted(id, 0b011), 0b011u);
  EXPECT_EQ(store.MarkEmitted(id, 0b011), 0u);
  // A later match qualifying more groups delivers only the new ones, and
  // the candidate still counts as emitted once.
  EXPECT_EQ(store.MarkEmitted(id, 0b110), 0b100u);
  EXPECT_EQ(store.MarkEmitted(id, 0b111), 0u);
  EXPECT_EQ(store.stats().emitted, 1u);
  store.Unref(id);
}

TEST(CandidateStoreTest, SlotsRecycled) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId a = store.Create("a", 1);
  store.Unref(a);
  CandidateId b = store.Create("b", 2);
  EXPECT_EQ(a, b);  // the freed slot is reused
  EXPECT_EQ(store.fragment(b), "b");
}

TEST(CandidateStoreTest, MemoryAccountedAndReleased) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId id = store.Create(std::string(1000, 'x'), 1);
  EXPECT_GE(memory.live_bytes(), 1000u);
  store.Unref(id);
  EXPECT_EQ(memory.live_bytes(), 0u);
}

TEST(CandidateStoreTest, PeakStatsTrackHighWater) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId a = store.Create("aaaa", 1);
  CandidateId b = store.Create("bbbb", 2);
  store.Unref(a);
  store.Unref(b);
  EXPECT_EQ(store.stats().peak_live, 2u);
  EXPECT_EQ(store.stats().peak_bytes, 8u);
  EXPECT_EQ(store.live(), 0u);
}

TEST(CandidateStoreTest, ResetClearsEverything) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  store.Create("x", 1);
  store.Reset();
  EXPECT_EQ(store.live(), 0u);
  EXPECT_EQ(store.stats().created, 0u);
}

// Regression (DESIGN.md §12): a slot id freed in document N must not be
// observable in document N+1. Reset used to clear slots_ and free_list_
// outright; now liveness is generational and both tests below pin the new
// contract.
TEST(CandidateStoreTest, FreedSlotIdNotLiveAcrossDocuments) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  CandidateId a = store.Create("a", 1);
  CandidateId b = store.Create("b", 2);
  store.Unref(a);  // a sits on doc N's free list at the boundary
  store.Reset();
  EXPECT_FALSE(store.is_live(a));
  EXPECT_FALSE(store.is_live(b));  // even still-referenced slots die
  // Doc N+1 allocates from the rewound cursor, not doc N's stale free
  // list: the first id is the recycled slot 0, freshly stamped.
  CandidateId c = store.Create("c", 3);
  EXPECT_EQ(c, a);  // same raw slot id, new generation
  EXPECT_TRUE(store.is_live(c));
  EXPECT_EQ(store.fragment(c), "c");
  EXPECT_EQ(store.sequence(c), 3u);
}

TEST(CandidateStoreTest, ResetKeepsPooledCapacity) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  std::vector<CandidateId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(store.Create("x", static_cast<uint64_t>(i)));
  }
  for (CandidateId id : ids) store.Unref(id);
  EXPECT_EQ(store.pooled_slots(), 16u);
  store.Reset();
  // Capacity survives the document boundary ...
  EXPECT_EQ(store.pooled_slots(), 16u);
  // ... and the next document reuses it without growing the pool.
  for (int i = 0; i < 16; ++i) store.Create("y", static_cast<uint64_t>(i));
  EXPECT_EQ(store.pooled_slots(), 16u);
  EXPECT_EQ(store.live(), 16u);
}

TEST(CandidateStoreTest, GenerationAdvancesPerDocument) {
  MemoryTracker memory;
  CandidateStore store(&memory);
  uint64_t g = store.generation();
  store.Reset();
  EXPECT_EQ(store.generation(), g + 1);
  store.Reset();
  EXPECT_EQ(store.generation(), g + 2);
}

}  // namespace
}  // namespace vitex::twigm
