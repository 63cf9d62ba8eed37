#include "service/bounded_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace vitex::service {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, CapacityClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
}

TEST(BoundedQueueTest, CloseDrainsPendingThenEnds) {
  BoundedQueue<std::string> q(4);
  EXPECT_TRUE(q.Push("a"));
  EXPECT_TRUE(q.Push("b"));
  q.Close();
  EXPECT_FALSE(q.Push("c"));  // closed: rejected
  auto a = q.Pop();
  auto b = q.Pop();
  ASSERT_TRUE(a && b);  // already-queued items still drain
  EXPECT_EQ(*a, "a");
  EXPECT_EQ(*b, "b");
  EXPECT_FALSE(q.Pop().has_value());  // drained + closed
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks: queue is full
    second_pushed.store(true);
  });
  // The producer cannot complete until we pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// The drain guarantee under a shutdown race: producers blocked in Push on a
// FULL queue race Close(). Every Push that returned true must be popped
// exactly once; every Push that returned false must never appear. No item
// lost, none duplicated.
TEST(BoundedQueueTest, PushRacingCloseWhileFullLosesNothing) {
  for (int round = 0; round < 20; ++round) {
    BoundedQueue<int> q(2);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 50;
    std::array<std::atomic<bool>, kProducers * kPerProducer> accepted{};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, &accepted, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          int item = p * kPerProducer + i;
          if (q.Push(item)) {
            accepted[item].store(true);
          } else {
            return;  // closed: everything after would be rejected too
          }
        }
      });
    }
    // Let producers pile up against the tiny capacity, then slam the door
    // mid-traffic.
    std::this_thread::sleep_for(std::chrono::microseconds(50 + 100 * round));
    q.Close();
    for (auto& t : producers) t.join();

    std::vector<int> popped;
    while (auto v = q.Pop()) popped.push_back(*v);
    // Exactly the accepted items, each exactly once.
    std::vector<int> expected;
    for (size_t i = 0; i < accepted.size(); ++i) {
      if (accepted[i].load()) expected.push_back(static_cast<int>(i));
    }
    std::sort(popped.begin(), popped.end());
    EXPECT_EQ(popped, expected) << "round " << round;
    // And the queue is now terminally empty.
    EXPECT_FALSE(q.Pop().has_value());
  }
}

// Consumers blocked in Pop on an EMPTY queue must all wake with nullopt
// when Close() arrives — after first draining anything still queued.
TEST(BoundedQueueTest, BlockedConsumersDrainThenEndOnClose) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  std::atomic<int> drained{0};
  std::atomic<int> ended{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) drained.fetch_add(*v);
      ended.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(drained.load(), 1);  // the queued item was not lost to Close
  EXPECT_EQ(ended.load(), 3);    // every blocked consumer ended cleanly
}

// Capacity-1 ping-pong: producer and consumer strictly alternate through
// the single slot; order and completeness must survive the tight handoff.
TEST(BoundedQueueTest, CapacityOnePingPongUnderThreads) {
  BoundedQueue<int> q(1);
  constexpr int kItems = 5000;
  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    while (auto v = q.Pop()) received.push_back(*v);
  });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(q.Push(i));
  }
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[i], i) << "FIFO violated at " << i;
  }
}

// The multi-producer drain guarantee with ALL THREE parties racing: N
// producers hammering Push, a consumer draining concurrently, and Close()
// arriving mid-traffic. Every Push that returned true is popped exactly
// once (across the race and the post-close drain); every Push that
// returned false contributes nothing; pushed_count() equals the number of
// accepted pushes.
TEST(BoundedQueueTest, MultiProducerPushRacesCloseAndDrainingConsumer) {
  for (int round = 0; round < 15; ++round) {
    BoundedQueue<int> q(3);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    std::array<std::atomic<bool>, kProducers * kPerProducer> accepted{};
    std::vector<int> drained;
    std::thread consumer([&] {
      while (auto v = q.Pop()) drained.push_back(*v);
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, &accepted, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          int item = p * kPerProducer + i;
          if (!q.Push(item)) return;  // closed: all later pushes fail too
          accepted[item].store(true);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(30 + 70 * round));
    q.Close();
    for (auto& t : producers) t.join();
    consumer.join();  // drains whatever Close left behind, then ends

    std::vector<int> expected;
    for (size_t i = 0; i < accepted.size(); ++i) {
      if (accepted[i].load()) expected.push_back(static_cast<int>(i));
    }
    std::sort(drained.begin(), drained.end());
    EXPECT_EQ(drained, expected) << "round " << round;
    EXPECT_EQ(q.pushed_count(), expected.size()) << "round " << round;
    EXPECT_FALSE(q.Pop().has_value());
  }
}

// Per-producer FIFO survives the race: with a concurrent consumer and
// multiple producers, each producer's accepted items are popped in its own
// push order (the queue may interleave producers, never reorder one).
TEST(BoundedQueueTest, MultiProducerPerProducerOrderPreserved) {
  BoundedQueue<std::pair<int, int>> q(4);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 400;
  std::vector<std::pair<int, int>> drained;
  std::thread consumer([&] {
    while (auto v = q.Pop()) drained.push_back(*v);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push({p, i}));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  ASSERT_EQ(drained.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  std::array<int, kProducers> next{};
  for (const auto& [p, i] : drained) {
    EXPECT_EQ(i, next[p]) << "producer " << p << " reordered";
    next[p] = i + 1;
  }
}

// Ticket-turnstile admission: a producer that started waiting on a full
// queue first is admitted first.
TEST(BoundedQueueTest, ProducersAdmittedInArrivalOrder) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));  // full
  std::thread first([&] { EXPECT_TRUE(q.Push(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread second([&] { EXPECT_TRUE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.Pop().value(), 0);
  EXPECT_EQ(q.Pop().value(), 1);  // the earlier waiter got the slot
  EXPECT_EQ(q.Pop().value(), 2);
  first.join();
  second.join();
}

}  // namespace
}  // namespace vitex::service
