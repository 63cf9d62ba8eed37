// Push-mode delivery through the public facade (service/vitex.h +
// service/match_sink.h): Subscribe(xpath, SinkOptions) hands deliveries
// to a MatchSink on shard threads instead of buffering for Drain. These
// tests pin the contract net/server.cc is built on: per-subscription
// delivery order, the OnMatch-refusal/OnOverflow accounting, Drain being
// an error on push subscriptions, the sink staying alive (no OnMatch on a
// dead object) across the ASYNC unsubscribe window, and which deliveries
// that window holds: exactly those of documents published before the
// Unsubscribe call.

#include "service/match_sink.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/vitex.h"

namespace vitex {
namespace {

using service::Delivery;
using service::DeliveryMode;
using service::MatchSink;
using service::SinkOptions;
using service::SubscriptionId;

// Records every OnMatch/OnOverflow; can be told to refuse deliveries.
class RecordingSink : public MatchSink {
 public:
  bool OnMatch(SubscriptionId id, const Delivery& delivery) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (refuse_) return false;
    fragments_.push_back(delivery.fragment);
    ids_.push_back(id);
    return true;
  }

  void OnOverflow(SubscriptionId id, uint64_t dropped_total) override {
    std::lock_guard<std::mutex> lock(mu_);
    overflow_calls_.push_back(dropped_total);
    last_overflow_id_ = id;
  }

  void set_refuse(bool refuse) {
    std::lock_guard<std::mutex> lock(mu_);
    refuse_ = refuse;
  }

  std::vector<std::string> fragments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fragments_;
  }
  std::vector<SubscriptionId> ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }
  std::vector<uint64_t> overflow_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overflow_calls_;
  }
  SubscriptionId last_overflow_id() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_overflow_id_;
  }

 private:
  mutable std::mutex mu_;
  bool refuse_ = false;
  std::vector<std::string> fragments_;
  std::vector<SubscriptionId> ids_;
  std::vector<uint64_t> overflow_calls_;
  SubscriptionId last_overflow_id_ = 0;
};

ServiceOptions TwoShardOptions() {
  ServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 1;
  return options;
}

TEST(ServicePushSinkTest, DeliversInPublishOrderWithSubscriptionId) {
  Service service(TwoShardOptions());
  auto sink = std::make_shared<RecordingSink>();
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  auto sub = service.Subscribe("//item/text()", push);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  for (int d = 0; d < 50; ++d) {
    ASSERT_TRUE(
        service.Publish("<r><item>v" + std::to_string(d) + "</item></r>")
            .ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  std::vector<std::string> got = sink->fragments();
  ASSERT_EQ(got.size(), 50u);
  for (int d = 0; d < 50; ++d) {
    EXPECT_EQ(got[static_cast<size_t>(d)], "v" + std::to_string(d));
  }
  for (SubscriptionId id : sink->ids()) {
    EXPECT_EQ(id, sub->id());
  }
}

TEST(ServicePushSinkTest, DrainIsAnErrorOnPushSubscriptions) {
  Service service(TwoShardOptions());
  auto sink = std::make_shared<RecordingSink>();
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  auto sub = service.Subscribe("//a", push);
  ASSERT_TRUE(sub.ok());
  auto drained = sub->Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServicePushSinkTest, PushModeRequiresASink) {
  Service service(TwoShardOptions());
  SinkOptions push;
  push.mode = DeliveryMode::kPush;  // sink left null
  auto sub = service.Subscribe("//a", push);
  EXPECT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServicePushSinkTest, RefusedDeliveriesCountAsOverflowed) {
  Service service(TwoShardOptions());
  auto sink = std::make_shared<RecordingSink>();
  sink->set_refuse(true);
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  auto sub = service.Subscribe("//item/text()", push);
  ASSERT_TRUE(sub.ok());

  constexpr int kDocs = 10;
  for (int d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(service.Publish("<r><item>x</item></r>").ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  EXPECT_TRUE(sink->fragments().empty());
  // One OnOverflow per refusal, on the refusing thread, with a running
  // total that ends at kDocs.
  std::vector<uint64_t> overflow = sink->overflow_calls();
  ASSERT_EQ(overflow.size(), static_cast<size_t>(kDocs));
  EXPECT_EQ(overflow.back(), static_cast<uint64_t>(kDocs));
  EXPECT_EQ(sink->last_overflow_id(), sub->id());
  EXPECT_EQ(service.stats().results_overflowed,
            static_cast<uint64_t>(kDocs));
  EXPECT_EQ(service.stats().results_delivered, 0u);
}

TEST(ServicePushSinkTest, SinkOutlivesTheAsyncUnsubscribeWindow) {
  // Unsubscribe returns immediately (epoch-cut semantics); the service
  // must keep the sink alive until the op applies on its shard, so an
  // OnMatch racing the unsubscribe never touches a dead object. ASan
  // turns a violation into a hard failure; the weak_ptr observes the
  // release once the service lets go.
  Service service(TwoShardOptions());
  auto sink = std::make_shared<RecordingSink>();
  std::weak_ptr<RecordingSink> watch = sink;
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  // Move: a lingering SinkOptions copy would hold the sink itself.
  auto sub = service.Subscribe("//item/text()", std::move(push));
  ASSERT_TRUE(sub.ok());

  for (int d = 0; d < 20; ++d) {
    ASSERT_TRUE(service.Publish("<r><item>y</item></r>").ok());
  }
  ASSERT_TRUE(sub->Unsubscribe().ok());  // async: returns before applied
  sink.reset();  // our reference is gone; the service's must suffice
  ASSERT_TRUE(service.Flush().ok());

  // Once flushed, the ops applied and the service released the sink.
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_TRUE(watch.expired());
}

// Blocks its first OnMatch until Open(); records every fragment.
class LatchedSink : public MatchSink {
 public:
  bool OnMatch(SubscriptionId, const Delivery& delivery) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!entered_) {
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    fragments_.push_back(delivery.fragment);
    return true;
  }
  void OnOverflow(SubscriptionId, uint64_t) override {}

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  std::vector<std::string> fragments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fragments_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
  std::vector<std::string> fragments_;
};

TEST(ServicePushSinkTest, UnsubscribeAppliesAtItsEpochNotAtReturn) {
  // The epoch rule (DESIGN.md §5): Unsubscribe applies after every
  // document published before it. Here the shard is parked inside the
  // first OnMatch until Unsubscribe has returned, so all of those
  // deliveries start after the call returned — and none of the documents
  // published after it may reach the sink.
  Service service(TwoShardOptions());
  auto sink = std::make_shared<LatchedSink>();
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  // Opens the latch on every exit path: Stop() joins the parked shard.
  struct OpenOnExit {
    LatchedSink* sink;
    ~OpenOnExit() { sink->Open(); }
  } open_on_exit{sink.get()};
  auto sub = service.Subscribe("//item/text()", std::move(push));
  ASSERT_TRUE(sub.ok());

  constexpr int kBefore = 5;
  std::vector<std::string> expected;
  for (int d = 0; d < kBefore; ++d) {
    expected.push_back("before" + std::to_string(d));
    ASSERT_TRUE(
        service.Publish("<r><item>" + expected.back() + "</item></r>").ok());
  }
  sink->WaitEntered();
  ASSERT_TRUE(sub->Unsubscribe().ok());
  for (int d = 0; d < 5; ++d) {
    ASSERT_TRUE(service
                    .Publish("<r><item>after" + std::to_string(d) +
                             "</item></r>")
                    .ok());
  }
  sink->Open();
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(sink->fragments(), expected);
}

TEST(ServicePushSinkTest, SubscribeDoesNotWaitForFullStreamQueues) {
  // A control call never needs room in a document queue (DESIGN.md §9).
  // The only shard is parked inside a delivery and two pinned publishers
  // have filled its inbox and both stream queues behind it; Subscribe
  // must still return, and its subscription applies once the shard
  // resumes.
  ServiceOptions options;
  options.shard_count = 1;
  options.stream_count = 2;
  options.queue_capacity = 1;
  Service service(options);
  auto sink = std::make_shared<LatchedSink>();
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  std::vector<std::thread> publishers;
  // Opens the latch and joins the publishers on every exit path.
  struct Release {
    LatchedSink* sink;
    std::vector<std::thread>* threads;
    ~Release() {
      sink->Open();
      for (auto& t : *threads) t.join();
    }
  } release{sink.get(), &publishers};
  auto parked = service.Subscribe("//a/text()", std::move(push));
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(service.Publish("<a>x</a>").ok());
  sink->WaitEntered();
  // Each publisher blocks once its stream's queue is full.
  for (size_t stream = 0; stream < 2; ++stream) {
    publishers.emplace_back([&service, stream] {
      for (int d = 0; d < 4; ++d) (void)service.PublishToStream(stream, "<c/>");
    });
  }
  // Stable once it holds: the parked shard's inbox (capacity 2) is full,
  // each stream thread holds one document it cannot push, and each stream
  // queue (capacity 1) is full behind it.
  auto queues_full = [&service] {
    ServiceStats stats = service.stats();
    return stats.shards[0].queue_depth == 2 &&
           stats.streams[0].queue_depth == 1 &&
           stats.streams[1].queue_depth == 1;
  };
  for (int i = 0; i < 5000 && !queues_full(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queues_full());

  auto subscribed = std::async(std::launch::async, [&service] {
    return service.Subscribe("//b/text()");
  });
  EXPECT_EQ(subscribed.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  sink->Open();
  auto late = subscribed.get();
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(service.Publish("<b>y</b>").ok());
  ASSERT_TRUE(service.Flush().ok());
  auto got = late->Drain();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ(got->front().fragment, "y");
}

TEST(ServicePushSinkTest, PushAndPullSubscriptionsCoexist) {
  Service service(TwoShardOptions());
  auto sink = std::make_shared<RecordingSink>();
  SinkOptions push;
  push.mode = DeliveryMode::kPush;
  push.sink = sink;
  auto push_sub = service.Subscribe("//item/text()", push);
  auto pull_sub = service.Subscribe("//item/text()");
  ASSERT_TRUE(push_sub.ok());
  ASSERT_TRUE(pull_sub.ok());

  ASSERT_TRUE(service.Publish("<r><item>both</item></r>").ok());
  ASSERT_TRUE(service.Flush().ok());

  auto drained = pull_sub->Drain();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 1u);
  EXPECT_EQ((*drained)[0].fragment, "both");
  std::vector<std::string> pushed = sink->fragments();
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0], "both");
}

}  // namespace
}  // namespace vitex
