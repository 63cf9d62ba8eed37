#include "service/stream_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "difftest/oracle.h"
#include "twigm/multi_query.h"

namespace vitex::service {
namespace {

// A small news-wire document cycling over `tags` distinct item tags.
std::string MakeDoc(int tags, int items, int salt) {
  std::string doc = "<feed>";
  for (int i = 0; i < items; ++i) {
    int tag = (i + salt) % tags;
    doc += "<item" + std::to_string(tag) + " id=\"d" + std::to_string(salt) +
           "i" + std::to_string(i) + "\"><val>v" + std::to_string(salt) +
           "_" + std::to_string(i) + "</val></item" + std::to_string(tag) +
           ">";
  }
  doc += "</feed>";
  return doc;
}

std::vector<std::string> SortedFragments(std::vector<Delivery> deliveries) {
  std::vector<std::string> out;
  out.reserve(deliveries.size());
  for (auto& d : deliveries) out.push_back(std::move(d.fragment));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StreamServiceTest, DeliveriesMatchDirectEngine) {
  const std::vector<std::string> queries = {
      "//item0/val/text()", "//item1/@id", "//item2[val]/val/text()",
      "//*/val/text()",     "//feed//item3"};
  const std::vector<std::string> docs = {MakeDoc(5, 9, 0), MakeDoc(5, 7, 1),
                                         MakeDoc(5, 12, 2)};

  // Reference: one single-threaded engine over the same documents.
  twigm::MultiQueryEngine reference;
  std::vector<twigm::VectorResultCollector> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(reference.AddQuery(queries[q], &expected[q]).ok());
  }
  for (const std::string& doc : docs) {
    ASSERT_TRUE(reference.RunString(doc).ok());
    reference.ResetStream();
  }

  for (size_t shard_count : {1, 2, 4}) {
    StreamServiceOptions options;
    options.shard_count = shard_count;
    StreamService service(options);
    std::vector<SubscriptionId> subs;
    for (const std::string& q : queries) {
      auto id = service.Subscribe(q);
      ASSERT_TRUE(id.ok()) << q << ": " << id.status();
      subs.push_back(id.value());
    }
    for (const std::string& doc : docs) {
      ASSERT_TRUE(service.Publish(doc).ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto drained = service.Drain(subs[q]);
      ASSERT_TRUE(drained.ok());
      std::vector<std::string> want;
      for (const auto& e : expected[q].results()) want.push_back(e.fragment);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(SortedFragments(std::move(drained).value()), want)
          << "query " << queries[q] << " shards=" << shard_count;
    }
    EXPECT_TRUE(service.Stop().ok());
  }
}

TEST(StreamServiceTest, SubscribeAppliesAtDocumentBoundary) {
  StreamServiceOptions options;
  options.shard_count = 2;
  StreamService service(options);
  ASSERT_TRUE(service.Publish(MakeDoc(2, 4, 0)).ok());
  ASSERT_TRUE(service.Flush().ok());

  // Joined after the first document: must see only the later ones.
  auto late = service.Subscribe("//item0/@id");
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(service.Publish(MakeDoc(2, 4, 7)).ok());
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(late.value());
  ASSERT_TRUE(drained.ok());
  ASSERT_FALSE(drained->empty());
  for (const Delivery& d : drained.value()) {
    EXPECT_EQ(d.fragment.substr(0, 2), "d7")
        << "saw a result from a document published before the subscribe: "
        << d.fragment;
  }
}

TEST(StreamServiceTest, UnsubscribeStopsDeliveriesAndInvalidatesId) {
  StreamService service;
  auto id = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Publish(MakeDoc(1, 3, 0)).ok());
  ASSERT_TRUE(service.Flush().ok());
  auto first = service.Drain(id.value());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 3u);

  ASSERT_TRUE(service.Unsubscribe(id.value()).ok());
  EXPECT_TRUE(service.Drain(id.value()).status().IsInvalidArgument());
  EXPECT_TRUE(service.Unsubscribe(id.value()).IsInvalidArgument());
  ASSERT_TRUE(service.Publish(MakeDoc(1, 3, 1)).ok());
  EXPECT_TRUE(service.Flush().ok());  // machine is gone; nothing crashes
}

TEST(StreamServiceTest, InvalidQueryRejectedSynchronously) {
  StreamService service;
  EXPECT_FALSE(service.Subscribe("][not-xpath").ok());
  EXPECT_FALSE(service.Subscribe("//a[").ok());
  EXPECT_EQ(service.stats().active_subscriptions, 0u);
}

TEST(StreamServiceTest, MalformedDocumentRejectedNotFatal) {
  StreamService service;
  auto id = service.Subscribe("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Publish("<a>unclosed").ok());   // accepted async...
  ASSERT_TRUE(service.Publish("<a>good</a>").ok());
  ASSERT_TRUE(service.Flush().ok());                  // ...rejected on ingest
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_rejected, 1u);
  EXPECT_EQ(stats.documents_processed, 1u);
  auto drained = service.Drain(id.value());
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 1u);
  EXPECT_EQ(drained->front().fragment, "good");
}

TEST(StreamServiceTest, BackpressureWithTinyQueues) {
  StreamServiceOptions options;
  options.shard_count = 3;
  options.queue_capacity = 1;  // every hop backpressures
  StreamService service(options);
  auto id = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(id.ok());
  constexpr int kDocs = 50;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(service.Publish(MakeDoc(4, 6, i)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_processed, static_cast<uint64_t>(kDocs));
  EXPECT_EQ(stats.ingest_queue_depth, 0u);
  for (const auto& shard : stats.shards) EXPECT_EQ(shard.queue_depth, 0u);
}

// The TSAN acceptance scenario: subscriptions churn on several threads
// while documents are being fed. The stable subscriber (installed before
// any publish) must still see every matching document exactly once.
TEST(StreamServiceTest, ConcurrentSubscribeUnsubscribeWhilePublishing) {
  StreamServiceOptions options;
  options.shard_count = 4;
  options.queue_capacity = 8;
  StreamService service(options);

  auto stable = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(stable.ok());
  ASSERT_TRUE(service.Flush().ok());  // stable machine installed

  constexpr int kDocs = 60;
  constexpr int kChurners = 3;
  std::vector<std::string> docs;
  size_t expected = 0;  // one <val> text result per <item0 ...> element
  for (int i = 0; i < kDocs; ++i) {
    docs.push_back(MakeDoc(6, 8, i));
    for (size_t pos = docs.back().find("<item0 "); pos != std::string::npos;
         pos = docs.back().find("<item0 ", pos + 1)) {
      ++expected;
    }
  }
  std::atomic<bool> publishing_done{false};
  std::thread publisher([&] {
    for (const std::string& doc : docs) {
      ASSERT_TRUE(service.Publish(doc).ok());
    }
    publishing_done.store(true);
  });
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&service, &publishing_done, c] {
      int made = 0;
      while (!publishing_done.load() || made < 5) {
        auto id = service.Subscribe("//item" + std::to_string(1 + c) +
                                    "[val]/@id");
        ASSERT_TRUE(id.ok());
        ++made;
        (void)service.Drain(id.value());
        ASSERT_TRUE(service.Unsubscribe(id.value()).ok());
      }
    });
  }
  publisher.join();
  for (auto& t : churners) t.join();
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(stable.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), expected);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_processed, static_cast<uint64_t>(kDocs));
  EXPECT_EQ(stats.active_subscriptions, 1u);
  EXPECT_TRUE(service.Stop().ok());
}

// Subscribe takes the symbol table's writer lock only to mint a name no
// earlier query named; shards meanwhile build plan-miss machines under the
// shared lock while the parser streams parse under it. The churners here
// subscribe over tags no query has named (`//fresh_<t>_<k>[val]/@id`), so
// every Subscribe mints while publishers publish and shards register. The
// stable subscription's count must stay exact, and each fresh subscription
// must deliver what the DOM selects from a document published after its
// Subscribe returned.
TEST(StreamServiceTest, FreshVocabularySubscribeChurnWhilePublishing) {
  StreamServiceOptions options;
  options.shard_count = 3;
  options.stream_count = 2;
  options.queue_capacity = 8;
  StreamService service(options);

  auto stable = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(stable.ok());
  ASSERT_TRUE(service.Flush().ok());

  constexpr int kDocs = 60;
  constexpr int kChurners = 3;
  constexpr int kRounds = 24;
  std::vector<std::string> docs;
  std::vector<size_t> item0s;  // one <val> text result per <item0 ...>
  for (int i = 0; i < kDocs; ++i) {
    docs.push_back(MakeDoc(6, 8, i));
    size_t n = 0;
    for (size_t pos = docs.back().find("<item0 "); pos != std::string::npos;
         pos = docs.back().find("<item0 ", pos + 1)) {
      ++n;
    }
    item0s.push_back(n);
  }
  // One churner round: subscribe over a fresh tag (a mint), publish a
  // document naming it, and check the deliveries against the DOM.
  std::atomic<int> fresh_docs{0};
  auto churn = [&service, &fresh_docs](int c) {
    for (int k = 0; k < kRounds; ++k) {
      std::string tag = "fresh_" + std::to_string(c) + "_" +
                        std::to_string(k);
      std::string query = "//" + tag + "[val]/@id";
      auto id = service.Subscribe(query);
      ASSERT_TRUE(id.ok()) << query;
      std::string doc = "<feed><" + tag + " id=\"a" + std::to_string(k) +
                        "\"><val>1</val></" + tag + "><" + tag +
                        " id=\"b\"/><item1 id=\"c\"><val/></item1></feed>";
      ASSERT_TRUE(service.Publish(doc).ok());
      fresh_docs.fetch_add(1);
      ASSERT_TRUE(service.Flush().ok());
      auto drained = service.Drain(id.value());
      ASSERT_TRUE(drained.ok());
      difftest::ResultSet got;
      for (Delivery& d : drained.value()) {
        got.emplace_back(d.sequence, std::move(d.fragment));
      }
      std::sort(got.begin(), got.end());
      auto dom = difftest::Oracle::RunDom(query, doc);
      ASSERT_TRUE(dom.ok()) << dom.status();
      ASSERT_EQ(dom->size(), 1u) << query;
      EXPECT_EQ(got, dom.value()) << query;
      ASSERT_TRUE(service.Unsubscribe(id.value()).ok());
    }
  };
  // The publisher keeps publishing until every churner is done, so every
  // mint overlaps parsing and shard registration.
  std::atomic<int> churners_left{kChurners};
  int published = 0;
  size_t expected = 0;
  std::thread publisher([&] {
    for (int i = 0; i < kDocs || churners_left.load() > 0; ++i) {
      ASSERT_TRUE(service.Publish(docs[i % kDocs]).ok());
      expected += item0s[i % kDocs];
      ++published;
    }
  });
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&churn, &churners_left, c] {
      churn(c);
      churners_left.fetch_sub(1);
    });
  }
  for (auto& t : churners) t.join();
  publisher.join();
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(stable.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), expected);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_processed,
            static_cast<uint64_t>(published + fresh_docs.load()));
  EXPECT_EQ(stats.active_subscriptions, 1u);
  EXPECT_TRUE(service.Stop().ok());
}

TEST(StreamServiceTest, StatsReportScalePerShard) {
  StreamServiceOptions options;
  options.shard_count = 2;
  StreamService service(options);
  auto a = service.Subscribe("//item0");
  auto b = service.Subscribe("//item1/val/text()");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(service.Publish(MakeDoc(2, 6, 0)).ok());
  ASSERT_TRUE(service.Flush().ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_published, 1u);
  EXPECT_EQ(stats.documents_processed, 1u);
  EXPECT_GT(stats.events_parsed, 0u);
  // Parse-once fan-out: every shard replays the full event stream.
  EXPECT_EQ(stats.events_replayed, stats.events_parsed * 2);
  EXPECT_EQ(stats.active_subscriptions, 2u);
  EXPECT_GT(stats.results_delivered, 0u);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  ASSERT_EQ(stats.shards.size(), 2u);
  size_t live = 0;
  uint64_t dispatched = 0;
  for (const auto& shard : stats.shards) {
    live += shard.live_queries;
    dispatched += shard.dispatch.start_events;
    EXPECT_EQ(shard.documents, 1u);
  }
  EXPECT_EQ(live, 2u);
  EXPECT_GT(dispatched, 0u);
}

// Shared-plan churn through the full service stack: subscriptions drawn
// from a few skeletons (each shard's engine hash-conses them into shared
// machines), randomly unsubscribed and re-subscribed at epoch boundaries.
// Survivors must deliver byte-what a fresh engine with only the survivors
// delivers — i.e. subscribe/unsubscribe churn keeps every shard's plan
// cache (group masks, bindings, refcounts) incrementally correct.
TEST(StreamServiceTest, SharedSkeletonSubscriptionChurn) {
  auto skeleton_query = [](int skeleton, int literal) {
    std::string lit = "'w" + std::to_string(literal) + "'";
    switch (skeleton) {
      case 0:
        return "//item0[val = " + lit + "]";
      case 1:
        return "//item1[@id = " + lit + "]/val/text()";
      default:
        return "//feed//item2[not(val = " + lit + ")]/@id";
    }
  };
  auto make_doc = [](int salt) {
    std::string doc = "<feed>";
    for (int i = 0; i < 15; ++i) {
      int tag = i % 3;
      doc += "<item" + std::to_string(tag) + " id=\"w" +
             std::to_string((i + salt) % 6) + "\"><val>w" +
             std::to_string((i * 2 + salt) % 6) + "</val></item" +
             std::to_string(tag) + ">";
    }
    return doc + "</feed>";
  };

  vitex::Random rng(77);
  for (size_t shard_count : {1, 3}) {
    StreamServiceOptions options;
    options.shard_count = shard_count;
    StreamService service(options);

    struct Sub {
      SubscriptionId id;
      std::string query;
      bool live = true;
    };
    std::vector<Sub> subs;
    for (int k = 0; k < 3; ++k) {
      for (int j = 0; j < 6; ++j) {
        std::string q = skeleton_query(k, j);
        auto id = service.Subscribe(q);
        ASSERT_TRUE(id.ok()) << q;
        subs.push_back(Sub{id.value(), q, true});
      }
    }

    // Epoch 1: a document everyone sees; drain it away.
    ASSERT_TRUE(service.Publish(make_doc(0)).ok());
    ASSERT_TRUE(service.Flush().ok());
    for (Sub& s : subs) ASSERT_TRUE(service.Drain(s.id).ok());

    // Every shard hash-conses its partition: 18 subscriptions over 3
    // skeletons run on at most 3 plan machines per shard.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.active_subscriptions, 18u);
    EXPECT_GE(stats.active_plan_machines, 1u);
    EXPECT_LE(stats.active_plan_machines, 3 * shard_count);

    // Churn: random unsubscribes, plus fresh literal variants that re-join
    // the surviving plans.
    for (Sub& s : subs) {
      if (rng.OneIn(0.4)) {
        ASSERT_TRUE(service.Unsubscribe(s.id).ok());
        s.live = false;
      }
    }
    for (int j = 6; j < 9; ++j) {
      std::string q = skeleton_query(j % 3, j);
      auto id = service.Subscribe(q);
      ASSERT_TRUE(id.ok()) << q;
      subs.push_back(Sub{id.value(), q, true});
    }

    // Epoch 2: only survivors + latecomers see this document.
    std::string doc2 = make_doc(1);
    ASSERT_TRUE(service.Publish(doc2).ok());
    ASSERT_TRUE(service.Flush().ok());

    // Reference: a fresh single-threaded engine with exactly the live set.
    twigm::MultiQueryEngine reference;
    std::vector<twigm::VectorResultCollector> expected(subs.size());
    for (size_t i = 0; i < subs.size(); ++i) {
      if (!subs[i].live) continue;
      ASSERT_TRUE(reference.AddQuery(subs[i].query, &expected[i]).ok());
    }
    ASSERT_TRUE(reference.RunString(doc2).ok());

    for (size_t i = 0; i < subs.size(); ++i) {
      if (!subs[i].live) {
        EXPECT_FALSE(service.Drain(subs[i].id).ok())
            << "unsubscribed id still drains: " << subs[i].query;
        continue;
      }
      auto drained = service.Drain(subs[i].id);
      ASSERT_TRUE(drained.ok());
      std::vector<std::string> want;
      for (const auto& e : expected[i].results()) want.push_back(e.fragment);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(SortedFragments(std::move(drained).value()), want)
          << "query " << subs[i].query << " shards=" << shard_count;
    }
    EXPECT_TRUE(service.Stop().ok());
  }
}

// -------------------------------------------------------------------------
// Multi-stream ingest (DESIGN.md §9).
// -------------------------------------------------------------------------

TEST(StreamServiceTest, MultiStreamDeliveriesMatchDirectEngine) {
  const std::vector<std::string> queries = {
      "//item0/val/text()", "//item1/@id", "//item2[val]/val/text()",
      "//*/val/text()",     "//feed//item3"};
  std::vector<std::string> docs;
  for (int i = 0; i < 12; ++i) docs.push_back(MakeDoc(5, 5 + i % 7, i));

  twigm::MultiQueryEngine reference;
  std::vector<twigm::VectorResultCollector> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(reference.AddQuery(queries[q], &expected[q]).ok());
  }
  for (const std::string& doc : docs) {
    ASSERT_TRUE(reference.RunString(doc).ok());
    reference.ResetStream();
  }

  for (size_t stream_count : {1, 2, 4}) {
    for (size_t shard_count : {1, 3}) {
      StreamServiceOptions options;
      options.shard_count = shard_count;
      options.stream_count = stream_count;
      StreamService service(options);
      ASSERT_EQ(service.stream_count(), stream_count);
      std::vector<SubscriptionId> subs;
      for (const std::string& q : queries) {
        auto id = service.Subscribe(q);
        ASSERT_TRUE(id.ok()) << q << ": " << id.status();
        subs.push_back(id.value());
      }
      for (const std::string& doc : docs) {
        ASSERT_TRUE(service.Publish(doc).ok());  // round-robin over streams
      }
      ASSERT_TRUE(service.Flush().ok());
      for (size_t q = 0; q < queries.size(); ++q) {
        auto drained = service.Drain(subs[q]);
        ASSERT_TRUE(drained.ok());
        std::vector<std::string> want;
        for (const auto& e : expected[q].results()) {
          want.push_back(e.fragment);
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(SortedFragments(std::move(drained).value()), want)
            << "query " << queries[q] << " streams=" << stream_count
            << " shards=" << shard_count;
      }
      EXPECT_TRUE(service.Stop().ok());
    }
  }
}

TEST(StreamServiceTest, PublishToStreamValidatesIndex) {
  StreamServiceOptions options;
  options.stream_count = 2;
  StreamService service(options);
  EXPECT_TRUE(service.PublishToStream(1, "<a/>").ok());
  EXPECT_TRUE(
      service.PublishToStream(2, "<a/>").IsInvalidArgument());
}

// Within one stream, deliveries preserve publish order even while another
// stream interleaves its own documents arbitrarily.
TEST(StreamServiceTest, PerStreamOrderIsPreserved) {
  StreamServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 2;
  options.queue_capacity = 4;
  StreamService service(options);
  auto id = service.Subscribe("//doc/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Flush().ok());

  constexpr int kPerStream = 40;
  std::vector<std::thread> publishers;
  for (int s = 0; s < 2; ++s) {
    publishers.emplace_back([&service, s] {
      for (int i = 0; i < kPerStream; ++i) {
        std::string doc = "<doc>s" + std::to_string(s) + "_" +
                          std::to_string(i) + "</doc>";
        ASSERT_TRUE(service.PublishToStream(s, std::move(doc)).ok());
      }
    });
  }
  for (auto& t : publishers) t.join();
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(id.value());
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 2u * kPerStream);
  // Filter the delivery sequence per stream: each must be 0,1,2,... even
  // though the two streams interleave arbitrarily.
  for (int s = 0; s < 2; ++s) {
    const std::string prefix = "s" + std::to_string(s) + "_";
    int next = 0;
    for (const Delivery& d : drained.value()) {
      if (d.fragment.compare(0, prefix.size(), prefix) != 0) continue;
      EXPECT_EQ(d.fragment, prefix + std::to_string(next))
          << "stream " << s << " out of order at position " << next;
      ++next;
    }
    EXPECT_EQ(next, kPerStream);
  }
}

// The epoch-boundary guarantee with real multi-stream traffic: every
// document whose Publish RETURNED before Subscribe was called is invisible
// to the subscription; every document published after Subscribe RETURNED is
// seen. (The cut must hold on all four stream queues consistently.)
TEST(StreamServiceTest, SubscribeCutsAllStreamsAtOneEpoch) {
  StreamServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 4;
  StreamService service(options);

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Publish("<doc><pre>p" + std::to_string(i) +
                                "</pre></doc>")
                    .ok());
  }
  auto late = service.Subscribe("//doc/*/text()");
  ASSERT_TRUE(late.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Publish("<doc><post>q" + std::to_string(i) +
                                "</post></doc>")
                    .ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(late.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 20u);  // all post-subscribe documents...
  for (const Delivery& d : drained.value()) {
    EXPECT_EQ(d.fragment[0], 'q')  // ...and nothing pre-subscribe
        << "saw a pre-subscribe document: " << d.fragment;
  }
}

// A malformed document on one stream must not desynchronize the epoch
// merge: a cut counts accepted documents, and a rejected one still counts
// as finished.
TEST(StreamServiceTest, RejectedDocumentDoesNotWedgeTheEpochMerge) {
  StreamServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 3;
  StreamService service(options);
  ASSERT_TRUE(service.PublishToStream(0, "<broken><nope").ok());
  ASSERT_TRUE(service.PublishToStream(1, "<a>first</a>").ok());
  auto id = service.Subscribe("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.PublishToStream(0, "<a>second</a>").ok());
  ASSERT_TRUE(service.PublishToStream(2, "<broken too").ok());
  ASSERT_TRUE(service.PublishToStream(2, "<a>third</a>").ok());
  ASSERT_TRUE(service.Flush().ok());
  auto drained = service.Drain(id.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(SortedFragments(std::move(drained).value()),
            (std::vector<std::string>{"second", "third"}));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_rejected, 2u);
  EXPECT_EQ(stats.documents_processed, 3u);
}

TEST(StreamServiceTest, PerStreamStatsGauges) {
  StreamServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 3;
  StreamService service(options);
  ASSERT_TRUE(service.PublishToStream(0, MakeDoc(2, 4, 0)).ok());
  ASSERT_TRUE(service.PublishToStream(0, MakeDoc(2, 4, 1)).ok());
  ASSERT_TRUE(service.PublishToStream(2, "<oops").ok());
  ASSERT_TRUE(service.Flush().ok());
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.streams.size(), 3u);
  EXPECT_EQ(stats.streams[0].documents_published, 2u);
  EXPECT_EQ(stats.streams[0].documents_parsed, 2u);
  EXPECT_EQ(stats.streams[0].documents_rejected, 0u);
  EXPECT_GT(stats.streams[0].events_parsed, 0u);
  EXPECT_EQ(stats.streams[1].documents_published, 0u);
  EXPECT_EQ(stats.streams[2].documents_published, 1u);
  EXPECT_EQ(stats.streams[2].documents_parsed, 0u);
  EXPECT_EQ(stats.streams[2].documents_rejected, 1u);
  EXPECT_EQ(stats.documents_published, 3u);
  EXPECT_EQ(stats.documents_rejected, 1u);
  EXPECT_EQ(stats.events_parsed,
            stats.streams[0].events_parsed + stats.streams[2].events_parsed);
  EXPECT_EQ(stats.ingest_queue_depth, 0u);
}

// The TSAN tentpole scenario: M publisher threads drive M streams
// concurrently while subscriptions churn from other threads. The stable
// subscriber must see every matching document exactly once; the churners
// exercise the freeze/unfreeze + barrier machinery mid-traffic.
TEST(StreamServiceTest, ConcurrentMultiStreamPublishWithChurn) {
  constexpr size_t kStreams = 4;
  StreamServiceOptions options;
  options.shard_count = 3;
  options.stream_count = kStreams;
  options.queue_capacity = 8;
  StreamService service(options);

  auto stable = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(stable.ok());
  ASSERT_TRUE(service.Flush().ok());  // stable machine installed

  constexpr int kDocsPerStream = 25;
  constexpr int kChurners = 2;
  size_t expected = 0;
  std::vector<std::vector<std::string>> docs(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    for (int i = 0; i < kDocsPerStream; ++i) {
      docs[s].push_back(MakeDoc(6, 8, static_cast<int>(s * 100) + i));
      for (size_t pos = docs[s].back().find("<item0 ");
           pos != std::string::npos;
           pos = docs[s].back().find("<item0 ", pos + 1)) {
        ++expected;
      }
    }
  }
  std::atomic<size_t> publishers_done{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back([&service, &docs, &publishers_done, s] {
      for (const std::string& doc : docs[s]) {
        ASSERT_TRUE(service.PublishToStream(s, doc).ok());
      }
      publishers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < kChurners; ++c) {
    threads.emplace_back([&service, &publishers_done, c] {
      int made = 0;
      while (publishers_done.load() < kStreams || made < 4) {
        auto id = service.Subscribe("//item" + std::to_string(1 + c) +
                                    "[val]/@id");
        ASSERT_TRUE(id.ok());
        ++made;
        (void)service.Drain(id.value());
        ASSERT_TRUE(service.Unsubscribe(id.value()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(service.Flush().ok());

  auto drained = service.Drain(stable.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), expected);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents_processed,
            static_cast<uint64_t>(kStreams * kDocsPerStream));
  EXPECT_EQ(stats.active_subscriptions, 1u);
  EXPECT_TRUE(service.Stop().ok());
}

// Control ops racing Stop(): an op must either register before Stop()
// and reach its inboxes before they close, or fail — a Flush whose op was
// pushed into a closed inbox would wait forever. Every call returns, and
// nothing deadlocks, whichever point of the churn loop Stop() lands on.
TEST(StreamServiceTest, ControlOpsRacingStopNeverHang) {
  constexpr size_t kStreams = 4;
  constexpr int kChurners = 3;
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    StreamServiceOptions options;
    options.shard_count = 3;
    options.stream_count = kStreams;
    options.queue_capacity = 2;
    StreamService service(options);
    std::vector<std::thread> churners;
    for (int c = 0; c < kChurners; ++c) {
      churners.emplace_back([&service, c] {
        for (size_t i = 0;; ++i) {
          auto id = service.Subscribe("//a" + std::to_string(c) + "/text()");
          if (!id.ok()) return;  // stopped
          (void)service.PublishToStream((c + i) % kStreams,
                                        "<a" + std::to_string(c) + ">x</a" +
                                            std::to_string(c) + ">");
          EXPECT_TRUE(service.Flush().ok());
          EXPECT_TRUE(service.Unsubscribe(id.value()).ok());
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 12)));
    EXPECT_TRUE(service.Stop().ok()) << "round " << round;
    for (auto& t : churners) t.join();
  }
}

TEST(StreamServiceTest, StopIsIdempotentAndDrainSurvivesIt) {
  StreamService service;
  auto id = service.Subscribe("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Publish("<a>x</a>").ok());
  EXPECT_TRUE(service.Stop().ok());   // drains queued work
  EXPECT_TRUE(service.Stop().ok());   // idempotent
  EXPECT_FALSE(service.Publish("<a>y</a>").ok());
  EXPECT_FALSE(service.Subscribe("//b").ok());
  auto drained = service.Drain(id.value());
  ASSERT_TRUE(drained.ok());  // results from before the stop are kept
  ASSERT_EQ(drained->size(), 1u);
  EXPECT_EQ(drained->front().fragment, "x");
}

}  // namespace
}  // namespace vitex::service
