// Randomized differential testing for union subscriptions: the streaming
// union — a MultiQueryEngine subscription and a vitex::Service subscription
// at 1-4 shards — vs the set union of the per-branch DOM oracle results.
// Answers are compared as sorted (sequence, fragment) lists, so a node
// delivered twice is a divergence.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "common/random.h"
#include "difftest/oracle.h"
#include "service/vitex.h"
#include "workload/random_generator.h"
#include "xml/dom.h"
#include "xpath/query.h"

namespace vitex {
namespace {

using difftest::ResultSet;

ResultSet DomUnion(const std::string& union_query, const std::string& doc) {
  auto branches = xpath::ParseAndCompileUnion(union_query);
  EXPECT_TRUE(branches.ok()) << branches.status();
  auto dom = xml::ParseIntoDom(doc);
  EXPECT_TRUE(dom.ok());
  if (!branches.ok() || !dom.ok()) return {};
  std::set<std::pair<uint64_t, std::string>> nodes;
  for (const xpath::Query& branch : branches.value()) {
    baseline::DomEvaluator eval(&dom.value());
    for (auto& result : eval.EvaluateToSequencedFragments(branch)) {
      nodes.insert(std::move(result));
    }
  }
  return ResultSet(nodes.begin(), nodes.end());
}

ResultSet StreamUnion(const std::string& union_query, const std::string& doc) {
  auto got = difftest::Oracle::RunMultiQuery({union_query}, {}, doc);
  EXPECT_TRUE(got.ok()) << union_query << ": " << got.status();
  return got.ok() ? got.value()[0] : ResultSet();
}

std::string RandomUnion(Random* rng) {
  workload::RandomQueryOptions query_options;
  int branches = 2 + static_cast<int>(rng->Uniform(2));
  std::string union_query;
  for (int b = 0; b < branches; ++b) {
    if (b > 0) union_query += " | ";
    union_query += workload::GenerateRandomQuery(query_options, rng);
  }
  return union_query;
}

class UnionDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionDifferentialTest, StreamingUnionMatchesDomUnion) {
  Random rng(GetParam());
  workload::RandomDocOptions doc_options;
  doc_options.max_elements = 70;
  for (int i = 0; i < 12; ++i) {
    std::string doc = workload::GenerateRandomDocument(doc_options, &rng);
    std::string union_query = RandomUnion(&rng);
    EXPECT_EQ(StreamUnion(union_query, doc), DomUnion(union_query, doc))
        << union_query << "\ndoc: " << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(UnionDifferentialTest, IdenticalBranchesCollapse) {
  // p | p must equal p exactly (full dedup).
  Random rng(5150);
  workload::RandomDocOptions doc_options;
  doc_options.max_elements = 60;
  workload::RandomQueryOptions query_options;
  for (int i = 0; i < 10; ++i) {
    std::string doc = workload::GenerateRandomDocument(doc_options, &rng);
    std::string q = workload::GenerateRandomQuery(query_options, &rng);
    auto single = StreamUnion(q, doc);
    auto doubled = StreamUnion(q + " | " + q, doc);
    EXPECT_EQ(single, doubled) << q;
  }
}

// The same check through the public facade, where each shard runs its own
// engine: every union is one subscription, and each document's deliveries
// are exactly that document's DOM union.
TEST(StreamServiceUnionTest, ServiceUnionMatchesDomUnion) {
  Random rng(4242);
  workload::RandomDocOptions doc_options;
  doc_options.max_elements = 60;
  for (size_t shards = 1; shards <= 4; ++shards) {
    ServiceOptions options;
    options.shard_count = shards;
    options.stream_count = 1;
    Service service(options);
    std::vector<std::string> queries;
    std::vector<Subscription> subs;
    for (int q = 0; q < 6; ++q) {
      queries.push_back(RandomUnion(&rng));
      auto sub = service.Subscribe(queries.back());
      ASSERT_TRUE(sub.ok()) << queries.back() << ": " << sub.status();
      subs.push_back(std::move(sub).value());
    }
    EXPECT_EQ(service.stats().active_subscriptions, queries.size());
    for (int d = 0; d < 4; ++d) {
      std::string doc = workload::GenerateRandomDocument(doc_options, &rng);
      ASSERT_TRUE(service.Publish(doc).ok());
      ASSERT_TRUE(service.Flush().ok());
      for (size_t q = 0; q < queries.size(); ++q) {
        auto deliveries = subs[q].Drain();
        ASSERT_TRUE(deliveries.ok());
        ResultSet got;
        for (Delivery& delivery : deliveries.value()) {
          got.emplace_back(delivery.sequence, std::move(delivery.fragment));
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, DomUnion(queries[q], doc))
            << shards << " shards: " << queries[q] << "\ndoc: " << doc;
      }
    }
  }
}

}  // namespace
}  // namespace vitex
