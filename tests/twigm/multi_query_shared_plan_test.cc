// Shared-plan compilation (DESIGN.md §7): subscriptions whose queries share
// a structural skeleton run ONE TwigMachine with per-group parameter
// evaluation. These tests pin the two load-bearing properties:
//
//   * correctness — per-subscriber results are byte-identical to a private
//     single-query engine and to the DOM evaluator, whatever mix of
//     literals shares a machine;
//   * scaling — the acceptance criterion of the plan-cache refactor: with
//     1024 subscriptions drawn from 16 skeletons, per-event machine visits
//     stay within 2x of a 16-distinct-query engine and at least 10x below
//     the per-subscription fan-out of one machine per subscription.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dom_reference.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "xpath/query.h"

namespace vitex::twigm {
namespace {

uint64_t TotalVisits(const DispatchStats& ds) {
  return ds.start_visits + ds.end_visits + ds.text_visits;
}

uint64_t TotalEvents(const DispatchStats& ds) {
  return ds.start_events + ds.end_events + ds.text_nodes;
}

TEST(SharedPlanTest, LiteralVariantsShareOneMachine) {
  MultiQueryEngine engine;
  VectorResultCollector acme, ibm, none;
  ASSERT_TRUE(engine.AddQuery("//quote[@symbol = 'ACME']/price", &acme).ok());
  ASSERT_TRUE(engine.AddQuery("//quote[@symbol = 'IBM']/price", &ibm).ok());
  ASSERT_TRUE(engine.AddQuery("//quote[@symbol = 'ZZZ']/price", &none).ok());
  EXPECT_EQ(engine.query_count(), 3u);
  EXPECT_EQ(engine.machine_count(), 1u);

  ASSERT_TRUE(engine
                  .RunString("<feed>"
                             "<quote symbol=\"ACME\"><price>12</price></quote>"
                             "<quote symbol=\"IBM\"><price>90</price></quote>"
                             "<quote symbol=\"ACME\"><price>13</price></quote>"
                             "</feed>")
                  .ok());
  EXPECT_EQ(acme.SortedFragments(),
            (std::vector<std::string>{"<price>12</price>",
                                      "<price>13</price>"}));
  EXPECT_EQ(ibm.SortedFragments(),
            (std::vector<std::string>{"<price>90</price>"}));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(engine.dispatch_stats().plans, 1u);
  EXPECT_EQ(engine.dispatch_stats().subscriptions, 3u);
}

TEST(SharedPlanTest, IdenticalQueriesShareOneGroup) {
  MultiQueryEngine engine;
  VectorResultCollector r1, r2;
  ASSERT_TRUE(engine.AddQuery("//a[b = '1']", &r1).ok());
  ASSERT_TRUE(engine.AddQuery("//a[b = '1']", &r2).ok());
  EXPECT_EQ(engine.machine_count(), 1u);
  ASSERT_TRUE(engine.RunString("<r><a><b>1</b></a><a><b>2</b></a></r>").ok());
  EXPECT_EQ(r1.SortedFragments(), r2.SortedFragments());
  ASSERT_EQ(r1.size(), 1u);
}

TEST(SharedPlanTest, DistinctStructureGetsDistinctPlans) {
  MultiQueryEngine engine;
  // Same tags, different axis / formula / operator / output: all distinct
  // skeletons.
  ASSERT_TRUE(engine.AddQuery("//a[b = '1']", nullptr).ok());
  ASSERT_TRUE(engine.AddQuery("/a[b = '1']", nullptr).ok());
  ASSERT_TRUE(engine.AddQuery("//a[b != '1']", nullptr).ok());
  ASSERT_TRUE(engine.AddQuery("//a[b = '1']/c", nullptr).ok());
  EXPECT_EQ(engine.machine_count(), 4u);
}

TEST(SharedPlanTest, DifferentMemoryLimitsDoNotShare) {
  MultiQueryEngine engine;
  TwigMachine::Options tight;
  tight.memory_limit_bytes = 1 << 20;
  ASSERT_TRUE(engine.AddQuery("//a[b = '1']", nullptr).ok());
  ASSERT_TRUE(engine.AddQuery("//a[b = '2']", nullptr, tight).ok());
  EXPECT_EQ(engine.machine_count(), 2u);
}

TEST(SharedPlanTest, NumericAndStringLiteralSpellingsAreDistinctGroups) {
  // [a = 10] (numeric token) and [a = '10'] (string literal) compare
  // differently against non-numeric node text; they must not collapse into
  // one group even though the spelling matches.
  MultiQueryEngine engine;
  VectorResultCollector numeric, stringly;
  ASSERT_TRUE(engine.AddQuery("//r[a = 10]", &numeric).ok());
  ASSERT_TRUE(engine.AddQuery("//r[a = '10']", &stringly).ok());
  EXPECT_EQ(engine.machine_count(), 1u);
  // " 10 " equals 10 numerically but not '10' as a string.
  ASSERT_TRUE(engine.RunString("<r><a> 10 </a></r>").ok());
  EXPECT_EQ(numeric.size(), 1u);
  EXPECT_EQ(stringly.size(), 0u);
}

TEST(SharedPlanTest, MatchesPrivateEnginesAcrossGroupMixes) {
  // A skeleton whose predicate mixes =, relational and not() over the
  // shared machine; every subscriber must match its own private engine and
  // the DOM evaluator.
  const std::string doc =
      "<log>"
      "<entry level=\"3\"><msg>alpha</msg></entry>"
      "<entry level=\"7\"><msg>beta</msg></entry>"
      "<entry level=\"10\"><msg>gamma</msg></entry>"
      "<entry><msg>delta</msg></entry>"
      "</log>";
  std::vector<std::string> queries;
  for (const char* lit : {"3", "7", "10", "99"}) {
    queries.push_back("//entry[@level = '" + std::string(lit) + "']/msg");
    queries.push_back("//entry[@level > " + std::string(lit) + "]/msg");
    queries.push_back("//entry[not(@level = '" + std::string(lit) +
                      "')]/msg");
  }
  MultiQueryEngine shared;
  std::vector<std::unique_ptr<VectorResultCollector>> results;
  for (const std::string& q : queries) {
    results.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(shared.AddQuery(q, results.back().get()).ok()) << q;
  }
  // 3 skeletons, 4 literals each.
  EXPECT_EQ(shared.machine_count(), 3u);
  ASSERT_TRUE(shared.RunString(doc).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    VectorResultCollector single;
    auto engine = Engine::Create(queries[i], &single);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->RunString(doc).ok());
    EXPECT_EQ(results[i]->SortedFragments(), single.SortedFragments())
        << queries[i];
    auto dom = difftest::Oracle::RunDom(queries[i], doc);
    ASSERT_TRUE(dom.ok()) << dom.status();
    EXPECT_EQ(Sequenced(*results[i]), dom.value()) << queries[i];
  }
}

// --- The acceptance criterion -------------------------------------------

std::string SkeletonQuery(int skeleton, int literal) {
  return "//a" + std::to_string(skeleton) + "[x" + std::to_string(skeleton) +
         " = 'v" + std::to_string(literal) + "']/y" +
         std::to_string(skeleton);
}

std::string SkeletonDocument(int skeletons, int entries_per_skeleton) {
  std::string doc = "<feed>";
  for (int k = 0; k < skeletons; ++k) {
    std::string sk = std::to_string(k);
    for (int e = 0; e < entries_per_skeleton; ++e) {
      std::string lit = "v" + std::to_string(e * 7 % 64);
      doc += "<a" + sk + "><x" + sk + ">" + lit + "</x" + sk + "><y" + sk +
             ">r" + std::to_string(e) + "</y" + sk + "></a" + sk + ">";
    }
  }
  doc += "</feed>";
  return doc;
}

TEST(SharedPlanTest, AcceptanceVisitsFlatAt1024SubscriptionsOver16Skeletons) {
  constexpr int kSkeletons = 16;
  constexpr int kLiteralsPerSkeleton = 64;  // 1024 subscriptions total
  const std::string doc = SkeletonDocument(kSkeletons, /*entries=*/8);

  // Reference: one subscription per skeleton (16 distinct queries).
  MultiQueryEngine reference;
  for (int k = 0; k < kSkeletons; ++k) {
    ASSERT_TRUE(reference.AddQuery(SkeletonQuery(k, 0), nullptr).ok());
  }
  ASSERT_TRUE(reference.RunString(doc).ok());
  uint64_t reference_visits = TotalVisits(reference.dispatch_stats());
  ASSERT_GT(reference_visits, 0u);

  // Shared plans: 1024 subscriptions, 16 skeletons x 64 literals.
  MultiQueryEngine shared;
  std::vector<std::unique_ptr<CountingResultHandler>> handlers;
  for (int k = 0; k < kSkeletons; ++k) {
    for (int j = 0; j < kLiteralsPerSkeleton; ++j) {
      handlers.push_back(std::make_unique<CountingResultHandler>());
      ASSERT_TRUE(
          shared.AddQuery(SkeletonQuery(k, j), handlers.back().get()).ok());
    }
  }
  EXPECT_EQ(shared.query_count(), 1024u);
  EXPECT_EQ(shared.machine_count(), 16u);
  ASSERT_TRUE(shared.RunString(doc).ok());
  const DispatchStats& ds = shared.dispatch_stats();
  EXPECT_EQ(ds.subscriptions, 1024u);
  EXPECT_EQ(ds.machines, 16u);
  EXPECT_EQ(ds.plans, 16u);
  uint64_t shared_visits = TotalVisits(ds);
  EXPECT_EQ(TotalEvents(ds), TotalEvents(reference.dispatch_stats()));

  // Within 2x of the 16-distinct-query engine (same skeleton set, so in
  // fact identical dispatch — the slack guards unrelated index changes).
  EXPECT_LE(shared_visits, 2 * reference_visits);

  // And >= 10x below per-subscription fan-out: one machine per
  // subscription, each alone on its own engine (a machine's visits do not
  // depend on what else is registered).
  uint64_t unshared_visits = 0;
  for (int k = 0; k < kSkeletons; ++k) {
    for (int j = 0; j < kLiteralsPerSkeleton; ++j) {
      MultiQueryEngine alone;
      ASSERT_TRUE(alone.AddQuery(SkeletonQuery(k, j), nullptr).ok());
      ASSERT_TRUE(alone.RunString(doc).ok());
      unshared_visits += TotalVisits(alone.dispatch_stats());
    }
  }
  EXPECT_GE(unshared_visits, 10 * shared_visits);

  // Spot-check delivery: subscriber (k, j) sees exactly the entries whose
  // x-literal is v_j (entries use j = e*7 mod 64 over 8 entries).
  for (int k = 0; k < kSkeletons; ++k) {
    for (int e = 0; e < 8; ++e) {
      int j = e * 7 % 64;
      EXPECT_GE(handlers[static_cast<size_t>(k * 64 + j)]->count(), 1u);
    }
    EXPECT_EQ(handlers[static_cast<size_t>(k * 64 + 1)]->count(), 0u);
  }
}

// Compiled queries (the StreamService path) join like query text: the
// second shares the first one's skeleton, so no machine is built for it —
// its subscription becomes a second group of the existing instance,
// keeping its own handler and query text.
TEST(SharedPlanTest, CompiledQueryJoinsExistingInstance) {
  MultiQueryEngine engine;
  const std::string queries[] = {"//quote[@symbol = 'A']/price",
                                 "//quote[@symbol = 'B']/price"};
  VectorResultCollector results[2];
  QueryId ids[2];
  for (int i = 0; i < 2; ++i) {
    auto compiled = xpath::ParseAndCompile(queries[i]);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    std::vector<xpath::Query> branches;
    branches.push_back(std::move(compiled).value());
    auto id = engine.AddQuery(std::move(branches), &results[i]);
    ASSERT_TRUE(id.ok()) << id.status();
    ids[i] = id.value();
  }
  EXPECT_EQ(engine.machine_count(), 1u);
  EXPECT_EQ(engine.query(ids[1]).source(), queries[1]);

  const std::string doc =
      "<feed>"
      "<quote symbol=\"A\"><price>1</price></quote>"
      "<quote symbol=\"B\"><price>2</price></quote>"
      "<quote symbol=\"A\"><price>3</price></quote>"
      "</feed>";
  ASSERT_TRUE(engine.RunString(doc).ok());
  EXPECT_EQ(engine.dispatch_stats().plan_hits, 1u);
  for (int i = 0; i < 2; ++i) {
    auto dom = difftest::Oracle::RunDom(queries[i], doc);
    ASSERT_TRUE(dom.ok()) << dom.status();
    EXPECT_EQ(Sequenced(results[i]), dom.value()) << queries[i];
    EXPECT_FALSE(results[i].results().empty()) << queries[i];
  }
}

TEST(SharedPlanTest, ParameterComparisonsSeeDecodedAttributeValues) {
  // The per-group comparators compare against the *decoded* attribute
  // value, independent of chunk seams: "A&amp;B" in the document matches
  // the subscriber whose literal is "A&B", under byte-at-a-time feeding.
  MultiQueryEngine engine;
  VectorResultCollector amp, plain;
  ASSERT_TRUE(engine.AddQuery("//q[@s = 'A&B']/p", &amp).ok());
  ASSERT_TRUE(engine.AddQuery("//q[@s = 'AB']/p", &plain).ok());
  EXPECT_EQ(engine.machine_count(), 1u);
  const std::string doc = R"(<r><q s="A&amp;B"><p>yes</p></q></r>)";
  for (char c : doc) {
    ASSERT_TRUE(engine.Feed(std::string_view(&c, 1)).ok());
  }
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_EQ(amp.SortedFragments(), (std::vector<std::string>{"<p>yes</p>"}));
  EXPECT_EQ(plain.size(), 0u);
}

TEST(SharedPlanTest, SixtyFifthGroupChainsANewInstance) {
  MultiQueryEngine engine;
  for (int j = 0; j < 65; ++j) {
    ASSERT_TRUE(
        engine.AddQuery("//a[b = 'v" + std::to_string(j) + "']", nullptr)
            .ok());
  }
  EXPECT_EQ(engine.query_count(), 65u);
  EXPECT_EQ(engine.machine_count(), 2u);  // 64 groups + 1 overflow instance
  // Still one logical plan.
  ASSERT_TRUE(engine.RunString("<r><a><b>v64</b></a></r>").ok());
  EXPECT_EQ(engine.dispatch_stats().plans, 1u);
  EXPECT_EQ(engine.dispatch_stats().machines, 2u);
}

}  // namespace
}  // namespace vitex::twigm
