// The randomized differential sweep — the acceptance bar for this harness:
// thousands of seeded (query, document) cross-checks through all four
// routes (DomEvaluator ground truth, single-query Engine, MultiQueryEngine
// with co-registered decoys and hash-consed shared plans, and StreamService
// replay across 1..4 shards) over the four workload generators plus the
// markup-rich random generator, with zero divergences. Failures print a
// minimized, self-contained repro (Divergence::ToString) and are
// deterministic per seed.
//
// Totals: 10 seeds × 4 paper workloads × 125 checks = 5000 checks through
// all four routes, plus another 5000 in SharedSkeletonBatch mode (batches
// instantiated from one query template, so the multi-query and service
// routes fold them into one or a few plan machines), plus the
// random-generator and chunked-feed sweeps on top. For longer runs use
// tools/difftest_main.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "difftest/oracle.h"
#include "difftest/query_fuzzer.h"
#include "difftest/workload_corpus.h"
#include "workload/recursive_generator.h"

namespace vitex::difftest {
namespace {

// Runs `batches` batches of `kBatch` fuzzed queries over fresh documents of
// `kind`; every batch member is cross-checked and doubles as the others'
// decoy.
void SweepWorkload(Oracle* oracle, WorkloadKind kind, uint64_t seed,
                   int batches, int batch_size) {
  Random rng(seed * 0x9e3779b97f4a7c15ull +
             static_cast<uint64_t>(kind) * 0x517cc1b727220a95ull);
  QueryFuzzer fuzzer(WorkloadAlphabet(kind));
  for (int b = 0; b < batches; ++b) {
    std::string doc =
        GenerateWorkloadDocument(kind, seed * 100 + static_cast<uint64_t>(b),
                                 &rng);
    std::vector<std::string> queries;
    for (int q = 0; q < batch_size; ++q) queries.push_back(fuzzer.Next(&rng));
    std::vector<std::string> decoys = {fuzzer.Next(&rng), "//*"};
    // The recursive workload is where candidate stacks explode: always
    // include a deep chain query alongside the fuzzed ones.
    if (kind == WorkloadKind::kRecursive) {
      queries.push_back(workload::RecursiveChainQuery(
          2 + static_cast<int>(rng.Uniform(4))));
    }
    auto d = oracle->CheckBatch(queries, decoys, doc);
    ASSERT_FALSE(d.has_value())
        << "workload " << WorkloadName(kind) << " seed " << seed << " batch "
        << b << "\n"
        << d->ToString();
  }
}

// SharedSkeletonBatch sweep: every batch is a literal/tag-varied family of
// one query template — the subscriber-population shape the plan cache
// exists for. The multi-query and service routes hash-cons the family; DOM
// and twigm evaluate each member independently.
void SweepSharedSkeletons(Oracle* oracle, WorkloadKind kind, uint64_t seed,
                          int batches, int batch_size) {
  Random rng(seed * 0xd1b54a32d192ed03ull +
             static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ull);
  QueryFuzzer fuzzer(WorkloadAlphabet(kind));
  for (int b = 0; b < batches; ++b) {
    std::string doc =
        GenerateWorkloadDocument(kind, seed * 100 + static_cast<uint64_t>(b),
                                 &rng);
    // Draw one extra family member and demote it to a decoy: the shared
    // plan then serves a registered-but-unchecked subscriber, so fan-out
    // bookkeeping that only corrupts co-subscribers cannot hide. Plus one
    // unrelated decoy for dispatch interference.
    std::vector<std::string> queries =
        fuzzer.NextSharedBatch(batch_size + 1, &rng);
    std::vector<std::string> decoys = {queries.back(), fuzzer.Next(&rng)};
    queries.pop_back();
    auto d = oracle->CheckBatch(queries, decoys, doc);
    ASSERT_FALSE(d.has_value())
        << "shared-skeleton workload " << WorkloadName(kind) << " seed "
        << seed << " batch " << b << "\n"
        << d->ToString();
  }
}

class DifftestSweep : public ::testing::TestWithParam<uint64_t> {};

// 4 workloads × 25 batches × 5 checked queries = 500 checks per seed;
// 10 seeds instantiated below = 5000 seeded iterations (plus the chain
// query every recursive batch).
TEST_P(DifftestSweep, FourWorkloadsAgreeOnAllRoutes) {
  Oracle oracle;
  const WorkloadKind paper_workloads[] = {
      WorkloadKind::kProtein, WorkloadKind::kBooks, WorkloadKind::kXmark,
      WorkloadKind::kRecursive};
  for (WorkloadKind kind : paper_workloads) {
    SweepWorkload(&oracle, kind, GetParam(), /*batches=*/25,
                  /*batch_size=*/5);
  }
  EXPECT_GE(oracle.checks_run(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifftestSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class DifftestSharedSkeletonSweep
    : public ::testing::TestWithParam<uint64_t> {};

// 4 workloads × 25 batches × 5 family members = 500 checks per seed; the 10
// seeds below make the second 5000-iteration sweep, through all four
// routes.
TEST_P(DifftestSharedSkeletonSweep, SkeletonFamiliesAgreeOnAllRoutes) {
  Oracle oracle;
  const WorkloadKind paper_workloads[] = {
      WorkloadKind::kProtein, WorkloadKind::kBooks, WorkloadKind::kXmark,
      WorkloadKind::kRecursive};
  for (WorkloadKind kind : paper_workloads) {
    SweepSharedSkeletons(&oracle, kind, GetParam(), /*batches=*/25,
                         /*batch_size=*/5);
  }
  EXPECT_GE(oracle.checks_run(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifftestSharedSkeletonSweep,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48,
                                           49, 50));

class DifftestRandomDocSweep : public ::testing::TestWithParam<uint64_t> {};

// Markup-rich random documents (comments, CDATA, entities, padded and
// whitespace-only text) against the small-alphabet fuzzer.
TEST_P(DifftestRandomDocSweep, RandomDocumentsAgreeOnAllRoutes) {
  Oracle oracle;
  SweepWorkload(&oracle, WorkloadKind::kRandom, GetParam(), /*batches=*/25,
                /*batch_size=*/5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifftestRandomDocSweep,
                         ::testing::Values(21, 22, 23, 24));

// The twigm route fed in tiny chunks: parser chunk handling must not
// change any route's answer. (Service and multi-query parse whole.)
TEST(DifftestChunkedFeed, ChunkedTwigMRouteAgrees) {
  OracleOptions options;
  options.feed_chunk_bytes = 7;
  Oracle oracle(options);
  SweepWorkload(&oracle, WorkloadKind::kRandom, 31, /*batches=*/10,
                /*batch_size=*/4);
  SweepWorkload(&oracle, WorkloadKind::kBooks, 32, /*batches=*/5,
                /*batch_size=*/4);
}

}  // namespace
}  // namespace vitex::difftest
