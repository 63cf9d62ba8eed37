// Allocation-counting harness for the versioned-memory hot path
// (DESIGN.md §12): after a few warmup documents have grown every pool to
// its steady-state high-water mark, replaying further documents through
// MultiQueryEngine::RunEvents — the exact path StreamService shards drive —
// must perform ZERO heap allocations, both with every query on one engine
// (skeleton-sharing queries share plans) and with each query alone on its
// own engine (the twigm::Engine shape, a one-group plan per query).
//
// This TU (and only this TU) replaces the global operator new/delete with
// counting versions that tick vitex::ThreadAllocCounters(). The counters
// are thread-local, so allocations from unrelated threads never leak into a
// measurement; AllocationScope snapshots the counters around the measured
// region.

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "twigm/multi_query.h"
#include "twigm/result.h"
#include "workload/protein_generator.h"
#include "workload/xmark_generator.h"
#include "xml/event_log.h"
#include "xml/sax_parser.h"

namespace {

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  vitex::AllocCounters& c = vitex::ThreadAllocCounters();
  ++c.allocations;
  c.allocated_bytes += size;
  return p;
}

void* CountedAllocNoThrow(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    vitex::AllocCounters& c = vitex::ThreadAllocCounters();
    ++c.allocations;
    c.allocated_bytes += size;
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  vitex::AllocCounters& c = vitex::ThreadAllocCounters();
  ++c.allocations;
  c.allocated_bytes += size;
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  ++vitex::ThreadAllocCounters().deallocations;
  std::free(p);
}

struct InstallCounting {
  InstallCounting() { vitex::AllocCountingInstalled() = true; }
};
InstallCounting install_counting;

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace vitex::twigm {
namespace {

constexpr int kWarmupDocs = 3;
constexpr int kMeasuredDocs = 5;

std::string ProteinDoc() {
  workload::ProteinOptions options;
  options.entries = 64;
  options.seed = 7;
  auto doc = workload::GenerateProteinString(options);
  EXPECT_TRUE(doc.ok());
  return doc.ok() ? std::move(doc).value() : std::string();
}

std::string XmarkDoc() {
  workload::XmarkOptions options;
  options.items_per_region = 8;
  options.seed = 11;
  auto doc = workload::GenerateXmarkString(options);
  EXPECT_TRUE(doc.ok());
  return doc.ok() ? std::move(doc).value() : std::string();
}

// The paper's PSD workload query plus shared-skeleton variants (same twig,
// different literals — one shared plan, several groups when they share an
// engine), an element-output query (exercises the recording/candidate pools),
// a value-predicate query (exercises the comparison path) and a union whose
// branches select overlapping nodes (exercises the dedup seen-set).
std::vector<std::string> ProteinQueries() {
  return {
      "//ProteinEntry[reference]/@id",
      "//header[uid = '9000001']/accession",
      "//header[uid = '9000002']/accession",
      "//reference/refinfo/authors",
      "//organism/source",
      "//ProteinEntry[reference]/@id | //ProteinEntry/@id | //refinfo/authors",
  };
}

std::vector<std::string> XmarkQueries() {
  return {
      "//item[incategory]/name",
      "//person/@id",
      "//open_auction[initial = '12.00']/@id",
      "//open_auction[initial = '99.00']/@id",
      "//bidder/personref/@person",
      "//people/person | //person[name] | //item[incategory]/name",
  };
}

// Registers `queries` on fresh engines — all on one, or each alone on its
// own when `engine_per_query` — and replays `doc` through every engine:
// warmup documents grow the pools, then kMeasuredDocs further replays must
// not touch the heap.
void ExpectZeroAllocSteadyState(const std::string& doc,
                                const std::vector<std::string>& queries,
                                bool engine_per_query) {
  ASSERT_TRUE(AllocCountingInstalled());

  std::vector<std::unique_ptr<MultiQueryEngine>> engines;
  std::vector<std::unique_ptr<CountingResultHandler>> sinks;
  for (const std::string& q : queries) {
    if (engines.empty() || engine_per_query) {
      engines.push_back(std::make_unique<MultiQueryEngine>());
    }
    sinks.push_back(std::make_unique<CountingResultHandler>());
    auto id = engines.back()->AddQuery(q, sinks.back().get());
    ASSERT_TRUE(id.ok()) << q << ": " << id.status().message();
  }

  // Record once per engine with its symbol table, as StreamService does,
  // so replay dispatches on pre-stamped symbols.
  std::vector<xml::EventLog> logs;
  for (const auto& engine : engines) {
    xml::SaxParserOptions record_options;
    record_options.symbols = engine->symbols();
    auto log = xml::RecordEvents(doc, record_options);
    ASSERT_TRUE(log.ok()) << log.status().message();
    logs.push_back(std::move(log).value());
  }
  auto replay_all = [&engines, &logs] {
    bool ok = true;
    for (size_t e = 0; e < engines.size(); ++e) {
      ok = engines[e]->RunEvents(logs[e]).ok() && ok;
    }
    return ok;
  };

  for (int i = 0; i < kWarmupDocs; ++i) {
    ASSERT_TRUE(replay_all());
  }
  uint64_t warm_results = 0;
  for (const auto& sink : sinks) warm_results += sink->count();
  ASSERT_GT(warm_results, 0u) << "queries never matched; test is vacuous";

  AllocationScope scope;
  bool all_ok = true;
  for (int i = 0; i < kMeasuredDocs; ++i) {
    all_ok = replay_all() && all_ok;
  }
  uint64_t allocations = scope.allocations();
  uint64_t bytes = scope.allocated_bytes();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u)
      << "steady-state replay allocated " << allocations << " times ("
      << bytes << " bytes) over " << kMeasuredDocs
      << " documents (engine_per_query=" << engine_per_query << ")";

  // The documents actually produced results during the measured region —
  // the zero-alloc replay did real matching work.
  uint64_t total_results = 0;
  for (const auto& sink : sinks) total_results += sink->count();
  EXPECT_GT(total_results, warm_results);
}

TEST(ZeroAllocTest, ProteinSharedPlans) {
  ExpectZeroAllocSteadyState(ProteinDoc(), ProteinQueries(),
                             /*engine_per_query=*/false);
}

// One single-subscription engine per query: the one-group plans
// twigm::Engine runs.
TEST(ZeroAllocTest, ProteinPrivateMachines) {
  ExpectZeroAllocSteadyState(ProteinDoc(), ProteinQueries(),
                             /*engine_per_query=*/true);
}

TEST(ZeroAllocTest, XmarkSharedPlans) {
  ExpectZeroAllocSteadyState(XmarkDoc(), XmarkQueries(),
                             /*engine_per_query=*/false);
}

TEST(ZeroAllocTest, XmarkPrivateMachines) {
  ExpectZeroAllocSteadyState(XmarkDoc(), XmarkQueries(),
                             /*engine_per_query=*/true);
}

// The counting hook itself: AllocationScope sees exactly the allocations
// made between construction and the read.
TEST(ZeroAllocTest, AllocationScopeCountsThisThread) {
  AllocationScope scope;
  uint64_t base = scope.allocations();
  auto* p = new std::string(1024, 'x');
  EXPECT_GT(scope.allocations(), base);
  uint64_t after_new = scope.allocations();
  delete p;
  EXPECT_EQ(scope.allocations(), after_new);
  EXPECT_GE(scope.deallocations(), 1u);
}

}  // namespace
}  // namespace vitex::twigm
