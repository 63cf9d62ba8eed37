// Experiment E6 (paper §2 feature 2 / §3.1): "TwigM can be constructed from
// an XPath query in time which is linear in the size of the query." Shape:
// ns/op grows linearly with the number of twig nodes.

#include <benchmark/benchmark.h>

#include <string>

#include "twigm/machine.h"
#include "xpath/parser.h"
#include "xpath/query.h"

namespace {

// A query with `n` predicate branches: //a[p0][p1]...[p(n-1)]//leaf.
std::string WideQuery(int n) {
  std::string q = "//a";
  for (int i = 0; i < n; ++i) q += "[p" + std::to_string(i % 60) + "]";
  q += "//leaf";
  return q;
}

// A query with an n-step main path.
std::string DeepQuery(int n) {
  std::string q;
  for (int i = 0; i < n; ++i) q += "//s" + std::to_string(i);
  return q;
}

void BM_ParseAndCompile(benchmark::State& state) {
  std::string q = DeepQuery(static_cast<int>(state.range(0)));
  size_t nodes = 0;
  for (auto _ : state) {
    auto compiled = vitex::xpath::ParseAndCompile(q);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      break;
    }
    nodes = compiled->size();
    benchmark::DoNotOptimize(compiled);
  }
  state.counters["twig_nodes"] = static_cast<double>(nodes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ParseAndCompile)->Range(4, 2048)->Complexity(benchmark::oN);

void BM_MachineConstruction(benchmark::State& state) {
  std::string q = DeepQuery(static_cast<int>(state.range(0)));
  auto compiled = vitex::xpath::ParseAndCompile(q);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    // A fresh table per iteration: every name test is interned anew, as
    // for the first subscription of a new engine.
    vitex::SymbolTable symbols;
    vitex::twigm::TwigMachine machine(&compiled.value(),
                                      vitex::twigm::TwigMachine::Options(),
                                      &symbols);
    benchmark::DoNotOptimize(machine.stats());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MachineConstruction)->Range(4, 2048)->Complexity(benchmark::oN);

void BM_BuildWidePredicates(benchmark::State& state) {
  std::string q = WideQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // Compile plus construction: what a plan miss costs a subscription.
    auto compiled = vitex::xpath::ParseAndCompile(q);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      break;
    }
    vitex::SymbolTable symbols;
    vitex::twigm::TwigMachine machine(&compiled.value(),
                                      vitex::twigm::TwigMachine::Options(),
                                      &symbols);
    benchmark::DoNotOptimize(machine.stats());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildWidePredicates)->Range(2, 32)->Complexity();

}  // namespace

BENCHMARK_MAIN();
