// Experiment E11 (extension): many standing queries over one stream.
//
// The paper's motivating applications are pub/sub feeds with many
// subscribers. MultiQueryEngine parses once and fans events out to n TwigM
// machines; the marginal cost per additional query must be far below the
// cost of a separate parse (what n independent Engines would pay).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "workload/xmark_generator.h"

namespace {

const std::string& Doc() {
  static std::string doc = [] {
    vitex::workload::XmarkOptions options;
    options.items_per_region = 100;
    return vitex::workload::GenerateXmarkString(options).value();
  }();
  return doc;
}

// A family of distinct standing queries over the xmark schema.
std::string QueryN(int i) {
  switch (i % 8) {
    case 0:
      return "//item[incategory]/name";
    case 1:
      return "//open_auction[bidder]/current";
    case 2:
      return "//person[profile/income > " + std::to_string(20000 + i * 997) +
             "]/name";
    case 3:
      return "//item[quantity = " + std::to_string(1 + i % 9) + "]/@id";
    case 4:
      return "//open_auction[initial > " + std::to_string(50 + i) + "]/@id";
    case 5:
      return "//person[profile[interest]]//emailaddress";
    case 6:
      return "//item[description//listitem]//incategory/@category";
    default:
      return "//bidder/increase/text()";
  }
}

void BM_MultiQuerySharedParse(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const std::string& doc = Doc();
  for (auto _ : state) {
    vitex::twigm::MultiQueryEngine engine;
    std::vector<std::unique_ptr<vitex::twigm::CountingResultHandler>> handlers;
    for (int i = 0; i < n; ++i) {
      handlers.push_back(
          std::make_unique<vitex::twigm::CountingResultHandler>());
      auto id = engine.AddQuery(QueryN(i), handlers.back().get());
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    vitex::Status s = engine.RunString(doc);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
  state.counters["queries"] = n;
}
BENCHMARK(BM_MultiQuerySharedParse)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The alternative a user would otherwise write: n independent engines, each
// re-parsing the stream.
void BM_IndependentEngines(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const std::string& doc = Doc();
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      vitex::twigm::CountingResultHandler results;
      auto engine = vitex::twigm::Engine::Create(QueryN(i), &results);
      if (!engine.ok()) {
        state.SkipWithError(engine.status().ToString().c_str());
        return;
      }
      vitex::Status s = engine->RunString(doc);
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
  }
  state.SetBytesProcessed(state.iterations() * doc.size() * n);
  state.counters["queries"] = n;
}
BENCHMARK(BM_IndependentEngines)->Arg(1)->Arg(4)->Arg(16);

// Disjoint-tag standing subscriptions: the dispatch-index sweet spot. Each
// query names tags no other query mentions, so posting lists route every
// event to at most one machine and per-event work must stay flat as n grows
// (the `visits_per_event` counter is the thing to watch: naive fan-out
// would make it equal to `queries`).
void BM_MultiQueryDisjointTags(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const std::string& doc = Doc();
  double visits_per_event = 0;
  for (auto _ : state) {
    vitex::twigm::MultiQueryEngine engine;
    vitex::twigm::CountingResultHandler results;
    // One query that matches real xmark tags; the rest watch tags that
    // never occur (disjoint standing subscriptions waiting for their feed).
    auto id = engine.AddQuery("//item[incategory]/name", &results);
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    for (int i = 1; i < n; ++i) {
      auto r =
          engine.AddQuery("//subscription_" + std::to_string(i), nullptr);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    vitex::Status s = engine.RunString(doc);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    const vitex::twigm::DispatchStats& ds = engine.dispatch_stats();
    uint64_t events = ds.start_events + ds.end_events + ds.text_nodes;
    uint64_t visits = ds.start_visits + ds.end_visits + ds.text_visits;
    visits_per_event =
        events == 0 ? 0 : static_cast<double>(visits) / events;
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
  state.counters["queries"] = n;
  state.counters["visits_per_event"] = visits_per_event;
}
BENCHMARK(BM_MultiQueryDisjointTags)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The pub/sub population shape (DESIGN.md §7): n subscriptions drawn from
// 16 structural skeletons, differing only in comparison literals — every
// ticker symbol its own subscription. The engine hash-conses them into ~16
// machines (plus 64-group overflow chains), so `machines` and
// `visits_per_event` must stay ~flat as n grows; one machine per
// subscription would make both scale with n.
std::string SharedSkeletonQuery(int skeleton, int literal) {
  std::string lit = std::to_string(literal % 97);
  std::string qlit = "'" + lit + "'";
  switch (skeleton % 16) {
    case 0:
      return "//item[quantity = " + lit + "]/name";
    case 1:
      return "//item[quantity = " + qlit + "]/@id";
    case 2:
      return "//open_auction[initial > " + lit + "]/current";
    case 3:
      return "//open_auction[initial >= " + lit + "]/@id";
    case 4:
      return "//person[profile/income > " +
             std::to_string(20000 + literal * 37) + "]/name";
    case 5:
      return "//person[profile/income <= " +
             std::to_string(30000 + literal * 41) + "]//emailaddress";
    case 6:
      return "//item[incategory/@category = 'category" +
             std::to_string(literal % 10) + "']/name";
    case 7:
      return "//bidder[increase = " + qlit + "]/increase/text()";
    case 8:
      return "//item[not(quantity = " + qlit + ")]/@id";
    case 9:
      return "//open_auction[bidder and initial < " + lit + "]/@id";
    case 10:
      return "//person[profile[interest] and profile/income > " + lit +
             "]/name";
    case 11:
      return "//item[quantity = " + lit + " or quantity = " +
             std::to_string((literal + 1) % 97) + "]/name";
    case 12:
      return "//incategory[@category = 'category" +
             std::to_string(literal % 10) + "']";
    case 13:
      return "//open_auction[current > " + lit + "]/current/text()";
    case 14:
      return "//item[description and quantity >= " + lit + "]/name";
    default:
      return "//person[@id = 'person" + std::to_string(literal) + "']/name";
  }
}

void BM_MultiQuerySharedSkeletons(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const std::string& doc = Doc();
  double visits_per_event = 0;
  double machines = 0;
  for (auto _ : state) {
    vitex::twigm::MultiQueryEngine engine;
    std::vector<std::unique_ptr<vitex::twigm::CountingResultHandler>> handlers;
    for (int i = 0; i < n; ++i) {
      handlers.push_back(
          std::make_unique<vitex::twigm::CountingResultHandler>());
      auto id = engine.AddQuery(SharedSkeletonQuery(i % 16, i / 16),
                                handlers.back().get());
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    vitex::Status s = engine.RunString(doc);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    const vitex::twigm::DispatchStats& ds = engine.dispatch_stats();
    uint64_t events = ds.start_events + ds.end_events + ds.text_nodes;
    uint64_t visits = ds.start_visits + ds.end_visits + ds.text_visits;
    visits_per_event =
        events == 0 ? 0 : static_cast<double>(visits) / events;
    machines = static_cast<double>(ds.machines);
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
  state.counters["subscriptions"] = n;
  state.counters["machines"] = machines;
  state.counters["visits_per_event"] = visits_per_event;
}
BENCHMARK(BM_MultiQuerySharedSkeletons)
    ->ArgNames({"subs"})
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

}  // namespace

VITEX_BENCH_MAIN("multi_query");
