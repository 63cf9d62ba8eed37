// Experiment E12 (ablation): isolate the TwigM matcher from the SAX parser
// by replaying a pre-parsed event log. The paper reports the split 6.02 s
// total / 4.43 s SAX — i.e. the matcher alone costs ~1.6 s. Replaying
// events through MultiQueryEngine::RunEvents measures that residual —
// dispatch (symbol resolution, text coalescing, event skipping) plus the
// machine — and how it scales with query complexity at zero parsing cost.

#include <benchmark/benchmark.h>

#include <string>

#include "twigm/multi_query.h"
#include "twigm/result.h"
#include "workload/protein_generator.h"
#include "xml/event_log.h"

namespace {

const vitex::xml::EventLog& Log() {
  static vitex::xml::EventLog log = [] {
    vitex::workload::ProteinOptions options;
    options.entries = 8000;
    auto doc = vitex::workload::GenerateProteinString(options).value();
    return vitex::xml::RecordEvents(doc).value();
  }();
  return log;
}

const std::string& Doc() {
  static std::string doc = [] {
    vitex::workload::ProteinOptions options;
    options.entries = 8000;
    return vitex::workload::GenerateProteinString(options).value();
  }();
  return doc;
}

void BM_MatcherOnlyReplay(benchmark::State& state) {
  static const char* kQueries[] = {
      "//ProteinEntry/@id",
      "//ProteinEntry[reference]/@id",
      "//ProteinEntry[reference][organism/source]//author",
      "//*[reference]//*/@refid",
  };
  const char* query = kQueries[state.range(0)];
  // One engine across iterations, as a standing subscription would run;
  // each RunEvents call is one whole document.
  vitex::twigm::MultiQueryEngine engine;
  vitex::twigm::CountingResultHandler results;
  auto added = engine.AddQuery(query, &results);
  if (!added.ok()) {
    state.SkipWithError(added.status().ToString().c_str());
    return;
  }
  const vitex::xml::EventLog& log = Log();
  uint64_t results_count = 0;
  for (auto _ : state) {
    results.Reset();
    vitex::Status s = engine.RunEvents(log);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    results_count = results.count();
  }
  // Normalize by the original document bytes so MB/s compares directly
  // with the parse+match pipeline.
  state.SetBytesProcessed(state.iterations() * Doc().size());
  state.SetLabel(query);
  state.counters["results"] = static_cast<double>(results_count);
  state.counters["events"] = static_cast<double>(log.size());
}
BENCHMARK(BM_MatcherOnlyReplay)->DenseRange(0, 3);

// Baseline for the same comparison: replay into a no-op handler (the cost
// of event dispatch itself).
void BM_NoopReplay(benchmark::State& state) {
  const vitex::xml::EventLog& log = Log();
  for (auto _ : state) {
    vitex::xml::ContentHandler noop;
    vitex::Status s = log.Replay(&noop);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetBytesProcessed(state.iterations() * Doc().size());
}
BENCHMARK(BM_NoopReplay);

}  // namespace

BENCHMARK_MAIN();
