#include "ladder.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "drive.h"
#include "stats.h"
#include "trace.h"
#include "twigm/result.h"
#include "xml/event_log.h"
#include "xml/sax_parser.h"
#include "xpath/canonical.h"
#include "xpath/query.h"

namespace ladder {
namespace {

using vitex::Status;
using DocFn = std::function<Status(size_t)>;

constexpr int64_t kStallNs = 20000000000;
constexpr int kRounds = 3;

// Per-pass times of one rung, gathered across the interleaved rounds.
struct RungTimes {
  std::vector<double> pass_us_per_doc;
  std::vector<double> self_us_per_doc;  // service rungs: pass - reference
  uint64_t documents = 0;
};

// Median over passes of a[i] - b[i]: the self time of rung a over rung b
// from passes made side by side.
double MedianDifference(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d(std::min(a.size(), b.size()));
  for (size_t i = 0; i < d.size(); ++i) d[i] = a[i] - b[i];
  return Median(std::move(d));
}

// One pass over the corpus through `fn`, timed.
Status TimePass(size_t docs, const DocFn& fn, RungTimes* times) {
  const int64_t t0 = NowNs();
  for (size_t d = 0; d < docs; ++d) VITEX_RETURN_IF_ERROR(fn(d));
  times->pass_us_per_doc.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                                   static_cast<double>(docs));
  times->documents += docs;
  return Status::OK();
}

// Result handler of the match and deliver rungs: counts, and in the deliver
// rung also copies each result into a Delivery as a pull sink would.
class RungHandler : public vitex::twigm::ResultHandler {
 public:
  void OnResult(std::string_view fragment, uint64_t sequence) override {
    ++count;
    bytes += fragment.size();
    if (copy) out.push_back(vitex::Delivery{std::string(fragment), sequence});
  }
  bool copy = false;
  uint64_t count = 0;
  uint64_t bytes = 0;
  std::vector<vitex::Delivery> out;
};

constexpr uint32_t kCallKinds =
    SpanRecorder::Bit(SpanKind::kSubscribe) | SpanRecorder::Bit(SpanKind::kPublish) |
    SpanRecorder::Bit(SpanKind::kDrain) | SpanRecorder::Bit(SpanKind::kClientPublish) |
    SpanRecorder::Bit(SpanKind::kClientPollMatch);

// Publishes the next document into `t` and waits until it completed.
Status OneDocument(Target* t) {
  DeliveryChecker& c = t->checker();
  VITEX_RETURN_IF_ERROR(t->Publish(c.Begin(NowNs())));
  if (!t->WaitOutstandingBelow(1, NowNs() + kStallNs)) {
    return Status::Internal("ladder service rung stalled");
  }
  return Status::OK();
}

// Flushes, checks and stops a rung's target; folds its verdict into `out`.
void SettleInto(Target* t, LadderResult* out) {
  const Settled settled = Settle(t);
  out->attempted += settled.attempted;
  out->failures += settled.failed();
}

// One block of a service rung: a fresh 1 x 1 target with one document
// outstanding at a time, timed passes for `seconds`. Each document goes
// through `reference` (the wire rung brings its own: a push target beside
// the wire target) and through the service, back to back; every pass
// records the service's time and its difference from the reference's. With
// `sample`, a shorter phase after them records the call spans the
// per-layer call metrics come from (the timed passes run with spans
// paused).
Status ServiceBlock(const Workload& w, Mode mode, const DocFn& reference, double seconds,
                    bool sample, RungTimes* times, LadderResult* out) {
  SpanRecorder spans(kCallKinds);
  TargetOptions options;
  options.shards = 1;
  options.mode = mode;
  options.spans = &spans;
  VITEX_ASSIGN_OR_RETURN(std::unique_ptr<Target> t, Target::Create(w, options));
  spans.set_enabled(false);
  std::unique_ptr<Target> push;
  if (mode == Mode::kWire) {
    TargetOptions push_options;
    push_options.shards = 1;
    VITEX_ASSIGN_OR_RETURN(push, Target::Create(w, push_options));
  }
  const DocFn ref =
      push ? DocFn([&push](size_t) { return OneDocument(push.get()); }) : reference;
  const DocFn service = [&t](size_t) { return OneDocument(t.get()); };
  const size_t docs = w.docs.size();
  for (size_t d = 0; d < docs; ++d) {
    VITEX_RETURN_IF_ERROR(ref(d));
    VITEX_RETURN_IF_ERROR(service(d));
  }
  const vitex::net::Server* server = t->server();
  const vitex::net::NetStatsSnapshot net0 = server ? server->stats() : vitex::net::NetStatsSnapshot{};
  const uint64_t docs0 = times->documents;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    // Odd documents take the service first, so neither side always runs on
    // caches the other just warmed.
    int64_t ref_ns = 0, service_ns = 0;
    for (size_t d = 0; d < docs; ++d) {
      for (int side = 0; side < 2; ++side) {
        const bool is_ref = (side == 0) == (d % 2 == 0);
        const int64_t t0 = NowNs();
        VITEX_RETURN_IF_ERROR(is_ref ? ref(d) : service(d));
        (is_ref ? ref_ns : service_ns) += NowNs() - t0;
      }
    }
    const double n = static_cast<double>(docs) * 1e3;
    times->pass_us_per_doc.push_back(static_cast<double>(service_ns) / n);
    times->self_us_per_doc.push_back(static_cast<double>(service_ns - ref_ns) / n);
    times->documents += docs;
  } while (NowNs() < end);
  if (server != nullptr) {
    const vitex::net::NetStatsSnapshot net1 = server->stats();
    out->net.bytes_out += net1.bytes_out - net0.bytes_out;
    out->net.frames_out += net1.frames_out - net0.frames_out;
    out->wire_documents += times->documents - docs0;
  }
  if (sample) {
    // Delivery counts are read on this thread, which is the consumer only
    // on the wire.
    const uint64_t delivered0 = server ? t->checker().Check().deliveries : 0;
    RungTimes sampled;
    spans.set_enabled(true);
    const int64_t sample_end = NowNs() + static_cast<int64_t>(seconds / 3 * 1e9);
    do {
      VITEX_RETURN_IF_ERROR(TimePass(docs, service, &sampled));
    } while (NowNs() < sample_end);
    spans.set_enabled(false);
    if (mode == Mode::kPull && spans.Count(SpanKind::kDrain) > 0) {
      out->drain_us_per_call = spans.TotalUs(SpanKind::kDrain) /
                               static_cast<double>(spans.Count(SpanKind::kDrain));
    } else if (mode == Mode::kPush) {
      out->publish_us = spans.DurationsUs(SpanKind::kPublish);
    } else if (mode == Mode::kWire) {
      const uint64_t delivered = t->checker().Check().deliveries - delivered0;
      out->client_publish_us = spans.DurationsUs(SpanKind::kClientPublish);
      out->poll_us_per_match =
          delivered == 0 ? 0
                         : spans.TotalUs(SpanKind::kClientPollMatch) / static_cast<double>(delivered);
    }
  }
  if (mode != Mode::kWire) {
    for (double us : spans.DurationsUs(SpanKind::kSubscribe)) out->subscribe_us.push_back(us);
  }
  SettleInto(t.get(), out);
  if (push) SettleInto(push.get(), out);
  if (server != nullptr) {
    const vitex::net::NetStatsSnapshot n = server->stats();
    out->net.outbuf_high_watermark = std::max(out->net.outbuf_high_watermark, n.outbuf_high_watermark);
    out->net.matches_dropped += n.matches_dropped;
    out->net.connections_evicted += n.connections_evicted;
  }
  return Status::OK();
}

}  // namespace

const char* RungName(int rung) {
  static const char* kNames[kRungs] = {"parse", "record", "replay", "match",
                                       "deliver", "pull", "push", "wire"};
  return kNames[rung];
}

vitex::Result<LadderResult> RunLadder(const Workload& w, double seconds) {
  LadderResult out;
  const size_t docs = w.docs.size();

  // --- xpath: compile every subscription's query -------------------------------
  RungTimes compile;
  const int64_t compile_end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    VITEX_RETURN_IF_ERROR(TimePass(w.queries.size(), [&](size_t q) -> Status {
      VITEX_ASSIGN_OR_RETURN(vitex::xpath::Query c, vitex::xpath::ParseAndCompile(w.queries[q]));
      return vitex::xpath::Canonicalize(c).key.empty() ? Status::Internal("empty skeleton")
                                                        : Status::OK();
    }, &compile));
  } while (NowNs() < compile_end);
  out.compile_us_per_query = Median(compile.pass_us_per_doc);

  // --- rungs 1-5 share one engine and the corpus's recorded logs ------------------
  vitex::twigm::MultiQueryEngine engine;
  std::vector<std::unique_ptr<RungHandler>> handlers;
  for (const std::string& q : w.queries) {
    handlers.push_back(std::make_unique<RungHandler>());
    VITEX_RETURN_IF_ERROR(engine.AddQuery(q, handlers.back().get()).status());
  }
  vitex::xml::SaxParserOptions stamped;
  stamped.symbols = engine.symbols();
  std::vector<vitex::xml::EventLog> logs(docs);
  for (size_t d = 0; d < docs; ++d) {
    vitex::xml::EventRecorder recorder(&logs[d]);
    VITEX_RETURN_IF_ERROR(vitex::xml::ParseString(w.docs[d], &recorder, stamped));
    out.events_per_doc += static_cast<double>(logs[d].size()) / static_cast<double>(docs);
    out.log_bytes_per_doc +=
        static_cast<double>(logs[d].memory_bytes()) / static_cast<double>(docs);
  }
  vitex::xml::ContentHandler discard;
  auto set_copy = [&handlers](bool copy) {
    for (const auto& h : handlers) h->copy = copy;
  };
  uint64_t engine_runs = 0;  // documents through RunEvents, for results_per_doc
  const std::array<DocFn, 5> in_process = {
      [&](size_t d) { return vitex::xml::ParseString(w.docs[d], &discard); },
      [&](size_t d) {
        // As the ingest stream does: a fresh log per document.
        auto log = std::make_shared<vitex::xml::EventLog>();
        vitex::xml::EventRecorder recorder(log.get());
        return vitex::xml::ParseString(w.docs[d], &recorder, stamped);
      },
      [&](size_t d) { return logs[d].Replay(&discard); },
      [&](size_t d) {
        ++engine_runs;
        return engine.RunEvents(logs[d]);
      },
      [&](size_t d) {
        ++engine_runs;
        Status s = engine.RunEvents(logs[d]);
        for (const auto& h : handlers) h->out.clear();
        return s;
      }};
  // The pull and push rungs' reference: the in-process work their service
  // repeats on its stream and shard threads.
  const DocFn record_and_deliver = [&](size_t d) {
    VITEX_RETURN_IF_ERROR(in_process[1](d));
    return in_process[4](d);
  };

  // Rungs run in interleaved rounds so a slow spell of the host lands on
  // every rung, not on whichever one happened to be running.
  std::array<RungTimes, kRungs> times;
  const vitex::twigm::DispatchStats before = engine.dispatch_stats();
  const std::array<Mode, 3> modes = {Mode::kPull, Mode::kPush, Mode::kWire};
  for (int round = 0; round < kRounds; ++round) {
    const int64_t end = NowNs() + static_cast<int64_t>(5 * seconds / kRounds * 1e9);
    do {
      // Every document goes through rungs 1-5 back to back, forward on even
      // documents and backward on odd ones, so each pass of one rung sits
      // beside a pass of the next and no rung always inherits the caches
      // its neighbour warmed.
      std::array<int64_t, 5> ns{};
      for (size_t d = 0; d < docs; ++d) {
        for (int j = 0; j < 5; ++j) {
          const int r = d % 2 == 0 ? j : 4 - j;
          set_copy(r == 4);
          const int64_t t0 = NowNs();
          VITEX_RETURN_IF_ERROR(in_process[r](d));
          ns[r] += NowNs() - t0;
        }
      }
      for (int r = 0; r < 5; ++r) {
        times[r].pass_us_per_doc.push_back(static_cast<double>(ns[r]) / 1e3 /
                                           static_cast<double>(docs));
        times[r].documents += docs;
      }
    } while (NowNs() < end);
    set_copy(true);
    for (int i = 0; i < 3; ++i) {
      VITEX_RETURN_IF_ERROR(ServiceBlock(w, modes[i], record_and_deliver, seconds,
                                         round == kRounds - 1, &times[5 + i], &out));
    }
  }
  const vitex::twigm::DispatchStats after = engine.dispatch_stats();
  out.dispatch = after;  // shape fields as of the last document
  out.dispatch.start_events -= before.start_events;
  out.dispatch.end_events -= before.end_events;
  out.dispatch.text_nodes -= before.text_nodes;
  out.dispatch.start_visits -= before.start_visits;
  out.dispatch.end_visits -= before.end_visits;
  out.dispatch.text_visits -= before.text_visits;
  out.dispatch.broadcast_visits -= before.broadcast_visits;
  uint64_t results = 0, bytes = 0;
  for (const auto& h : handlers) {
    results += h->count;
    bytes += h->bytes;
  }
  out.results_per_doc = static_cast<double>(results) / static_cast<double>(engine_runs);
  out.result_bytes_per_doc = static_cast<double>(bytes) / static_cast<double>(engine_runs);
  for (int i = 0; i < kRungs; ++i) out.rung_us_per_doc[i] = Median(times[i].pass_us_per_doc);
  out.self_us_per_doc[0] = out.rung_us_per_doc[0];
  out.self_us_per_doc[1] = MedianDifference(times[1].pass_us_per_doc, times[0].pass_us_per_doc);
  out.self_us_per_doc[2] = out.rung_us_per_doc[2];
  out.self_us_per_doc[3] = MedianDifference(times[3].pass_us_per_doc, times[2].pass_us_per_doc);
  out.self_us_per_doc[4] = MedianDifference(times[4].pass_us_per_doc, times[3].pass_us_per_doc);
  for (int i = 5; i < kRungs; ++i) out.self_us_per_doc[i] = Median(times[i].self_us_per_doc);

  // --- the delivery checker's own cost ------------------------------------------
  // Every corpus document's deliveries, as the engine emits them, fed to a
  // fresh checker on this thread. The verdict doubles as a check that the
  // streaming engine agrees with the DOM ground truth.
  std::vector<std::vector<std::pair<size_t, vitex::Delivery>>> delivered(docs);
  set_copy(true);
  for (size_t d = 0; d < docs; ++d) {
    VITEX_RETURN_IF_ERROR(engine.RunEvents(logs[d]));
    for (size_t i = 0; i < handlers.size(); ++i) {
      for (vitex::Delivery& x : handlers[i]->out) delivered[d].emplace_back(i, std::move(x));
      handlers[i]->out.clear();
    }
  }
  DeliveryChecker checker(&w.truth);
  RungTimes check;
  const int64_t check_end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    VITEX_RETURN_IF_ERROR(TimePass(docs, [&](size_t d) {
      if (!checker.CanBegin()) {
        return Status::Internal("the engine's deliveries differ from ground truth");
      }
      checker.Begin(NowNs());
      for (const auto& [sub, x] : delivered[d]) checker.OnDelivery(sub, x.sequence, x.fragment);
      return Status::OK();
    }, &check));
  } while (NowNs() < check_end);
  out.check_us_per_doc = Median(check.pass_us_per_doc);
  const DeliveryChecker::Verdict verdict = checker.Check();
  out.attempted += verdict.documents;
  out.failures += verdict.failures();

  // --- service.subscribe: more 1 x 1 set-ups until the tail has samples ------
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (out.subscribe_us.size() < 1000 && NowNs() < end) {
    SpanRecorder spans(SpanRecorder::Bit(SpanKind::kSubscribe));
    TargetOptions options;
    options.shards = 1;
    options.spans = &spans;
    VITEX_ASSIGN_OR_RETURN(std::unique_ptr<Target> t, Target::Create(w, options));
    out.attempted += t->control_calls();
    VITEX_RETURN_IF_ERROR(t->Stop());
    for (double us : spans.DurationsUs(SpanKind::kSubscribe)) out.subscribe_us.push_back(us);
  }
  return out;
}

}  // namespace ladder
