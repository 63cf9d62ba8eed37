// The layer ladder: the workload's corpus and subscriptions pushed through
// eight cumulative rungs, each timed per document on the same bytes, so
// the difference between two rungs is one layer's self time.
//
//   1 parse    SaxParser, no-op handler
//   2 record   + symbol stamping and EventRecorder into a fresh EventLog
//   3 replay   EventLog::Replay alone, into a no-op handler
//   4 match    MultiQueryEngine::RunEvents, counting result handlers
//   5 deliver  RunEvents, handlers that copy each result into a Delivery
//   6 pull     StreamService 1 stream x 1 shard, pull mode, window 1
//   7 push     the same, push mode
//   8 wire     the push service behind net::Server, over loopback
//
// Rungs 6-8 run a closed loop with one document outstanding, so they are
// serial: rung 6 = rung 2 + rung 5 + the service's own cost. A self time
// is a small difference of large times, so it is never taken between
// medians of separate runs. Rungs 1-5 take every document back to back, and
// each service block sends every document through its reference (rungs 2
// and 5 for the pull and push rungs; a push target beside the wire target
// for the wire rung) and the service back to back; each pass then yields
// its own difference, and the self time is their median. The pull rung's
// Drain thread polls without sleeping, so it times the Drain path rather
// than a poll period. Rungs run in three interleaved rounds, so a slow
// spell of the host lands on all rungs.

#ifndef LADDERBENCH_LADDER_H_
#define LADDERBENCH_LADDER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/server.h"
#include "probes.h"
#include "twigm/multi_query.h"
#include "workloads.h"

namespace ladder {

constexpr int kRungs = 8;
const char* RungName(int rung);  // 0-based

struct LadderResult {
  std::array<double, kRungs> rung_us_per_doc{};  // median pass
  /// Each rung's own cost: the median over passes of the rung's pass minus
  /// the pass of what it builds on, made side by side (parse and replay
  /// build on nothing; record on parse; match on replay; deliver on match;
  /// pull and push on record + deliver; wire on push).
  std::array<double, kRungs> self_us_per_doc{};
  double compile_us_per_query = 0;
  std::vector<double> subscribe_us;  // Service::Subscribe, 1x1 set-ups
  std::vector<double> publish_us;    // Service::Publish, push rung
  double drain_us_per_call = 0;      // pull rung
  double events_per_doc = 0;
  double log_bytes_per_doc = 0;
  vitex::twigm::DispatchStats dispatch;  // rungs 4-5, deltas
  double results_per_doc = 0;
  double result_bytes_per_doc = 0;
  /// DeliveryChecker::Begin + OnDelivery over one corpus document's
  /// deliveries, on one thread: the harness's own share of every
  /// end-to-end run.
  double check_us_per_doc = 0;
  // Wire rung.
  std::vector<double> client_publish_us;
  double poll_us_per_match = 0;
  uint64_t wire_documents = 0;  // timed documents
  /// bytes_out/frames_out over the timed documents; outbuf_high_watermark
  /// the largest seen; matches_dropped/connections_evicted summed.
  vitex::net::NetStatsSnapshot net;
  uint64_t failures = 0;   // delivery-check failures in rungs 6-8 and the check pass
  uint64_t attempted = 0;  // documents + control calls in rungs 6-8 and the check pass
};

/// Runs each in-process rung for about `seconds_per_rung` in total and each
/// service rung for about three times that: a service pass over the corpus
/// takes up to ~0.2 s, and its self time needs many passes.
vitex::Result<LadderResult> RunLadder(const Workload& w, double seconds_per_rung);

}  // namespace ladder

#endif  // LADDERBENCH_LADDER_H_
