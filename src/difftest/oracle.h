// Differential oracle: evaluates one (query, document) pair through four
// independent routes and cross-checks the results byte-for-byte.
//
//   1. dom-baseline — baseline::DomEvaluator over a materialized DOM:
//      random access + memoization, the paper's §1 non-streaming evaluator.
//      Ground truth.
//   2. twigm — a single twigm::Engine: a one-subscription engine whose
//      query runs as a one-group plan, optionally fed in tiny chunks
//      (OracleOptions::feed_chunk_bytes).
//   3. multi-query — twigm::MultiQueryEngine with the checked queries and K
//      extra decoy queries co-registered, so the dispatch index, broadcast
//      fallbacks and central text coalescing are in play, and queries that
//      share a skeleton share one plan machine (hash-consed skeletons,
//      per-group parameter masks, subscriber fan-out; DESIGN.md §7).
//   4. service — service::StreamService end to end: per-stream parser
//      threads (the document is published once on EACH of 1..max_streams
//      streams, so concurrent parses and the epoch merge are in play) into
//      an EventLog, replay across 1..max_shards shard threads, delivery
//      through per-subscriber sinks. Expected results are the DOM set
//      replicated once per stream: a lost or duplicated stream copy is a
//      divergence.
//
// Results are normalized to the sorted set of (sequence number, serialized
// output node) pairs. Sequence numbers are stamped once by the SAX parser
// and carried verbatim through every route (EventLog replay, dispatch,
// DomBuilder adoption), so two routes agree iff they selected exactly the
// same document nodes — no positional or formatting slack. See DESIGN.md §6.
//
// On divergence the oracle shrinks the document (greedy subtree/attribute/
// text deletion while the same route pair still disagrees) and reports a
// self-contained repro: query, decoys, shard and stream counts, minimized
// document.

#ifndef VITEX_DIFFTEST_ORACLE_H_
#define VITEX_DIFFTEST_ORACLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace vitex::difftest {

/// The four evaluation routes.
enum class Route : uint8_t { kDom, kTwigM, kMultiQuery, kService };
std::string_view RouteName(Route route);

/// Normal form of one route's answer: (document-order sequence number,
/// serialized output node), sorted. Element results are canonical subtree
/// XML; attribute and text results are raw values.
using ResultSet = std::vector<std::pair<uint64_t, std::string>>;

struct OracleOptions {
  /// The service route cycles shard_count over 1..max_shards (0 disables
  /// the service route, e.g. for sanitizer runs that forbid threads).
  size_t max_shards = 4;
  /// The service route also cycles its publisher stream count over
  /// 1..max_streams (advancing each time the shard cycle wraps, so sweeps
  /// cover the full stream×shard grid). <= 1 pins a single stream.
  size_t max_streams = 4;
  /// When > 0, the twigm route feeds the document in chunks of this many
  /// bytes instead of one RunString, stressing parser chunking too.
  size_t feed_chunk_bytes = 0;
  /// Shrink failing documents before reporting (costs extra evaluations of
  /// the two diverging routes; bounded by max_minimize_probes).
  bool minimize = true;
  size_t max_minimize_probes = 200;
};

/// A cross-check failure: two routes answered differently (or one errored).
struct Divergence {
  Route route_a = Route::kDom;
  Route route_b = Route::kTwigM;
  std::string query;
  /// Decoy queries co-registered when the divergence appeared (part of the
  /// repro: dispatch-index divergences can depend on them).
  std::vector<std::string> decoys;
  size_t shard_count = 1;
  size_t stream_count = 1;
  /// Minimized document (the original when minimization is off or failed).
  std::string document;
  size_t original_document_bytes = 0;
  /// First differing entry / error status, human-readable.
  std::string detail;

  /// Self-contained multi-line repro report.
  std::string ToString() const;
};

class Oracle {
 public:
  explicit Oracle(OracleOptions options = OracleOptions());

  /// Cross-checks one query; equivalent to CheckBatch({query}, {}, doc).
  std::optional<Divergence> Check(const std::string& query,
                                  const std::string& document);

  /// Cross-checks every query in `queries` over one document. All queries
  /// plus `decoys` are co-registered in the multi-query and service routes
  /// (each checked query perturbs the others' dispatch); decoy results are
  /// not checked. Returns the first divergence found, if any.
  std::optional<Divergence> CheckBatch(const std::vector<std::string>& queries,
                                       const std::vector<std::string>& decoys,
                                       const std::string& document);

  /// Individual routes, exposed for tests and targeted repro replay.
  static Result<ResultSet> RunDom(const std::string& query,
                                  const std::string& document);
  Result<ResultSet> RunTwigM(const std::string& query,
                             const std::string& document) const;
  static Result<std::vector<ResultSet>> RunMultiQuery(
      const std::vector<std::string>& queries,
      const std::vector<std::string>& decoys, const std::string& document);
  /// Publishes the document once per stream; each query's ResultSet is
  /// therefore the single-document set replicated `stream_count` times.
  static Result<std::vector<ResultSet>> RunService(
      const std::vector<std::string>& queries,
      const std::vector<std::string>& decoys, const std::string& document,
      size_t shard_count, size_t stream_count = 1);

  /// (query, document) pairs cross-checked so far.
  uint64_t checks_run() const { return checks_; }
  const OracleOptions& options() const { return options_; }

 private:
  // Evaluates only the two routes of `d` on `document`; true if they still
  // disagree (the acceptance test for a minimization step).
  bool PairStillDiverges(const Divergence& d, const std::string& document) const;
  Result<ResultSet> RunRoute(Route route, const Divergence& d,
                             const std::string& document) const;
  void Minimize(Divergence* d) const;

  OracleOptions options_;
  uint64_t checks_ = 0;
};

/// Greedy document shrinking: parses `document` into a DOM and repeatedly
/// deletes one element subtree, attribute or text node (largest subtrees
/// first) as long as `still_fails` accepts the reduced serialization.
/// `still_fails` is invoked at most `max_probes` times. The oracle uses
/// the diverging route pair as the predicate; exposed for reuse and tests.
std::string MinimizeDocument(
    const std::string& document,
    const std::function<bool(const std::string&)>& still_fails,
    size_t max_probes);

/// Writes `divergence` as repro files into `dir` (created if needed):
/// NNN-report.txt, NNN-query.txt, NNN-document.xml. Returns the report
/// path. CI uploads these as workflow artifacts.
Result<std::string> WriteReproFiles(const Divergence& divergence,
                                    const std::string& dir, int index);

}  // namespace vitex::difftest

#endif  // VITEX_DIFFTEST_ORACLE_H_
