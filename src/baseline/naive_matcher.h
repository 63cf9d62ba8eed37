// NaiveStreamMatcher: the strawman of paper §1.
//
// "This could be done naively by explicitly storing pattern matches, and
// enumerating them to test predicates. However, the number of pattern
// matches can be exponential, and therefore the approach has a worst case
// complexity which is exponential in the query size."
//
// This matcher implements exactly that strawman, honestly: it keeps one
// *match instance* per pattern match — the full root-to-node ancestor
// assignment — with per-instance predicate bits and per-instance (copied,
// unshared) candidate solutions. On the paper's Figure 1 document it stores
// the 9 explicit matches for cell₈ where TwigM stores 7 stack entries; on
// recursive data its instance count grows as d^k (depth^steps) while
// TwigM's stack size stays d·k. Experiments E3/E7 measure the gap.
//
// A configurable instance cap aborts the run with ResourceExhausted once
// the explosion exceeds the budget, so benchmarks can report "blew up at
// parameter X" instead of thrashing.

#ifndef VITEX_BASELINE_NAIVE_MATCHER_H_
#define VITEX_BASELINE_NAIVE_MATCHER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "twigm/result.h"
#include "xml/sax_event.h"
#include "xpath/query.h"

namespace vitex::baseline {

struct NaiveStats {
  uint64_t instances_created = 0;
  uint64_t peak_live_instances = 0;
  uint64_t candidate_copies = 0;
  uint64_t results_emitted = 0;
};

class NaiveStreamMatcher : public xml::ContentHandler {
 public:
  struct Options {
    /// Abort with ResourceExhausted when live instances exceed this count
    /// (0 = unlimited).
    uint64_t max_live_instances = 10'000'000;
  };

  NaiveStreamMatcher(const xpath::Query* query,
                     twigm::ResultHandler* results);
  NaiveStreamMatcher(const xpath::Query* query, twigm::ResultHandler* results,
                     Options options);

  Status StartDocument() override;
  Status StartElement(const xml::StartElementEvent& event) override;
  Status EndElement(std::string_view name, int depth) override;
  Status Text(const xml::TextEvent& event) override;
  Status EndDocument() override;

  const NaiveStats& stats() const { return stats_; }
  uint64_t live_instances() const { return live_instances_; }
  /// Approximate live bytes held in instances and their candidate copies.
  uint64_t live_bytes() const { return live_bytes_; }

  void Reset();

 private:
  // One explicit pattern match of the path root..q ending at the entry's
  // XML node. parent_level/parent_instance identify the match it extends.
  struct MatchInstance {
    int parent_level = -1;
    uint32_t parent_instance = 0;
    uint64_t child_bits = 0;
    // Unshared candidate copies: (fragment, sequence).
    std::vector<std::pair<std::string, uint64_t>> candidates;
  };

  struct NaiveEntry {
    int level = 0;
    uint64_t sequence = 0;
    std::vector<MatchInstance> instances;
  };

  struct NaiveNode {
    const xpath::QueryNode* query = nullptr;
    int parent_id = -1;
    std::vector<NaiveEntry> stack;
  };

  struct Recording {
    int level = 0;
    std::string buffer;
    bool start_tag_open = false;
  };

  Status FlushText();
  Status ProcessTextNode(std::string_view text, int depth);
  Status ProcessAttributes(const xml::StartElementEvent& event,
                           uint64_t element_seq);
  Status CheckCap() const;

  NaiveEntry* FindEntry(NaiveNode& node, int level);
  // Applies fn(entry) to each parent entry a matched node at `level` could
  // extend / must bookkeep into (same axis rules as TwigM).
  template <typename Fn>
  void ForEachParentEntry(NaiveNode& node, int level, Fn fn);

  void AddInstance(NaiveNode& node, int level, uint64_t seq, int parent_level,
                   uint32_t parent_instance);
  void EmitInstanceCandidates(MatchInstance& inst);
  void ReleaseInstance(MatchInstance& inst);

  void RecordingsOnStart(const xml::StartElementEvent& event,
                         bool output_pushed);
  void RecordingsOnText(std::string_view text);
  void RecordingsOnEnd(std::string_view name, int depth);

  const xpath::Query* query_;
  twigm::ResultHandler* results_;
  Options options_;
  std::vector<NaiveNode> nodes_;
  bool output_is_element_ = false;

  NaiveStats stats_;
  uint64_t live_instances_ = 0;
  uint64_t live_bytes_ = 0;
  std::unordered_set<uint64_t> emitted_sequences_;

  std::string pending_text_;
  int pending_text_depth_ = -1;
  std::vector<Recording> recordings_;
  std::string completed_fragment_;
  bool has_completed_fragment_ = false;
  uint64_t sequence_counter_ = 0;
};

}  // namespace vitex::baseline

#endif  // VITEX_BASELINE_NAIVE_MATCHER_H_
