// Result delivery interfaces for TwigM.
//
// Query solutions are XML fragments (or attribute/text values). They are
// delivered incrementally, as soon as their qualification is proven — one of
// the paper's three streaming requirements ("incrementally produce and
// distribute query results to end users before the data is completely
// received").

#ifndef VITEX_TWIGM_RESULT_H_
#define VITEX_TWIGM_RESULT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vitex::twigm {

/// Receiver for query solutions.
///
/// Allocation contract (DESIGN.md §12): the engine hot path performs no
/// heap allocation per document in steady state, and `fragment` is a view
/// into pooled engine storage valid only for the duration of the call.
/// Handlers on that path should either not allocate (CountingResultHandler)
/// or copy into pooled storage of their own; a handler that allocates per
/// result is what shows up in the zero-alloc harness.
class ResultHandler {
 public:
  virtual ~ResultHandler() = default;

  /// Called once per solution.
  ///
  /// @param fragment the serialized result: the matched element's subtree in
  ///        canonical XML for element results, the raw value for attribute
  ///        and text() results.
  /// @param sequence document-order sequence number of the matched node;
  ///        solutions are emitted when qualification is proven, which may be
  ///        out of document order — consumers needing document order sort by
  ///        this key.
  virtual void OnResult(std::string_view fragment, uint64_t sequence) = 0;
};

/// Receiver for solutions of a plan machine serving one or more subscriber
/// groups (DESIGN.md §7). `group_mask` has bit g set iff the solution
/// qualified for group g — the fan-out layer (MultiQueryEngine) maps bits
/// to its subscribers' ResultHandlers. Every machine delivers here.
class GroupResultSink {
 public:
  virtual ~GroupResultSink() = default;

  /// Called once per (solution, newly-qualified group set); a solution that
  /// later qualifies for further groups is re-delivered with only the new
  /// bits set (each group sees each solution at most once).
  virtual void OnGroupResult(std::string_view fragment, uint64_t sequence,
                             uint64_t group_mask) = 0;
};

/// Collects solutions into memory (tests, examples).
class VectorResultCollector : public ResultHandler {
 public:
  void OnResult(std::string_view fragment, uint64_t sequence) override {
    results_.push_back(Entry{std::string(fragment), sequence});
  }

  struct Entry {
    std::string fragment;
    uint64_t sequence;
  };

  const std::vector<Entry>& results() const { return results_; }
  size_t size() const { return results_.size(); }

  /// Fragments sorted into document order.
  std::vector<std::string> SortedFragments() const {
    std::vector<Entry> copy = results_;
    std::sort(copy.begin(), copy.end(),
              [](const Entry& a, const Entry& b) {
                return a.sequence < b.sequence;
              });
    std::vector<std::string> out;
    out.reserve(copy.size());
    for (Entry& e : copy) out.push_back(std::move(e.fragment));
    return out;
  }

  void Clear() { results_.clear(); }

 private:
  std::vector<Entry> results_;
};

/// Counts solutions without storing them (benchmarks over large streams).
class CountingResultHandler : public ResultHandler {
 public:
  void OnResult(std::string_view fragment, uint64_t sequence) override {
    (void)sequence;
    ++count_;
    bytes_ += fragment.size();
  }

  uint64_t count() const { return count_; }
  uint64_t bytes() const { return bytes_; }
  void Reset() {
    count_ = 0;
    bytes_ = 0;
  }

 private:
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_RESULT_H_
