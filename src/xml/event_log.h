// EventLog: a compact in-memory recording of a SAX event stream, replayable
// into any ContentHandler.
//
// Three uses:
//   * ablation benchmarking — replaying pre-parsed events into TwigM
//     isolates the matcher's cost from the parser's (the paper's 6.02 s vs
//     4.43 s split, taken one step further);
//   * testing — a recorded stream replays bit-identically, so handler
//     behaviour can be compared with and without a real parser in front;
//   * parse-once fan-out — service::StreamService parses each published
//     document into one EventLog on its ingest thread and replays it into
//     every worker shard, so N shards cost one parse (DESIGN.md §5).
//
// Replay is faithful to the producer's stamps: interned symbols
// (StartElementEvent::symbol, Attribute::symbol) and document-order
// sequence numbers (StartElementEvent::sequence, TextEvent::sequence) are
// recorded and replayed verbatim, so symbol-aware consumers (TwigM's match
// index, the multi-query dispatcher, the sequence-keyed dedup of union
// subscriptions) behave identically on a replayed stream and on the
// original parse.
//
// All strings are appended to one heap buffer; an event is a fixed-size
// record of offsets, so a log of n events costs O(total text) + ~56n bytes.

#ifndef VITEX_XML_EVENT_LOG_H_
#define VITEX_XML_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace vitex::xml {

class EventLog {
 public:
  /// Number of recorded events (attributes count with their element).
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Approximate bytes held.
  size_t memory_bytes() const {
    return heap_.size() + events_.size() * sizeof(Event) +
           attrs_.size() * sizeof(AttrRef);
  }

  /// Replays the recorded stream into `handler` (StartDocument through
  /// EndDocument). May be called any number of times.
  Status Replay(ContentHandler* handler) const;

  void Clear();

 private:
  enum class Kind : uint8_t { kStart, kEnd, kText };

  struct AttrRef {
    uint32_t name_offset, name_size;
    uint32_t value_offset, value_size;
    Symbol symbol = kNoSymbol;
  };

  struct Event {
    Kind kind;
    int depth;
    uint32_t name_offset, name_size;  // element name or text content
    uint32_t first_attr, attr_count;
    uint64_t byte_offset;
    Symbol symbol = kNoSymbol;        // kStart: producer-stamped tag symbol
    uint64_t sequence = kNoSequence;  // kStart/kText: producer stamp
  };

  std::string_view HeapView(uint32_t offset, uint32_t size) const {
    return std::string_view(heap_).substr(offset, size);
  }
  uint32_t Intern(std::string_view s);

  std::string heap_;
  std::vector<Event> events_;
  std::vector<AttrRef> attrs_;

  friend class EventRecorder;
};

/// A ContentHandler that records into an EventLog.
class EventRecorder : public ContentHandler {
 public:
  explicit EventRecorder(EventLog* log) : log_(log) {}

  Status StartElement(const StartElementEvent& event) override;
  Status EndElement(std::string_view name, int depth) override;
  Status Text(const TextEvent& event) override;

 private:
  EventLog* log_;
};

/// Parses `document` and returns its event log.
Result<EventLog> RecordEvents(std::string_view document,
                              SaxParserOptions options = SaxParserOptions());

}  // namespace vitex::xml

#endif  // VITEX_XML_EVENT_LOG_H_
