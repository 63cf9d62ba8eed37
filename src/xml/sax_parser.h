// A streaming (push) SAX parser for XML 1.0.
//
// This is the "XML SAX parser" module of the paper's Figure 2 architecture.
// The original system used an off-the-shelf SAX library; since TwigM only
// needs the event sequence, we implement the substrate ourselves (see
// DESIGN.md §1 for the substitution note). The parser:
//
//   * is single-pass and chunk-feedable: callers push arbitrary byte chunks
//     with Feed() (tokens may span chunk boundaries) and call Finish() at
//     end of stream — exactly the access pattern of a network XML feed;
//   * checks well-formedness (tag balance, attribute syntax, single root,
//     entity validity) and reports errors with byte offsets;
//   * handles comments, processing instructions, CDATA, DOCTYPE skipping,
//     XML declarations, numeric and predefined entity references;
//   * never buffers more than one unfinished token, so memory is O(largest
//     single token), independent of document size;
//   * drives its inner byte scans (text runs, tag extents, attribute
//     values, whitespace) off the runtime-dispatched SIMD kernels in
//     xml/simd_scan.h — AVX2/SSE2/scalar tiers that are byte-identical by
//     contract (DESIGN.md §8), so throughput changes with the CPU but the
//     event stream never does.

#ifndef VITEX_XML_SAX_PARSER_H_
#define VITEX_XML_SAX_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax_event.h"

namespace vitex::xml {

/// Tuning knobs for SaxParser.
struct SaxParserOptions {
  /// When true (default), text *nodes* consisting solely of whitespace are
  /// suppressed (a node is one coalesced run between two tags; comments,
  /// PIs and CDATA seams do not split it). Data-oriented XML (the paper's
  /// protein dataset) uses whitespace only for indentation; suppressing it
  /// keeps the event stream and TwigM's text buffers small. Set false for
  /// document-oriented XML. Explicitly marked content is never suppressed:
  /// CDATA sections and character references (&#32;) count as real content
  /// and make their whole node deliverable. The rule is applied per node,
  /// not per delivered piece, so it is invariant under chunking.
  bool skip_whitespace_text = true;

  /// Maximum element nesting depth; 0 disables the check. Exceeding the
  /// limit yields ResourceExhausted (guards against adversarial streams).
  size_t max_depth = 100000;

  /// When non-null, element and attribute names are resolved against this
  /// SymbolTable once per event and stamped into StartElementEvent::symbol /
  /// Attribute::symbol, so consumers sharing the table never hash name text
  /// themselves. Resolution is lookup-only: names the table has never seen
  /// stamp kAbsentSymbol (they cannot match any interned query name), which
  /// keeps the table bounded by query vocabulary however large the
  /// document's. The table must outlive the parser. See DESIGN.md §3.
  SymbolTable* symbols = nullptr;
};

/// Counters accumulated over one parse.
struct SaxParserStats {
  uint64_t bytes_consumed = 0;
  uint64_t start_elements = 0;
  uint64_t attributes = 0;
  uint64_t text_events = 0;
  uint64_t comments = 0;
  uint64_t processing_instructions = 0;
  int max_depth = 0;
};

/// The streaming parser. One instance parses one document; Reset() allows
/// reuse.
class SaxParser {
 public:
  explicit SaxParser(ContentHandler* handler,
                     SaxParserOptions options = SaxParserOptions());

  SaxParser(const SaxParser&) = delete;
  SaxParser& operator=(const SaxParser&) = delete;

  /// Pushes the next chunk of the stream. Chunks may split tokens at any
  /// byte. Returns the first error encountered; after an error the parser
  /// is poisoned until Reset().
  Status Feed(std::string_view chunk);

  /// Signals end of stream; verifies the document is complete and delivers
  /// EndDocument().
  Status Finish();

  /// Restores the parser to its initial state for a new document.
  void Reset();

  /// Current element depth (0 outside the root element).
  int depth() const { return static_cast<int>(open_elements_.size()); }

  const SaxParserStats& stats() const { return stats_; }

 private:
  // Consumes as many complete tokens from buf_ as possible, starting at
  // pos_. Leaves pos_ at the first byte of an incomplete token.
  Status Pump(bool at_eof);

  // Handles one piece of character data (a full run, or a prefix of a run
  // longer than kTextHoldBytes whose terminator has not been seen yet).
  // `has_amp` is exact for `raw` — Pump already scanned the run for '&'
  // while locating its end, so entity decoding never rescans.
  Status HandleText(std::string_view raw, bool has_amp);
  // Stamps the text-node sequence number and delivers one piece, releasing
  // any staged leading whitespace of the node first.
  Status DeliverText(std::string_view text);
  Status HandleStartTag(std::string_view tag_body, uint64_t offset);
  Status HandleEndTag(std::string_view tag_body);
  Status HandleCData(std::string_view content);
  Status HandlePi(std::string_view body);
  Status HandleComment(std::string_view body);

  Status CheckName(std::string_view name, const char* what) const;
  // Lookup against options_.symbols; misses map to kAbsentSymbol.
  Symbol ResolveSymbol(std::string_view name) const;
  Status ErrorAt(uint64_t offset, std::string msg) const;

  ContentHandler* handler_;
  SaxParserOptions options_;
  SaxParserStats stats_;

  std::string buf_;     // unconsumed input (plus a consumed prefix < pos_)
  size_t pos_ = 0;      // first unconsumed byte in buf_
  uint64_t consumed_total_ = 0;  // bytes of the stream already cut from buf_

  /// Text runs shorter than this are buffered whole before delivery, so
  /// whitespace handling and entity decoding are chunking-invariant; longer
  /// runs stream out in pieces.
  static constexpr size_t kTextHoldBytes = 64 * 1024;

  std::vector<std::string> open_elements_;
  // Leading whitespace of the current text node, staged until the node
  // either shows real content (flushed ahead of it, in order) or ends at a
  // tag (dropped: the whole node was formatting whitespace). This makes
  // skip_whitespace_text a node-level rule — invariant under chunk
  // boundaries, CDATA seams and comments splitting a node. Capped at
  // kTextHoldBytes: a whitespace run beyond that is delivered as content
  // (identically in whole-document and chunked parses), so the parser's
  // memory stays bounded on adversarial all-whitespace streams.
  std::string pending_leading_ws_;
  // Document-order sequence stamping (query-independent, mirrored by every
  // consumer that counts for itself): one number per element, then one per
  // attribute, one per coalesced text node.
  uint64_t sequence_counter_ = 0;
  // True between the first delivered piece of a text node and the next tag;
  // all pieces of the node carry text_node_sequence_.
  bool text_node_open_ = false;
  uint64_t text_node_sequence_ = 0;
  bool started_document_ = false;
  bool seen_root_ = false;
  bool finished_ = false;
  bool failed_ = false;

  // Scratch for entity decoding and attribute storage, reused per event.
  std::string text_scratch_;
  std::vector<std::string> attr_scratch_;
  // Reused per start tag so the tag hot path performs no allocations once
  // capacities have warmed up (events are only valid during the handler
  // callback, so recycling the attribute vector is within contract).
  struct RawAttr {
    std::string_view name;
    std::string_view value;
    int decoded_index;  // index into attr_scratch_, or -1
  };
  std::vector<RawAttr> raw_attr_scratch_;
  StartElementEvent event_scratch_;
};

/// Parses a complete in-memory document in one call.
Status ParseString(std::string_view document, ContentHandler* handler,
                   SaxParserOptions options = SaxParserOptions());

/// Streams a file through the parser in `chunk_bytes` chunks.
Status ParseFile(const std::string& path, ContentHandler* handler,
                 SaxParserOptions options = SaxParserOptions(),
                 size_t chunk_bytes = 1 << 16);

}  // namespace vitex::xml

#endif  // VITEX_XML_SAX_PARSER_H_
