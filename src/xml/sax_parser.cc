#include "xml/sax_parser.h"

#include <cstdio>
#include <memory>

#include "common/string_util.h"
#include "xml/escape.h"
#include "xml/simd_scan.h"

namespace vitex::xml {

namespace {

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// IsAllWhitespace over the scan kernels (same 6-byte ASCII set).
bool AllWhitespace(std::string_view s) {
  return scan::ScanAsciiSpaceRun(s, 0) == s.size();
}

// std::string_view::find(needle, from) built on the FindByte kernel: probe
// for the first byte, verify the rest. Chunk-seam behaviour matches find()
// exactly — a partial match at the end of the buffer reports npos, and
// Pump waits for more bytes.
size_t FindSeq(std::string_view s, size_t from, std::string_view needle) {
  size_t i = from;
  while (true) {
    i = scan::FindByte(s, i, needle[0]);
    if (i == scan::kNotFound || i + needle.size() > s.size()) {
      return std::string_view::npos;
    }
    if (std::string_view(s.data() + i, needle.size()) == needle) return i;
    ++i;
  }
}

// Finds the '>' closing a start tag, skipping over quoted attribute values.
// Returns npos if the tag is not complete in `s`.
size_t FindTagEnd(std::string_view s, size_t from) {
  size_t i = from;
  while (true) {
    size_t p = scan::FindGtOrQuote(s, i);
    if (p == scan::kNotFound) return std::string_view::npos;
    if (s[p] == '>') return p;
    // Quote: skip to its closing mate, then resume the tag scan.
    size_t close = scan::FindByte(s, p + 1, s[p]);
    if (close == scan::kNotFound) return std::string_view::npos;
    i = close + 1;
  }
}

// Finds the '>' closing a DOCTYPE, which may contain an internal subset in
// square brackets (possibly with quoted strings inside).
size_t FindDoctypeEnd(std::string_view s, size_t from) {
  char quote = 0;
  int bracket = 0;
  for (size_t i = from; i < s.size(); ++i) {
    char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      --bracket;
    } else if (c == '>' && bracket <= 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

}  // namespace

SaxParser::SaxParser(ContentHandler* handler, SaxParserOptions options)
    : handler_(handler), options_(options) {}

void SaxParser::Reset() {
  stats_ = SaxParserStats();
  buf_.clear();
  pos_ = 0;
  consumed_total_ = 0;
  open_elements_.clear();
  pending_leading_ws_.clear();
  sequence_counter_ = 0;
  text_node_open_ = false;
  text_node_sequence_ = 0;
  started_document_ = false;
  seen_root_ = false;
  finished_ = false;
  failed_ = false;
}

Status SaxParser::ErrorAt(uint64_t offset, std::string msg) const {
  char ctx[64];
  std::snprintf(ctx, sizeof(ctx), " (at byte %llu)",
                static_cast<unsigned long long>(offset));
  return Status::ParseError(msg + ctx);
}

Status SaxParser::CheckName(std::string_view name, const char* what) const {
  if (name.empty()) {
    return Status::ParseError(std::string("empty ") + what + " name");
  }
  if (!IsValidXmlName(name)) {
    return Status::ParseError(std::string("invalid ") + what + " name '" +
                              std::string(name) + "'");
  }
  return Status::OK();
}

Status SaxParser::Feed(std::string_view chunk) {
  if (failed_) return Status::Internal("parser poisoned by earlier error");
  if (finished_) return Status::InvalidArgument("Feed() after Finish()");
  if (!started_document_) {
    started_document_ = true;
    Status s = handler_->StartDocument();
    if (!s.ok()) {
      failed_ = true;
      return s;
    }
  }
  buf_.append(chunk.data(), chunk.size());
  stats_.bytes_consumed += chunk.size();
  Status s = Pump(/*at_eof=*/false);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  // Compact: drop the consumed prefix so memory stays O(one token).
  if (pos_ > 0) {
    consumed_total_ += pos_;
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Status::OK();
}

Status SaxParser::Finish() {
  if (failed_) return Status::Internal("parser poisoned by earlier error");
  if (finished_) return Status::OK();
  if (!started_document_) {
    started_document_ = true;
    Status s = handler_->StartDocument();
    if (!s.ok()) {
      failed_ = true;
      return s;
    }
  }
  Status s = Pump(/*at_eof=*/true);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  if (pos_ < buf_.size()) {
    failed_ = true;
    return ErrorAt(consumed_total_ + pos_, "unexpected end of document");
  }
  if (!open_elements_.empty()) {
    failed_ = true;
    return ErrorAt(consumed_total_ + pos_,
                   "document ended with unclosed element '" +
                       open_elements_.back() + "'");
  }
  if (!seen_root_) {
    failed_ = true;
    return Status::ParseError("document has no root element");
  }
  finished_ = true;
  return handler_->EndDocument();
}

Status SaxParser::Pump(bool at_eof) {
  while (pos_ < buf_.size()) {
    std::string_view rest(buf_.data() + pos_, buf_.size() - pos_);
    if (rest[0] != '<') {
      // Character data up to the next '<' (or end of buffer). One
      // FindMarkup pass locates the terminator AND detects entities: the
      // kernel stops at the first '<' or '&', so a '&' hit means the run
      // needs decoding and the '<' (if any) lies further on.
      bool has_amp = false;
      size_t lt = scan::FindMarkup(rest, 0);
      if (lt != scan::kNotFound && rest[lt] == '&') {
        has_amp = true;
        lt = scan::FindByte(rest, lt + 1, '<');
      }
      std::string_view text =
          lt == scan::kNotFound ? rest : rest.substr(0, lt);
      if (lt == scan::kNotFound && !at_eof) {
        // The text node is not complete yet. Hold it so that entity
        // decoding sees whole runs regardless of chunk boundaries — unless
        // the run is pathologically long, in which case emit a prefix to
        // keep memory O(one token). (Whitespace suppression is immune to
        // the early emit: leading whitespace is staged node-level in
        // HandleText, so a whitespace-only node is suppressed identically
        // however the stream is chunked.)
        if (text.size() < kTextHoldBytes) return Status::OK();
        // Hold back a possible incomplete trailing entity.
        size_t amp = has_amp ? text.rfind('&') : std::string_view::npos;
        if (amp != std::string_view::npos &&
            scan::FindByte(text, amp, ';') == scan::kNotFound) {
          text = text.substr(0, amp);
        }
        if (text.empty()) return Status::OK();
        bool piece_amp =
            has_amp && scan::FindByte(text, 0, '&') != scan::kNotFound;
        VITEX_RETURN_IF_ERROR(HandleText(text, piece_amp));
        pos_ += text.size();
        continue;
      }
      VITEX_RETURN_IF_ERROR(HandleText(text, has_amp));
      pos_ += text.size();
      continue;
    }
    // Markup. Classify by the bytes after '<'.
    if (rest.size() < 2) {
      if (at_eof) return ErrorAt(consumed_total_ + pos_, "truncated markup");
      return Status::OK();
    }
    if (rest[1] == '/') {
      size_t gt = scan::FindByte(rest, 0, '>');
      if (gt == scan::kNotFound) {
        if (at_eof) return ErrorAt(consumed_total_ + pos_, "truncated end tag");
        return Status::OK();
      }
      VITEX_RETURN_IF_ERROR(HandleEndTag(rest.substr(2, gt - 2)));
      pos_ += gt + 1;
      continue;
    }
    if (rest[1] == '?') {
      size_t end = FindSeq(rest, 0, "?>");
      if (end == std::string_view::npos) {
        if (at_eof) {
          return ErrorAt(consumed_total_ + pos_,
                         "truncated processing instruction");
        }
        return Status::OK();
      }
      VITEX_RETURN_IF_ERROR(HandlePi(rest.substr(2, end - 2)));
      pos_ += end + 2;
      continue;
    }
    if (rest[1] == '!') {
      if (StartsWith(rest, "<!--")) {
        size_t end = FindSeq(rest, 4, "-->");
        if (end == std::string_view::npos) {
          if (at_eof) {
            return ErrorAt(consumed_total_ + pos_, "truncated comment");
          }
          return Status::OK();
        }
        VITEX_RETURN_IF_ERROR(HandleComment(rest.substr(4, end - 4)));
        pos_ += end + 3;
        continue;
      }
      if (StartsWith(rest, "<![CDATA[")) {
        size_t end = FindSeq(rest, 0, "]]>");
        if (end == std::string_view::npos) {
          if (at_eof) {
            return ErrorAt(consumed_total_ + pos_, "truncated CDATA section");
          }
          return Status::OK();
        }
        VITEX_RETURN_IF_ERROR(HandleCData(rest.substr(9, end - 9)));
        pos_ += end + 3;
        continue;
      }
      if (StartsWith(rest, "<!DOCTYPE")) {
        size_t end = FindDoctypeEnd(rest, 9);
        if (end == std::string_view::npos) {
          if (at_eof) {
            return ErrorAt(consumed_total_ + pos_, "truncated DOCTYPE");
          }
          return Status::OK();
        }
        if (seen_root_ || !open_elements_.empty()) {
          return ErrorAt(consumed_total_ + pos_,
                         "DOCTYPE after root element start");
        }
        pos_ += end + 1;  // DOCTYPE is skipped (DTD content not modelled)
        continue;
      }
      // A prefix of one of the above constructs may be split across chunks:
      // wait for more bytes before declaring the markup unrecognizable.
      if (!at_eof && rest.size() < 9 &&
          (StartsWith(std::string_view("<!--"), rest) ||
           StartsWith(std::string_view("<![CDATA["), rest) ||
           StartsWith(std::string_view("<!DOCTYPE"), rest))) {
        return Status::OK();
      }
      return ErrorAt(consumed_total_ + pos_,
                     "unrecognized markup beginning '<!'");
    }
    // Start tag (or empty-element tag).
    size_t gt = FindTagEnd(rest, 1);
    if (gt == std::string_view::npos) {
      if (at_eof) return ErrorAt(consumed_total_ + pos_, "truncated start tag");
      return Status::OK();
    }
    uint64_t offset = consumed_total_ + pos_;
    VITEX_RETURN_IF_ERROR(HandleStartTag(rest.substr(1, gt - 1), offset));
    pos_ += gt + 1;
  }
  return Status::OK();
}

Symbol SaxParser::ResolveSymbol(std::string_view name) const {
  Symbol sym = options_.symbols->Lookup(name);
  return sym == kNoSymbol ? kAbsentSymbol : sym;
}

Status SaxParser::HandleText(std::string_view raw, bool has_amp) {
  if (raw.empty()) return Status::OK();
  if (open_elements_.empty()) {
    if (!AllWhitespace(raw)) {
      return ErrorAt(consumed_total_ + pos_,
                     "character data outside the root element");
    }
    return Status::OK();
  }
  // Whitespace suppression is a *node*-level rule: a text node is skipped
  // iff the whole coalesced node is whitespace. Leading whitespace pieces
  // are therefore staged until the node either shows real content (flush)
  // or ends at a tag (drop). Deciding piece by piece — the old behaviour —
  // disagreed with whole-document parsing whenever a chunk boundary, CDATA
  // seam or comment split a node around its whitespace. The check is on the
  // RAW bytes: a character reference like &#32; is explicit content, not
  // formatting whitespace, even when it decodes to a space.
  if (options_.skip_whitespace_text && !text_node_open_ &&
      AllWhitespace(raw)) {
    if (pending_leading_ws_.size() + raw.size() <= kTextHoldBytes) {
      pending_leading_ws_.append(raw);
      return Status::OK();
    }
    // A whitespace run beyond the hold budget is delivered as content —
    // in BOTH parse modes, since the decision depends only on cumulative
    // size — keeping parser memory O(kTextHoldBytes) on adversarial
    // all-whitespace streams. (DeliverText releases the staged prefix
    // first, so nothing is reordered or lost.)
  }
  std::string_view text = raw;
  if (has_amp) {
    Result<std::string> decoded = DecodeEntities(raw);
    if (!decoded.ok()) {
      return decoded.status().WithContext("in character data");
    }
    text_scratch_ = std::move(decoded).value();
    text = text_scratch_;
  }
  return DeliverText(text);
}

Status SaxParser::DeliverText(std::string_view text) {
  // All pieces delivered between two tags belong to one coalesced text node
  // and share one sequence number, assigned when the node begins. Comments
  // and PIs do not break a node (consumers coalesce across them).
  if (!text_node_open_) {
    text_node_open_ = true;
    text_node_sequence_ = sequence_counter_++;
  }
  if (!pending_leading_ws_.empty()) {
    // The node turned out to have real content: release its staged leading
    // whitespace first, in order.
    std::string staged = std::move(pending_leading_ws_);
    pending_leading_ws_.clear();
    ++stats_.text_events;
    VITEX_RETURN_IF_ERROR(
        handler_->Text(TextEvent{staged, depth(), text_node_sequence_}));
  }
  ++stats_.text_events;
  return handler_->Text(TextEvent{text, depth(), text_node_sequence_});
}

Status SaxParser::HandleCData(std::string_view content) {
  if (open_elements_.empty()) {
    return Status::ParseError("CDATA section outside the root element");
  }
  if (content.empty()) return Status::OK();
  // CDATA is explicitly marked character data — never subject to the
  // formatting-whitespace suppression heuristic, and it makes the whole
  // coalesced node "real" (so staged leading whitespace is released).
  return DeliverText(content);
}

Status SaxParser::HandleStartTag(std::string_view body, uint64_t offset) {
  // body is the text between '<' and '>', e.g. `a x="1" /`.
  bool self_closing = false;
  if (!body.empty() && body.back() == '/') {
    self_closing = true;
    body.remove_suffix(1);
  }
  // Element name. ScanNameEnd stops at {ws, '=', '/', '>'}; the element
  // name historically ends only at whitespace or '/' ('>' cannot occur
  // unquoted inside `body`), so resume past the extra terminators to keep
  // scalar semantics exact even for malformed names.
  size_t i = 0;
  while (true) {
    i = scan::ScanNameEnd(body, i);
    if (i < body.size() && (body[i] == '=' || body[i] == '>')) {
      ++i;
      continue;
    }
    break;
  }
  std::string_view name = body.substr(0, i);
  VITEX_RETURN_IF_ERROR(CheckName(name, "element"));

  if (seen_root_ && open_elements_.empty()) {
    return ErrorAt(offset, "multiple root elements (second root '" +
                               std::string(name) + "')");
  }
  if (options_.max_depth != 0 && open_elements_.size() >= options_.max_depth) {
    return Status::ResourceExhausted("element nesting exceeds max_depth");
  }

  // Attributes.
  StartElementEvent& event = event_scratch_;
  event.name = name;
  event.symbol = kNoSymbol;
  event.attributes.clear();
  attr_scratch_.clear();
  // First pass: parse raw name/value pairs, decoding values into
  // attr_scratch_ when they contain entities.
  std::vector<RawAttr>& raw_attrs = raw_attr_scratch_;
  raw_attrs.clear();
  while (i < body.size()) {
    i = scan::ScanWhitespaceRun(body, i);
    if (i >= body.size()) break;
    size_t name_begin = i;
    // Attribute names end at '=' or whitespace; resume past ScanNameEnd's
    // extra '/' and '>' terminators (see the element-name scan above).
    while (true) {
      i = scan::ScanNameEnd(body, i);
      if (i < body.size() && (body[i] == '/' || body[i] == '>')) {
        ++i;
        continue;
      }
      break;
    }
    std::string_view attr_name = body.substr(name_begin, i - name_begin);
    VITEX_RETURN_IF_ERROR(CheckName(attr_name, "attribute"));
    i = scan::ScanWhitespaceRun(body, i);
    if (i >= body.size() || body[i] != '=') {
      return ErrorAt(offset, "attribute '" + std::string(attr_name) +
                                 "' has no value");
    }
    ++i;  // '='
    i = scan::ScanWhitespaceRun(body, i);
    if (i >= body.size() || (body[i] != '"' && body[i] != '\'')) {
      return ErrorAt(offset, "attribute value for '" + std::string(attr_name) +
                                 "' is not quoted");
    }
    char quote = body[i];
    ++i;
    size_t value_begin = i;
    // One pass finds the closing quote and detects entities: a '&' hit
    // means the value needs decoding and the quote lies further on.
    bool value_has_amp = false;
    size_t close = scan::FindQuoteOrAmp(body, i, quote);
    if (close != scan::kNotFound && body[close] == '&') {
      value_has_amp = true;
      close = scan::FindByte(body, close + 1, quote);
    }
    if (close == scan::kNotFound) {
      return ErrorAt(offset, "unterminated attribute value for '" +
                                 std::string(attr_name) + "'");
    }
    std::string_view value = body.substr(value_begin, close - value_begin);
    i = close + 1;  // past the closing quote
    if (scan::FindByte(value, 0, '<') != scan::kNotFound) {
      return ErrorAt(offset, "'<' in attribute value");
    }
    int decoded_index = -1;
    if (value_has_amp) {
      Result<std::string> decoded = DecodeEntities(value);
      if (!decoded.ok()) {
        return decoded.status().WithContext("in attribute '" +
                                            std::string(attr_name) + "'");
      }
      decoded_index = static_cast<int>(attr_scratch_.size());
      attr_scratch_.push_back(std::move(decoded).value());
    }
    raw_attrs.push_back(RawAttr{attr_name, value, decoded_index});
  }
  for (size_t a = 0; a < raw_attrs.size(); ++a) {
    for (size_t b = a + 1; b < raw_attrs.size(); ++b) {
      if (raw_attrs[a].name == raw_attrs[b].name) {
        return ErrorAt(offset, "duplicate attribute '" +
                                   std::string(raw_attrs[a].name) + "'");
      }
    }
  }
  event.attributes.reserve(raw_attrs.size());
  for (const RawAttr& ra : raw_attrs) {
    event.attributes.push_back(Attribute{
        ra.name,
        ra.decoded_index >= 0 ? std::string_view(attr_scratch_[ra.decoded_index])
                              : ra.value,
        options_.symbols != nullptr ? ResolveSymbol(ra.name) : kNoSymbol});
  }
  if (options_.symbols != nullptr) {
    // Lookup, not Intern: a name absent from the table at query-build time
    // cannot match any query symbol, and minting ids for document-only
    // vocabulary would grow the shared table without bound on long-lived
    // pub/sub streams. Misses stamp kAbsentSymbol so consumers don't repeat
    // the hash.
    event.symbol = ResolveSymbol(name);
  }
  // A tag ends any open text node; staged leading whitespace that never met
  // real content belongs to a whitespace-only node and is dropped here.
  pending_leading_ws_.clear();
  text_node_open_ = false;
  event.sequence = sequence_counter_;
  sequence_counter_ += 1 + event.attributes.size();

  open_elements_.emplace_back(name);
  seen_root_ = true;
  event.depth = depth();
  if (event.depth > stats_.max_depth) stats_.max_depth = event.depth;
  ++stats_.start_elements;
  stats_.attributes += event.attributes.size();
  VITEX_RETURN_IF_ERROR(handler_->StartElement(event));

  if (self_closing) {
    int d = depth();
    std::string owned = std::move(open_elements_.back());
    open_elements_.pop_back();
    VITEX_RETURN_IF_ERROR(handler_->EndElement(owned, d));
  }
  return Status::OK();
}

Status SaxParser::HandleEndTag(std::string_view body) {
  // body is the text between '</' and '>', e.g. `a ` (trailing space legal).
  std::string_view name = TrimWhitespace(body);
  if (open_elements_.empty() || open_elements_.back() != name) {
    // Only a failing end tag needs its name checked: one equal to the open
    // element's passed CheckName at its start tag. Checking first keeps
    // the invalid-name message ahead of the structural one.
    VITEX_RETURN_IF_ERROR(CheckName(name, "element"));
    if (open_elements_.empty()) {
      return Status::ParseError("end tag '</" + std::string(name) +
                                ">' with no open element");
    }
    return Status::ParseError("mismatched end tag: expected '</" +
                              open_elements_.back() + ">' but found '</" +
                              std::string(name) + ">'");
  }
  pending_leading_ws_.clear();
  text_node_open_ = false;
  int d = depth();
  std::string owned = std::move(open_elements_.back());
  open_elements_.pop_back();
  return handler_->EndElement(owned, d);
}

Status SaxParser::HandlePi(std::string_view body) {
  // body is between '<?' and '?>'. The XML declaration is delivered as a PI
  // with target "xml"; consumers typically ignore it.
  size_t i = 0;
  while (i < body.size() && !IsXmlSpace(body[i])) ++i;
  std::string_view target = body.substr(0, i);
  VITEX_RETURN_IF_ERROR(CheckName(target, "processing-instruction target"));
  while (i < body.size() && IsXmlSpace(body[i])) ++i;
  ++stats_.processing_instructions;
  return handler_->ProcessingInstruction(target, body.substr(i));
}

Status SaxParser::HandleComment(std::string_view body) {
  if (body.find("--") != std::string_view::npos) {
    return Status::ParseError("'--' inside comment");
  }
  ++stats_.comments;
  return handler_->Comment(body);
}

Status ParseString(std::string_view document, ContentHandler* handler,
                   SaxParserOptions options) {
  SaxParser parser(handler, options);
  VITEX_RETURN_IF_ERROR(parser.Feed(document));
  return parser.Finish();
}

Status ParseFile(const std::string& path, ContentHandler* handler,
                 SaxParserOptions options, size_t chunk_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "'");
  }
  SaxParser parser(handler, options);
  std::unique_ptr<char[]> buf(new char[chunk_bytes]);
  Status status;
  while (true) {
    size_t n = std::fread(buf.get(), 1, chunk_bytes, f);
    if (n > 0) {
      status = parser.Feed(std::string_view(buf.get(), n));
      if (!status.ok()) break;
    }
    if (n < chunk_bytes) {
      if (std::ferror(f) != 0) {
        status = Status::IoError("read error on '" + path + "'");
      } else {
        status = parser.Finish();
      }
      break;
    }
  }
  std::fclose(f);
  return status;
}

}  // namespace vitex::xml
