#include "xml/event_log.h"

#include "xml/sax_parser.h"

namespace vitex::xml {

uint32_t EventLog::Intern(std::string_view s) {
  uint32_t offset = static_cast<uint32_t>(heap_.size());
  heap_.append(s);
  return offset;
}

void EventLog::Clear() {
  heap_.clear();
  events_.clear();
  attrs_.clear();
}

Status EventLog::Replay(ContentHandler* handler) const {
  VITEX_RETURN_IF_ERROR(handler->StartDocument());
  // Pooled per-thread scratch: its attributes vector keeps its capacity
  // across documents, so steady-state replay allocates nothing
  // (DESIGN.md §12). Thread-local rather than a member because one log may
  // be replayed concurrently by several shard threads. Every field is
  // overwritten before use, so views left from a previous (possibly freed)
  // log are never read.
  thread_local StartElementEvent ev;
  for (const Event& e : events_) {
    switch (e.kind) {
      case Kind::kStart: {
        ev.name = HeapView(e.name_offset, e.name_size);
        ev.depth = e.depth;
        ev.symbol = e.symbol;
        ev.sequence = e.sequence;
        ev.attributes.clear();
        for (uint32_t i = 0; i < e.attr_count; ++i) {
          const AttrRef& a = attrs_[e.first_attr + i];
          ev.attributes.push_back(
              Attribute{HeapView(a.name_offset, a.name_size),
                        HeapView(a.value_offset, a.value_size), a.symbol});
        }
        VITEX_RETURN_IF_ERROR(handler->StartElement(ev));
        break;
      }
      case Kind::kEnd:
        VITEX_RETURN_IF_ERROR(
            handler->EndElement(HeapView(e.name_offset, e.name_size), e.depth));
        break;
      case Kind::kText: {
        TextEvent text;
        text.text = HeapView(e.name_offset, e.name_size);
        text.depth = e.depth;
        text.sequence = e.sequence;
        VITEX_RETURN_IF_ERROR(handler->Text(text));
        break;
      }
    }
  }
  return handler->EndDocument();
}

Status EventRecorder::StartElement(const StartElementEvent& event) {
  EventLog::Event e;
  e.kind = EventLog::Kind::kStart;
  e.depth = event.depth;
  e.symbol = event.symbol;
  e.sequence = event.sequence;
  e.name_offset = log_->Intern(event.name);
  e.name_size = static_cast<uint32_t>(event.name.size());
  e.first_attr = static_cast<uint32_t>(log_->attrs_.size());
  e.attr_count = static_cast<uint32_t>(event.attributes.size());
  for (const Attribute& a : event.attributes) {
    EventLog::AttrRef ref;
    ref.name_offset = log_->Intern(a.name);
    ref.name_size = static_cast<uint32_t>(a.name.size());
    ref.value_offset = log_->Intern(a.value);
    ref.value_size = static_cast<uint32_t>(a.value.size());
    ref.symbol = a.symbol;
    log_->attrs_.push_back(ref);
  }
  log_->events_.push_back(e);
  return Status::OK();
}

Status EventRecorder::EndElement(std::string_view name, int depth) {
  EventLog::Event e;
  e.kind = EventLog::Kind::kEnd;
  e.depth = depth;
  e.name_offset = log_->Intern(name);
  e.name_size = static_cast<uint32_t>(name.size());
  e.first_attr = 0;
  e.attr_count = 0;
  log_->events_.push_back(e);
  return Status::OK();
}

Status EventRecorder::Text(const TextEvent& event) {
  EventLog::Event e;
  e.kind = EventLog::Kind::kText;
  e.depth = event.depth;
  e.sequence = event.sequence;
  e.name_offset = log_->Intern(event.text);
  e.name_size = static_cast<uint32_t>(event.text.size());
  e.first_attr = 0;
  e.attr_count = 0;
  log_->events_.push_back(e);
  return Status::OK();
}

Result<EventLog> RecordEvents(std::string_view document,
                              SaxParserOptions options) {
  EventLog log;
  EventRecorder recorder(&log);
  VITEX_RETURN_IF_ERROR(ParseString(document, &recorder, options));
  return log;
}

}  // namespace vitex::xml
