#include "baseline/naive_matcher.h"

#include <algorithm>
#include <cassert>

#include "xml/escape.h"

namespace vitex::baseline {

using xpath::Axis;
using xpath::QueryNode;

NaiveStreamMatcher::NaiveStreamMatcher(const xpath::Query* query,
                                       twigm::ResultHandler* results)
    : NaiveStreamMatcher(query, results, Options()) {}

NaiveStreamMatcher::NaiveStreamMatcher(const xpath::Query* query,
                                       twigm::ResultHandler* results,
                                       Options options)
    : query_(query), results_(results), options_(options) {
  nodes_.resize(query_->size());
  for (const auto& qn : query_->nodes()) {
    NaiveNode& n = nodes_[qn->id];
    n.query = qn.get();
    n.parent_id = qn->parent == nullptr ? -1 : qn->parent->id;
  }
  output_is_element_ = query_->output()->IsElementNode();
}

void NaiveStreamMatcher::Reset() {
  for (NaiveNode& n : nodes_) n.stack.clear();
  stats_ = NaiveStats();
  live_instances_ = 0;
  live_bytes_ = 0;
  emitted_sequences_.clear();
  pending_text_.clear();
  pending_text_depth_ = -1;
  recordings_.clear();
  completed_fragment_.clear();
  has_completed_fragment_ = false;
  sequence_counter_ = 0;
}

Status NaiveStreamMatcher::StartDocument() {
  Reset();
  return Status::OK();
}

Status NaiveStreamMatcher::CheckCap() const {
  if (options_.max_live_instances != 0 &&
      live_instances_ > options_.max_live_instances) {
    return Status::ResourceExhausted(
        "naive matcher exceeded its pattern-match instance budget (" +
        std::to_string(options_.max_live_instances) + ")");
  }
  return Status::OK();
}

NaiveStreamMatcher::NaiveEntry* NaiveStreamMatcher::FindEntry(NaiveNode& node,
                                                              int level) {
  // Levels are strictly increasing; scan from the top (entries above
  // `level` can only be one pushed this same event).
  for (size_t i = node.stack.size(); i-- > 0;) {
    if (node.stack[i].level == level) return &node.stack[i];
    if (node.stack[i].level < level) return nullptr;
  }
  return nullptr;
}

template <typename Fn>
void NaiveStreamMatcher::ForEachParentEntry(NaiveNode& node, int level,
                                            Fn fn) {
  if (node.parent_id < 0) return;
  std::vector<NaiveEntry>& st = nodes_[node.parent_id].stack;
  const QueryNode* q = node.query;
  switch (q->axis) {
    case Axis::kChild:
      for (size_t i = st.size(); i-- > 0;) {
        if (st[i].level == level - 1) {
          fn(st[i]);
          return;
        }
        if (st[i].level < level - 1) return;
      }
      return;
    case Axis::kDescendant:
      for (NaiveEntry& e : st) {
        if (e.level >= level) break;
        fn(e);
      }
      return;
    case Axis::kAttribute:
      if (q->descendant_attribute) {
        for (NaiveEntry& e : st) {
          if (e.level > level) break;
          fn(e);
        }
      } else {
        if (!st.empty() && st.back().level == level) fn(st.back());
      }
      return;
    case Axis::kSelf:
      return;
  }
}

void NaiveStreamMatcher::AddInstance(NaiveNode& node, int level, uint64_t seq,
                                     int parent_level,
                                     uint32_t parent_instance) {
  if (node.stack.empty() || node.stack.back().level != level) {
    node.stack.push_back(NaiveEntry{level, seq, {}});
  }
  MatchInstance inst;
  inst.parent_level = parent_level;
  inst.parent_instance = parent_instance;
  node.stack.back().instances.push_back(std::move(inst));
  ++stats_.instances_created;
  ++live_instances_;
  live_bytes_ += sizeof(MatchInstance);
  if (live_instances_ > stats_.peak_live_instances) {
    stats_.peak_live_instances = live_instances_;
  }
}

void NaiveStreamMatcher::ReleaseInstance(MatchInstance& inst) {
  for (auto& [frag, seq] : inst.candidates) {
    (void)seq;
    live_bytes_ -= frag.size();
  }
  inst.candidates.clear();
  --live_instances_;
  live_bytes_ -= sizeof(MatchInstance);
}

void NaiveStreamMatcher::EmitInstanceCandidates(MatchInstance& inst) {
  for (auto& [frag, seq] : inst.candidates) {
    if (emitted_sequences_.insert(seq).second) {
      ++stats_.results_emitted;
      if (results_ != nullptr) results_->OnResult(frag, seq);
    }
  }
}

// --- Recordings (same canonical serialization as TwigM) --------------------

void NaiveStreamMatcher::RecordingsOnStart(const xml::StartElementEvent& event,
                                           bool output_pushed) {
  if (output_pushed && output_is_element_) {
    recordings_.push_back(Recording{event.depth, std::string(), false});
  }
  if (recordings_.empty()) return;
  std::string tag;
  tag.push_back('<');
  tag.append(event.name);
  for (const xml::Attribute& a : event.attributes) {
    tag.push_back(' ');
    tag.append(a.name);
    tag.append("=\"");
    tag.append(xml::EscapeAttribute(a.value));
    tag.push_back('"');
  }
  for (Recording& r : recordings_) {
    if (r.start_tag_open) r.buffer.push_back('>');
    r.start_tag_open = true;
    r.buffer.append(tag);
  }
}

void NaiveStreamMatcher::RecordingsOnText(std::string_view text) {
  if (recordings_.empty()) return;
  std::string escaped = xml::EscapeText(text);
  for (Recording& r : recordings_) {
    if (r.start_tag_open) {
      r.buffer.push_back('>');
      r.start_tag_open = false;
    }
    r.buffer.append(escaped);
  }
}

void NaiveStreamMatcher::RecordingsOnEnd(std::string_view name, int depth) {
  if (recordings_.empty()) return;
  for (Recording& r : recordings_) {
    if (r.start_tag_open) {
      r.buffer.append("/>");
      r.start_tag_open = false;
    } else {
      r.buffer.append("</");
      r.buffer.append(name);
      r.buffer.push_back('>');
    }
  }
  if (recordings_.back().level == depth) {
    completed_fragment_ = std::move(recordings_.back().buffer);
    has_completed_fragment_ = true;
    recordings_.pop_back();
  }
}

// --- Events -----------------------------------------------------------------

Status NaiveStreamMatcher::StartElement(const xml::StartElementEvent& event) {
  VITEX_RETURN_IF_ERROR(FlushText());
  // Query-independent numbering, mirroring TwigMachine: one number for the
  // element plus one per attribute.
  uint64_t seq = sequence_counter_;
  sequence_counter_ += 1 + event.attributes.size();
  int level = event.depth;
  bool output_pushed = false;
  // Preorder: parents create entries before children enumerate them.
  for (NaiveNode& node : nodes_) {
    const QueryNode* q = node.query;
    if (!q->IsElementNode() || !q->MatchesTag(event.name)) continue;
    if (node.parent_id < 0) {
      if (q->axis == Axis::kDescendant || level == 1) {
        AddInstance(node, level, seq, -1, 0);
        if (q->is_output) output_pushed = true;
      }
      continue;
    }
    bool any = false;
    ForEachParentEntry(node, level, [&](NaiveEntry& pe) {
      for (uint32_t i = 0; i < pe.instances.size(); ++i) {
        AddInstance(node, level, seq, pe.level, i);
        any = true;
      }
    });
    if (any && q->is_output) output_pushed = true;
  }
  RecordingsOnStart(event, output_pushed);
  if (!event.attributes.empty()) {
    VITEX_RETURN_IF_ERROR(ProcessAttributes(event, seq));
  }
  return CheckCap();
}

Status NaiveStreamMatcher::ProcessAttributes(
    const xml::StartElementEvent& event, uint64_t element_seq) {
  int level = event.depth;
  for (NaiveNode& node : nodes_) {
    const QueryNode* q = node.query;
    if (!q->IsAttributeNode()) continue;
    for (size_t ai = 0; ai < event.attributes.size(); ++ai) {
      const xml::Attribute& attr = event.attributes[ai];
      if (!q->MatchesAttributeName(attr.name)) continue;
      if (!q->CompareValue(attr.value)) continue;
      uint64_t attr_seq = element_seq + 1 + ai;
      if (node.parent_id < 0) {
        if (q->is_output && q->descendant_attribute &&
            emitted_sequences_.insert(attr_seq).second) {
          ++stats_.results_emitted;
          if (results_ != nullptr) results_->OnResult(attr.value, attr_seq);
        }
        continue;
      }
      ForEachParentEntry(node, level, [&](NaiveEntry& pe) {
        for (MatchInstance& inst : pe.instances) {
          inst.child_bits |= 1ull << q->index_in_parent;
          if (q->is_output) {
            inst.candidates.emplace_back(std::string(attr.value), attr_seq);
            live_bytes_ += attr.value.size();
            ++stats_.candidate_copies;
          }
        }
      });
    }
  }
  return Status::OK();
}

Status NaiveStreamMatcher::Text(const xml::TextEvent& event) {
  // The event's sequence stamp is ignored: the baseline numbers nodes with
  // its own counter, independently of the producer.
  if (pending_text_.empty()) {
    pending_text_.assign(event.text);
    pending_text_depth_ = event.depth;
  } else {
    pending_text_.append(event.text);
  }
  return Status::OK();
}

Status NaiveStreamMatcher::FlushText() {
  if (pending_text_.empty()) return Status::OK();
  std::string text = std::move(pending_text_);
  int depth = pending_text_depth_;
  pending_text_.clear();
  pending_text_depth_ = -1;
  RecordingsOnText(text);
  uint64_t seq = sequence_counter_++;
  for (NaiveNode& node : nodes_) {
    const QueryNode* q = node.query;
    if (!q->IsTextNode()) continue;
    if (!q->CompareValue(text)) continue;
    if (node.parent_id < 0) {
      if (q->is_output && q->axis == Axis::kDescendant &&
          emitted_sequences_.insert(seq).second) {
        ++stats_.results_emitted;
        if (results_ != nullptr) results_->OnResult(text, seq);
      }
      continue;
    }
    std::vector<NaiveEntry>& st = nodes_[node.parent_id].stack;
    auto deliver = [&](NaiveEntry& pe) {
      for (MatchInstance& inst : pe.instances) {
        inst.child_bits |= 1ull << q->index_in_parent;
        if (q->is_output) {
          inst.candidates.emplace_back(std::string(text), seq);
          live_bytes_ += text.size();
          ++stats_.candidate_copies;
        }
      }
    };
    if (q->axis == Axis::kChild) {
      if (!st.empty() && st.back().level == depth) deliver(st.back());
    } else {
      for (NaiveEntry& e : st) {
        if (e.level > depth) break;
        deliver(e);
      }
    }
  }
  return CheckCap();
}

Status NaiveStreamMatcher::EndElement(std::string_view name, int depth) {
  VITEX_RETURN_IF_ERROR(FlushText());
  RecordingsOnEnd(name, depth);
  for (size_t i = nodes_.size(); i-- > 0;) {
    NaiveNode& node = nodes_[i];
    if (node.stack.empty() || node.stack.back().level != depth) continue;
    if (!node.query->IsElementNode()) continue;
    NaiveEntry entry = std::move(node.stack.back());
    node.stack.pop_back();
    const QueryNode* q = node.query;
    for (MatchInstance& inst : entry.instances) {
      bool satisfied = q->formula.Evaluate(inst.child_bits);
      if (satisfied) {
        if (q->is_output) {
          assert(has_completed_fragment_);
          inst.candidates.emplace_back(completed_fragment_, entry.sequence);
          live_bytes_ += completed_fragment_.size();
          ++stats_.candidate_copies;
        }
        if (node.parent_id < 0) {
          EmitInstanceCandidates(inst);
        } else {
          NaiveEntry* pe = FindEntry(nodes_[node.parent_id],
                                     inst.parent_level);
          if (pe != nullptr && inst.parent_instance < pe->instances.size()) {
            MatchInstance& parent = pe->instances[inst.parent_instance];
            parent.child_bits |= 1ull << q->index_in_parent;
            // Candidates move (bytes stay live, now owned by the parent).
            for (auto& cand : inst.candidates) {
              parent.candidates.push_back(std::move(cand));
            }
            inst.candidates.clear();
          }
        }
      }
      ReleaseInstance(inst);
    }
  }
  if (has_completed_fragment_) {
    completed_fragment_.clear();
    has_completed_fragment_ = false;
  }
  return CheckCap();
}

Status NaiveStreamMatcher::EndDocument() {
  VITEX_RETURN_IF_ERROR(FlushText());
  for (const NaiveNode& node : nodes_) {
    if (!node.stack.empty()) {
      return Status::Internal("naive matcher: nonempty stack at end");
    }
  }
  return Status::OK();
}

}  // namespace vitex::baseline
