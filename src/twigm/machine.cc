#include "twigm/machine.h"

#include <algorithm>
#include <cassert>

#include "xml/escape.h"

namespace vitex::twigm {

using xpath::Axis;
using xpath::QueryNode;

TwigMachine::TwigMachine(const xpath::Query* query, Options options,
                         SymbolTable* symbols)
    : options_(options), candidates_(&memory_) {
  assert(symbols != nullptr);
  nodes_.resize(query->size());
  for (const auto& qn : query->nodes()) {
    MachineNode& m = nodes_[qn->id];
    m.query = qn.get();
    m.parent_id = qn->parent == nullptr ? -1 : qn->parent->id;
    // Intern the name test once; from here on the machine never touches
    // the query's string storage on the hot path.
    Symbol sym = InternsName(*qn) ? symbols->Intern(qn->name) : kNoSymbol;
    if (qn->IsAttributeNode()) {
      attribute_nodes_.push_back(qn->id);
      attribute_node_symbols_.push_back(sym);  // kNoSymbol for '@*'
      if (qn->parent == nullptr) has_bare_attributes_ = true;
      if (qn->parent == nullptr || qn->descendant_attribute) {
        has_unanchored_attributes_ = true;
      }
    } else if (qn->IsTextNode()) {
      text_nodes_.push_back(qn->id);
      if (qn->parent == nullptr) has_bare_text_ = true;
    } else if (qn->test == xpath::NodeTestKind::kWildcard) {
      element_wildcards_.push_back(qn->id);
    } else {
      auto it = std::find_if(
          element_index_.begin(), element_index_.end(),
          [sym](const auto& entry) { return entry.first == sym; });
      if (it == element_index_.end()) {
        element_index_.emplace_back(sym, std::vector<int>());
        it = std::prev(element_index_.end());
      }
      it->second.push_back(qn->id);  // preorder, since qn iterates preorder
    }
  }
  std::sort(element_index_.begin(), element_index_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  output_is_element_ = query->output()->IsElementNode();

  // Plan shape: parameter slots in preorder (the numbering
  // xpath::Canonicalize uses), the parametric closure (a node whose subtree
  // contains a slot has per-group satisfaction), and each node's
  // parametric-child -> pmasks-slot map.
  param_slot_of_node_.assign(query->size(), -1);
  parametric_.assign(query->size(), 0);
  for (const auto& qn : query->nodes()) {
    if (qn->value_op != xpath::CompareOp::kNone) {
      param_slot_of_node_[qn->id] = static_cast<int>(param_slot_count_++);
      parametric_[qn->id] = 1;
    }
  }
  // Ids are preorder, so a reverse sweep sees children before parents.
  for (size_t i = query->size(); i-- > 0;) {
    const QueryNode* qn = query->nodes()[i].get();
    if (parametric_[qn->id] && qn->parent != nullptr) {
      parametric_[qn->parent->id] = 1;
    }
  }
  for (MachineNode& m : nodes_) {
    m.pchild_slot.assign(m.query->children.size(), -1);
    for (size_t c = 0; c < m.query->children.size(); ++c) {
      if (parametric_[m.query->children[c]->id]) {
        m.pchild_slot[c] = m.pchild_count++;
      }
    }
  }
}

namespace {
uint64_t MaskForGroups(size_t group_count) {
  if (group_count >= 64) return ~0ull;
  return (1ull << group_count) - 1;
}
}  // namespace

Status TwigMachine::BindPlan(const PlanBindings* bindings,
                             GroupResultSink* sink) {
  assert(bindings != nullptr && sink != nullptr);
  if (bindings->slot_count != param_slot_count_) {
    return Status::InvalidArgument(
        "plan bindings have a different slot count than the query's "
        "value-tested nodes");
  }
  if (bindings->group_count > 64) {
    return Status::InvalidArgument(
        "a shared plan machine supports at most 64 subscriber groups");
  }
  bindings_ = bindings;
  group_sink_ = sink;
  full_mask_ = MaskForGroups(bindings->group_count);
  return Status::OK();
}

const std::vector<int>* TwigMachine::FindElementMatches(Symbol symbol) const {
  if (symbol >= kAbsentSymbol) return nullptr;  // kAbsent / kNo sentinels
  auto it = std::lower_bound(
      element_index_.begin(), element_index_.end(), symbol,
      [](const auto& entry, Symbol s) { return entry.first < s; });
  if (it == element_index_.end() || it->first != symbol) return nullptr;
  return &it->second;
}

void TwigMachine::Reset() {
  // Versioned memory (DESIGN.md §12): bumping the generation makes every
  // node stack and candidate slot from the previous document stale without
  // visiting them — TouchStack() invalidates each stack lazily on first
  // use, and all pooled capacity (stack slots, pmasks/candidate vectors,
  // fragment buffers, recording buffers) is retained.
  ++generation_;
  candidates_.Reset();
  stats_ = MachineStats();
  memory_ = MemoryTracker();
  live_entries_ = 0;
  recordings_size_ = 0;
  completed_fragment_.clear();
  has_completed_fragment_ = false;
}

Status TwigMachine::StartDocument() {
  Reset();
  // Group membership may change between documents (subscribe/unsubscribe at
  // epoch boundaries mutate the bindings while the machine is idle).
  full_mask_ = MaskForGroups(bindings_->group_count);
  return Status::OK();
}

uint64_t TwigMachine::ParamMatchMask(const xpath::QueryNode* q,
                                     const xpath::NodeValue& value) {
  const size_t slot = static_cast<size_t>(param_slot_of_node_[q->id]);
  const size_t groups = bindings_->group_count;
  stats_.param_evaluations += groups;
  uint64_t mask = 0;
  for (size_t g = 0; g < groups; ++g) {
    if (bindings_->param(g, slot).Matches(q->value_op, value)) {
      mask |= 1ull << g;
    }
  }
  return mask;
}

uint64_t TwigMachine::EvaluateFormulaMask(const xpath::Formula& f,
                                          const MachineNode& node,
                                          const StackEntry& entry) const {
  using Kind = xpath::Formula::Kind;
  switch (f.kind) {
    case Kind::kTrue:
      return full_mask_;
    case Kind::kAtom: {
      int slot = node.pchild_slot[f.atom_child];
      if (slot >= 0) return entry.pmasks[slot];
      return ((entry.child_bits >> f.atom_child) & 1u) ? full_mask_ : 0;
    }
    case Kind::kAnd: {
      uint64_t m = full_mask_;
      for (const xpath::Formula& op : f.operands) {
        m &= EvaluateFormulaMask(op, node, entry);
        if (m == 0) break;
      }
      return m;
    }
    case Kind::kOr: {
      uint64_t m = 0;
      for (const xpath::Formula& op : f.operands) {
        m |= EvaluateFormulaMask(op, node, entry);
        if (m == full_mask_) break;
      }
      return m;
    }
    case Kind::kNot:
      return full_mask_ & ~EvaluateFormulaMask(f.operands[0], node, entry);
  }
  return 0;
}

uint64_t TwigMachine::SatisfactionMask(const MachineNode& node,
                                       const StackEntry& entry) {
  if (parametric_[node.query->id]) {
    return EvaluateFormulaMask(node.query->formula, node, entry);
  }
  return node.query->formula.Evaluate(entry.child_bits) ? full_mask_ : 0;
}

void TwigMachine::DeliverResult(std::string_view fragment, uint64_t sequence,
                                uint64_t group_mask) {
  group_mask &= full_mask_;
  if (group_mask == 0) return;
  // One "result" per (solution, group). Groups with several members
  // (identical queries) fan out further in the sink, so this counts
  // distinct per-group solutions, not individual subscriber deliveries.
  stats_.results_emitted +=
      static_cast<uint64_t>(__builtin_popcountll(group_mask));
  group_sink_->OnGroupResult(fragment, sequence, group_mask);
}

Status TwigMachine::CheckMemoryLimit() const {
  if (options_.memory_limit_bytes != 0 &&
      memory_.live_bytes() > options_.memory_limit_bytes) {
    return Status::ResourceExhausted(
        "TwigM live memory exceeds the configured limit");
  }
  return Status::OK();
}

bool TwigMachine::AxisSatisfiable(const MachineNode& node, int level) {
  const QueryNode* q = node.query;
  if (node.parent_id < 0) {
    // The machine root matches against a virtual document-root entry at
    // level 0: '/a' requires level 1, '//a' accepts any level.
    return q->axis == Axis::kDescendant || level == 1;
  }
  MachineNode& parent = nodes_[node.parent_id];
  TouchStack(parent);
  if (parent.stack_size == 0) return false;
  const StackEntry* st = parent.stack.data();
  if (q->axis == Axis::kAttribute) {
    // `level` is the owner element's. `@a` needs the owner's own entry,
    // pushed this event and so on top; `//@a` the owner's or an open
    // ancestor's, so the bottom entry is at or above the owner.
    return q->descendant_attribute ? st[0].level <= level
                                   : st[parent.stack_size - 1].level == level;
  }
  if (q->axis == Axis::kDescendant) {
    // A strict ancestor: some open entry at a smaller level. Entries are
    // sorted by level, so the bottom one is the smallest.
    return st[0].level < level;
  }
  // Child axis: an open entry exactly one level up. The only entry that can
  // sit above it is one pushed for this same element (level == level), so a
  // bounded scan from the top suffices.
  for (size_t i = parent.stack_size; i-- > 0;) {
    if (st[i].level == level - 1) return true;
    if (st[i].level < level - 1) return false;
  }
  return false;
}

template <typename Fn>
void TwigMachine::ForEachPropagationTarget(const MachineNode& node, int level,
                                           Fn fn) {
  if (node.parent_id < 0) return;
  MachineNode& parent = nodes_[node.parent_id];
  TouchStack(parent);
  StackEntry* st = parent.stack.data();
  const size_t n = parent.stack_size;
  const QueryNode* q = node.query;
  switch (q->axis) {
    case Axis::kChild:
      for (size_t i = n; i-- > 0;) {
        if (st[i].level == level - 1) {
          fn(st[i]);
          return;
        }
        if (st[i].level < level - 1) return;
      }
      return;
    case Axis::kDescendant:
      // Every strict ancestor entry (levels < level). Entries at `level`
      // belong to this element itself and are excluded.
      for (size_t i = 0; i < n; ++i) {
        if (st[i].level >= level) break;
        fn(st[i]);
      }
      return;
    case Axis::kAttribute:
      if (q->descendant_attribute) {
        // Descendant-or-self: the owner element or any open ancestor.
        for (size_t i = 0; i < n; ++i) {
          if (st[i].level > level) break;
          fn(st[i]);
        }
      } else {
        // The owner element's entry only (same level, pushed this event).
        if (n > 0 && st[n - 1].level == level) fn(st[n - 1]);
      }
      return;
    case Axis::kSelf:
      return;  // kSelf never reaches the machine (compiled away)
  }
}

void TwigMachine::PushEntry(MachineNode& node, int level, uint64_t sequence) {
  TouchStack(node);
  if (node.stack_size == node.stack.size()) {
    node.stack.emplace_back();  // warmup growth only; slot is then pooled
  }
  StackEntry& e = node.stack[node.stack_size++];
  e.level = level;
  e.child_bits = 0;
  e.sequence = sequence;
  // A reused slot may carry CandidateRefs from a document that aborted
  // mid-element; their slot ids are stale in the versioned store (no Unref
  // owed — the store's Reset already reclaimed everything).
  e.candidates.clear();
  size_t extra = 0;
  if (node.pchild_count > 0) {
    e.pmasks.assign(static_cast<size_t>(node.pchild_count), 0);
    extra = static_cast<size_t>(node.pchild_count) * sizeof(uint64_t);
  } else {
    e.pmasks.clear();
  }
  ++live_entries_;
  ++stats_.pushes;
  if (live_entries_ > stats_.peak_stack_entries) {
    stats_.peak_stack_entries = live_entries_;
  }
  memory_.Add(sizeof(StackEntry) + extra);
}

StackEntry& TwigMachine::PopEntry(MachineNode& node) {
  StackEntry& e = node.stack[--node.stack_size];
  --live_entries_;
  ++stats_.pops;
  memory_.Release(sizeof(StackEntry) + e.pmasks.size() * sizeof(uint64_t));
  return e;
}

// ---------------------------------------------------------------------------
// Recordings: serialize the subtree of every open output-node match.
// ---------------------------------------------------------------------------

void TwigMachine::RecordingsOnStart(const xml::StartElementEvent& event,
                                    bool output_pushed) {
  if (output_pushed && output_is_element_) {
    if (recordings_size_ == recordings_.size()) {
      recordings_.emplace_back();  // warmup growth only
    }
    Recording& r = recordings_[recordings_size_++];
    r.level = event.depth;
    r.buffer.clear();  // pooled buffer, capacity retained
    r.start_tag_open = false;
  }
  if (recordings_size_ == 0) return;
  // Build the tag once (pooled scratch), then append to every recording.
  tag_scratch_.clear();
  tag_scratch_.push_back('<');
  tag_scratch_.append(event.name);
  for (const xml::Attribute& a : event.attributes) {
    tag_scratch_.push_back(' ');
    tag_scratch_.append(a.name);
    tag_scratch_.append("=\"");
    xml::EscapeAttributeInto(a.value, &tag_scratch_);
    tag_scratch_.push_back('"');
  }
  for (size_t ri = 0; ri < recordings_size_; ++ri) {
    Recording& r = recordings_[ri];
    size_t before = r.buffer.size();
    if (r.start_tag_open) {
      r.buffer.push_back('>');
      r.start_tag_open = false;
    }
    r.buffer.append(tag_scratch_);
    r.start_tag_open = true;
    memory_.Add(r.buffer.size() - before);
  }
}

void TwigMachine::RecordingsOnText(std::string_view text) {
  if (recordings_size_ == 0) return;
  text_escape_scratch_.clear();
  xml::EscapeTextInto(text, &text_escape_scratch_);
  for (size_t ri = 0; ri < recordings_size_; ++ri) {
    Recording& r = recordings_[ri];
    size_t before = r.buffer.size();
    if (r.start_tag_open) {
      r.buffer.push_back('>');
      r.start_tag_open = false;
    }
    r.buffer.append(text_escape_scratch_);
    memory_.Add(r.buffer.size() - before);
  }
}

void TwigMachine::RecordingsOnEnd(std::string_view name, int depth) {
  if (recordings_size_ == 0) return;
  for (size_t ri = 0; ri < recordings_size_; ++ri) {
    Recording& r = recordings_[ri];
    size_t before = r.buffer.size();
    if (r.start_tag_open) {
      r.buffer.append("/>");
      r.start_tag_open = false;
    } else {
      r.buffer.append("</");
      r.buffer.append(name);
      r.buffer.push_back('>');
    }
    memory_.Add(r.buffer.size() - before);
  }
  Recording& last = recordings_[recordings_size_ - 1];
  if (last.level == depth) {
    memory_.Release(last.buffer.size());
    // Swap rather than move: the recording slot inherits the previous
    // completed fragment's capacity, so both buffers stay pooled.
    completed_fragment_.swap(last.buffer);
    has_completed_fragment_ = true;
    --recordings_size_;
  }
}

// ---------------------------------------------------------------------------
// Event processing.
// ---------------------------------------------------------------------------

Status TwigMachine::StartElement(const xml::StartElementEvent& event,
                                 Symbol symbol) {
  ++stats_.start_events;
  // The parser's sequence numbering is query-independent (one number for
  // the element, then one per attribute), so a machine that was skipped for
  // some events still agrees with every other machine on document order.
  assert(event.sequence != xml::kNoSequence);
  uint64_t seq = event.sequence;
  int level = event.depth;

  // Collect matching element machine nodes in id (preorder) order so parent
  // pushes land before child axis checks.
  match_scratch_.clear();
  if (const std::vector<int>* matches = FindElementMatches(symbol)) {
    match_scratch_ = *matches;
  }
  if (!element_wildcards_.empty()) {
    match_scratch_.insert(match_scratch_.end(), element_wildcards_.begin(),
                          element_wildcards_.end());
    std::sort(match_scratch_.begin(), match_scratch_.end());
  }

  bool output_pushed = false;
  for (int id : match_scratch_) {
    MachineNode& node = nodes_[id];
    if (AxisSatisfiable(node, level)) {
      PushEntry(node, level, seq);
      if (node.query->is_output) output_pushed = true;
    }
  }

  RecordingsOnStart(event, output_pushed);

  for (size_t ni = 0; ni < attribute_nodes_.size(); ++ni) {
    MachineNode& node = nodes_[attribute_nodes_[ni]];
    Symbol name_sym = attribute_node_symbols_[ni];
    for (size_t ai = 0; ai < event.attributes.size(); ++ai) {
      const xml::Attribute& attr = event.attributes[ai];
      // Symbol equality when both sides are resolved against our table;
      // string comparison otherwise (wildcard tests accept any name).
      if (name_sym != kNoSymbol &&
          (attr.symbol != kNoSymbol ? attr.symbol != name_sym
                                    : node.query->name != attr.name)) {
        continue;
      }
      MatchLeaf(node, level, xpath::NodeValue(attr.value), seq + 1 + ai);
    }
  }
  return CheckMemoryLimit();
}

void TwigMachine::MatchLeaf(MachineNode& node, int level,
                            const xpath::NodeValue& value, uint64_t seq) {
  const QueryNode* q = node.query;
  // First make sure the match can land somewhere; only then compare.
  if (node.parent_id < 0) {
    // A bare leaf. `//text()` and `//@id` (descendants of the document
    // root) match every text node or id attribute and emit at once;
    // `/text()` and `/@id` ask for children of the document node, which
    // well-formed XML does not have.
    if (!q->is_output ||
        (q->axis != Axis::kDescendant && !q->descendant_attribute)) {
      return;
    }
  } else if (!AxisSatisfiable(node, level)) {
    return;
  }
  // Value test: the groups whose bound literal matches. A leaf without one
  // matches for every group.
  uint64_t mask = full_mask_;
  if (param_slot_of_node_[q->id] >= 0) {
    mask = ParamMatchMask(q, value);
    if (mask == 0) return;
  }
  if (node.parent_id < 0) {
    DeliverResult(value.text(), seq, mask);
    return;
  }
  CandidateRef cand;
  if (q->is_output) cand.id = candidates_.Create(value.text(), seq);
  Propagate(node, level, mask, &cand, q->is_output ? 1 : 0);
  if (q->is_output) candidates_.Unref(cand.id);  // the creation reference
}

Status TwigMachine::TextNode(std::string_view text, int depth,
                             uint64_t sequence) {
  assert(sequence != xml::kNoSequence);
  // Charge the node against this machine's budget while it is processed,
  // so live state + text honors the configured ceiling.
  memory_.Add(text.size());
  Status status = CheckMemoryLimit();
  if (status.ok()) {
    ++stats_.text_events;
    RecordingsOnText(text);
    // A text node inside the element at `depth` sits one level below it,
    // exactly where an element child would.
    xpath::NodeValue value(text);
    for (int id : text_nodes_) {
      MatchLeaf(nodes_[id], depth + 1, value, sequence);
    }
    status = CheckMemoryLimit();
  }
  memory_.Release(text.size());
  return status;
}

Status TwigMachine::EndElement(std::string_view name, int depth) {
  ++stats_.end_events;
  RecordingsOnEnd(name, depth);

  // Pop in reverse preorder: child machine nodes bookkeep into parents
  // before any same-event parent state is examined.
  for (size_t i = nodes_.size(); i-- > 0;) {
    MachineNode& node = nodes_[i];
    TouchStack(node);
    if (node.stack_size == 0 ||
        node.stack[node.stack_size - 1].level != depth) {
      continue;
    }
    if (!node.query->IsElementNode()) continue;
    StackEntry& entry = PopEntry(node);
    // Satisfaction as a group mask: all-or-nothing for uniform nodes,
    // per-group for parametric nodes (a pop may qualify the subtree for
    // some subscriber groups and not others).
    uint64_t sat_mask = SatisfactionMask(node, entry);
    if (sat_mask == 0) {
      DropCandidates(entry);
      continue;
    }
    ++stats_.satisfied_pops;
    if (node.query->is_output) {
      // The recording for this element completed in RecordingsOnEnd. The
      // store copies the fragment into a pooled slot buffer, so the
      // completed-fragment buffer keeps its capacity for the next match.
      assert(has_completed_fragment_);
      CandidateId cand =
          candidates_.Create(completed_fragment_, entry.sequence);
      completed_fragment_.clear();
      has_completed_fragment_ = false;
      // Full mask at birth: qualification narrows via sat_mask on each hop.
      entry.candidates.push_back(CandidateRef{cand, ~0ull});
      memory_.Add(sizeof(CandidateRef));
    }
    if (node.parent_id < 0) {
      // Machine root: candidates are proven query solutions (for the
      // groups that survive their accumulated mask).
      EmitCandidates(entry, sat_mask);
    } else {
      Propagate(node, entry.level, sat_mask, entry.candidates.data(),
                entry.candidates.size());
      DropCandidates(entry);
    }
  }
  // A recording completed for an output entry that popped unsatisfied is
  // discarded here.
  if (has_completed_fragment_) {
    completed_fragment_.clear();
    has_completed_fragment_ = false;
  }
  return CheckMemoryLimit();
}

void TwigMachine::Propagate(const MachineNode& node, int level,
                            uint64_t mask, const CandidateRef* refs,
                            size_t ref_count) {
  const QueryNode* q = node.query;
  int parent_slot =
      parametric_[q->id]
          ? nodes_[node.parent_id].pchild_slot[q->index_in_parent]
          : -1;
  ForEachPropagationTarget(node, level, [&](StackEntry& target) {
    if (parent_slot >= 0) {
      target.pmasks[parent_slot] |= mask;
    } else {
      target.child_bits |= 1ull << q->index_in_parent;
    }
    ++stats_.bit_propagations;
    for (size_t i = 0; i < ref_count; ++i) {
      uint64_t ref_mask = refs[i].mask & mask;
      if (ref_mask == 0) continue;  // no group can still qualify this way
      target.candidates.push_back(CandidateRef{refs[i].id, ref_mask});
      candidates_.Ref(refs[i].id);
      ++stats_.candidate_transfers;
      memory_.Add(sizeof(CandidateRef));
    }
  });
}

void TwigMachine::EmitCandidates(StackEntry& entry, uint64_t sat_mask) {
  memory_.Release(entry.candidates.size() * sizeof(CandidateRef));
  for (const CandidateRef& ref : entry.candidates) {
    uint64_t newly = candidates_.MarkEmitted(ref.id, ref.mask & sat_mask);
    if (newly != 0) {
      DeliverResult(candidates_.fragment(ref.id), candidates_.sequence(ref.id),
                    newly);
    }
    candidates_.Unref(ref.id);
  }
  entry.candidates.clear();
}

void TwigMachine::DropCandidates(StackEntry& entry) {
  memory_.Release(entry.candidates.size() * sizeof(CandidateRef));
  for (const CandidateRef& ref : entry.candidates) {
    candidates_.Unref(ref.id);
  }
  entry.candidates.clear();
}

Status TwigMachine::EndDocument() {
  for (const MachineNode& node : nodes_) {
    // A stale stack (untouched this document) is logically empty.
    if (node.stack_gen == generation_ && node.stack_size != 0) {
      return Status::Internal(
          "TwigM invariant violation: nonempty stack at end of document");
    }
  }
  if (recordings_size_ != 0) {
    return Status::Internal(
        "TwigM invariant violation: open recording at end of document");
  }
  return Status::OK();
}

std::string TwigMachine::DebugString() const {
  std::string out;
  for (const MachineNode& node : nodes_) {
    const QueryNode* q = node.query;
    out += "node " + std::to_string(q->id) + " (";
    if (q->IsAttributeNode()) out += "@";
    if (q->test == xpath::NodeTestKind::kWildcard) {
      out += "*";
    } else if (q->IsTextNode()) {
      out += "text()";
    } else {
      out += q->name;
    }
    out += "): [";
    // Read-only view: a stale stack renders empty without being touched.
    size_t live = node.stack_gen == generation_ ? node.stack_size : 0;
    for (size_t i = 0; i < live; ++i) {
      const StackEntry& e = node.stack[i];
      if (i > 0) out += ", ";
      out += "{L" + std::to_string(e.level) +
             " bits=" + std::to_string(e.child_bits) +
             " cands=" + std::to_string(e.candidates.size()) + "}";
    }
    out += "]\n";
  }
  return out;
}

}  // namespace vitex::twigm
