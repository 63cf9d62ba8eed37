// TwigM: the streaming query processor of ViteX (paper §3.2).
//
// One machine node per query node, organized in the query's tree shape; each
// machine node owns a stack. A stack entry is the paper's triplet:
//
//     ⟨ level of the matching XML node,
//       match status of the node's children in the query tree (a bitset),
//       candidate query solutions ⟩
//
// * startElement(tag, level): for every machine node whose test matches
//   `tag` and whose incoming axis is satisfiable against the parent's stack
//   (child ⇒ an open entry at level-1; descendant ⇒ an open entry at a
//   strictly smaller level), push ⟨level, ∅, ∅⟩.
// * endElement(tag, level): pop every entry at `level`. If the popped
//   entry's satisfaction formula over its child-match bits holds, bookkeep
//   the match into the parent's entries — the level-1 entry for a child
//   edge, every open entry below for a descendant edge — and move the
//   entry's candidate solutions up with it. An unsatisfied pop discards its
//   candidate references.
// * a satisfied pop at the machine root proves its candidates are query
//   solutions; they are emitted immediately (lazy, incremental output).
// * a text or attribute leaf matches as an instant push-pop (MatchLeaf):
//   once the axis check finds a parent entry to record into, its value
//   test runs and the match is bookkept exactly like a satisfied pop. A
//   text node inside the element at depth d sits at level d+1; an
//   attribute at its owner element's level.
//
// The stacks encode the worst-case-exponential set of pattern matches in
// polynomial space: an XML node with k open ancestor matches per query node
// never multiplies them out. Work per event is O(|Q|·(|Q|+B)) in the worst
// case, giving the paper's O(|D|·|Q|·(|Q|+B)) total.

#ifndef VITEX_TWIGM_MACHINE_H_
#define VITEX_TWIGM_MACHINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "twigm/candidate_store.h"
#include "twigm/result.h"
#include "xml/sax_event.h"
#include "xpath/canonical.h"
#include "xpath/query.h"

namespace vitex::twigm {

/// Parameter bindings of a plan (DESIGN.md §7): the per-group comparison
/// literals a skeleton machine evaluates in place of its own query's
/// literals. Group g's literal for slot s is
/// `params[g * slot_count + s]` (group-major); slots are numbered in
/// preorder of the query's value-tested nodes, matching
/// xpath::CanonicalQuery::params. `group_count` is explicit because a
/// skeleton without value tests has zero-width rows. The engine's plan
/// instance owns the only copy and edits it (a group's row appended or
/// erased) only at document boundaries, while the machine is idle.
struct PlanBindings {
  size_t group_count = 0;
  size_t slot_count = 0;
  std::vector<xpath::Literal> params;

  const xpath::Literal& param(size_t group, size_t slot) const {
    return params[group * slot_count + slot];
  }
};

/// Reference to a shared candidate held by one stack entry. `mask` is the
/// set of subscriber groups for which this pattern match can still qualify
/// the candidate; it narrows (ANDs) with every partially-satisfied pop on
/// the way to the machine root. It is born all-ones.
struct CandidateRef {
  CandidateId id = 0;
  uint64_t mask = ~0ull;
};

/// One stack entry: the paper's ⟨level, child-match status, candidates⟩.
struct StackEntry {
  int level = 0;
  /// Bit i set ⇔ child i of this query node has a satisfied match in the
  /// subtree of this entry's XML node (final when the element closes).
  /// For *parametric* children (subtree contains a plan-parameterized
  /// comparison) the bit is unused; their per-group status lives in
  /// `pmasks`.
  uint64_t child_bits = 0;
  /// Document-order sequence number of the matching XML node.
  uint64_t sequence = 0;
  /// Per-group match masks of this node's parametric children, indexed by
  /// MachineNode::pchild_slot. Empty unless this node has parametric
  /// children.
  std::vector<uint64_t> pmasks;
  /// Candidate solutions whose qualification depends on this entry's match.
  std::vector<CandidateRef> candidates;
};

/// One machine node: a query node plus its stack.
///
/// The stack is *pooled and versioned* (DESIGN.md §12): `stack` is storage,
/// entries [0, stack_size) are the live ones, and slots above keep their
/// heap capacity (pmasks/candidates vectors) for reuse. A stack whose
/// `stack_gen` differs from the machine's current document generation
/// belongs to a previous document and is logically empty; it is invalidated
/// lazily on first touch (TwigMachine::TouchStack), which is what makes a
/// whole-machine reset O(1) instead of O(nodes).
struct MachineNode {
  const xpath::QueryNode* query = nullptr;
  int parent_id = -1;
  std::vector<StackEntry> stack;
  size_t stack_size = 0;
  uint64_t stack_gen = 0;
  /// pchild_slot[i] is the pmasks index of child i, or -1 for a uniform
  /// (non-parametric) child.
  std::vector<int> pchild_slot;
  int pchild_count = 0;
};

/// Counters for the machine's work (drive the complexity experiments). The
/// event counts are the events dispatched to this machine: the dispatcher
/// skips tags and text nodes no query node could use (DESIGN.md §4).
struct MachineStats {
  uint64_t start_events = 0;
  uint64_t end_events = 0;
  uint64_t text_events = 0;
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t satisfied_pops = 0;
  uint64_t bit_propagations = 0;
  uint64_t candidate_transfers = 0;
  uint64_t results_emitted = 0;
  /// Per-group literal comparisons: each value test of a leaf adds the
  /// plan's group count. A leaf runs its test only once its axis check
  /// found an open parent entry, so leaves outside any match cost zero.
  uint64_t param_evaluations = 0;
  /// Peak of the total number of stack entries across all machine nodes —
  /// the paper's "compact encoding" size (compare with the naive matcher's
  /// pattern-match count, experiment E7).
  uint64_t peak_stack_entries = 0;
};

/// The TwigM machine. Only MultiQueryEngine's dispatcher drives it: it
/// hands the machine the events it can use, with tag names resolved to
/// symbols, sequence numbers stamped by the parser and character data
/// coalesced into whole text nodes. Every running machine executes a plan
/// (DESIGN.md §7) — a lone query is a one-group plan — so its value tests
/// read the plan's per-group literals and its results go to the plan's
/// GroupResultSink with the qualifying group mask.
class TwigMachine {
 public:
  struct Options {
    /// Abort with ResourceExhausted when live engine memory exceeds this
    /// many bytes (0 = unlimited).
    size_t memory_limit_bytes = 0;
  };

  /// Builds the machine in one pass over the query (paper §3.1: one
  /// machine node per query node, linear in the query's size).
  /// MultiQueryEngine constructs one on a plan miss.
  /// @param query must outlive the machine. Only the QueryNode tree is
  ///        referenced after construction (name tests are interned into the
  ///        symbol table up front), so moving the Query *object* elsewhere
  ///        is safe; the nodes it owns stay put.
  /// @param symbols the table the names InternsName() selects are interned
  ///        into: the dispatching engine's table, whose ids the dispatcher
  ///        hands over with every tag. On a frozen table every such name
  ///        must already be present (Intern can then only look it up).
  TwigMachine(const xpath::Query* query, Options options,
              SymbolTable* symbols);

  /// True if the constructor interns `node.name`: every element and
  /// attribute name test except the '*' and '@*' wildcards (text() names
  /// nothing). A caller that constructs machines against a frozen table
  /// (StreamService) interns exactly these names before freezing it.
  static bool InternsName(const xpath::QueryNode& node) {
    return node.test == xpath::NodeTestKind::kName;
  }

  TwigMachine(const TwigMachine&) = delete;
  TwigMachine& operator=(const TwigMachine&) = delete;

  // --- Plan interface (MultiQueryEngine, DESIGN.md §7) -------------------
  /// Binds this machine to its plan: value comparisons on slot nodes
  /// evaluate `bindings`' per-group literals, and solutions are delivered
  /// to `sink` with the qualifying group mask. Both must be non-null and
  /// outlive the machine. The engine binds a machine once, when it
  /// creates the plan instance, and then edits `*bindings` only between
  /// documents (the machine re-reads group_count each StartDocument).
  /// Precondition: bindings->slot_count equals the query's value-tested
  /// node count and group_count <= 64 (checked).
  Status BindPlan(const PlanBindings* bindings, GroupResultSink* sink);

  /// True while a match of an element-valued output node is open and its
  /// subtree is being serialized: the machine must then observe *every*
  /// event, whatever its tag. Dispatchers broadcast to active recorders.
  bool recording_active() const { return recordings_size_ > 0; }
  /// True if the query's output node selects elements (only then can
  /// recording_active() ever become true).
  bool output_is_element() const { return output_is_element_; }

  // --- Introspection -------------------------------------------------------
  /// True if the query tests any element with '*' (dispatchers must
  /// broadcast every element event to this machine).
  bool has_element_wildcard() const { return !element_wildcards_.empty(); }
  /// True if the query selects text nodes anywhere.
  bool has_text_nodes() const { return !text_nodes_.empty(); }
  /// True if a text node is matched without an ancestor context ("//text()"):
  /// the machine must see every text node.
  bool has_bare_text() const { return has_bare_text_; }
  /// True if the query has a descendant-or-self or context-free attribute
  /// step ("//@id", "//a//@id"): the machine must see every element event
  /// that carries attributes.
  bool has_unanchored_attributes() const { return has_unanchored_attributes_; }
  /// True if the query's root step selects attributes ("//@id"): they match
  /// with no context entry open.
  bool has_bare_attributes() const { return has_bare_attributes_; }
  /// The machine's element match index: (tag symbol → query node ids),
  /// sorted by symbol. Dispatchers read the keys to build postings.
  const std::vector<std::pair<Symbol, std::vector<int>>>& element_index()
      const {
    return element_index_;
  }
  /// True when machine node `id` (an element_index() node id) is a query
  /// root: it matches against the virtual document-root entry, so it can
  /// push with every stack empty. Any non-root node needs a live parent
  /// stack entry first, which lets a dispatcher skip its symbols entirely
  /// while the machine has no live entries (DESIGN.md §12).
  bool node_is_root(int id) const {
    return nodes_[static_cast<size_t>(id)].parent_id < 0;
  }

  const Options& options() const { return options_; }
  const MachineStats& stats() const { return stats_; }
  const CandidateStats& candidate_stats() const { return candidates_.stats(); }
  const MemoryTracker& memory() const { return memory_; }
  /// Total stack entries currently live across all machine nodes.
  size_t live_stack_entries() const { return live_entries_; }
  /// Multi-line dump of every machine node's stack (debugging).
  std::string DebugString() const;

 private:
  // The event interface. Only the dispatcher drives a machine (see the
  // class comment); events it skips are ones no query node could use.
  friend class MultiQueryEngine;
  // Resets all run state (stacks, candidates, counters) for a new
  // document. O(1): bumps the document generation, which lazily
  // invalidates every node stack and candidate slot while all their heap
  // capacity stays pooled (DESIGN.md §12).
  void Reset();
  Status StartDocument();
  // `symbol` is the tag's id in symbols(), resolved once by the dispatcher
  // (kAbsentSymbol for a tag the table lacks). `event.sequence` must be
  // stamped.
  Status StartElement(const xml::StartElementEvent& event, Symbol symbol);
  Status EndElement(std::string_view name, int depth);
  // Delivers one whole, already-coalesced text node with its stamped
  // sequence number.
  Status TextNode(std::string_view text, int depth, uint64_t sequence);
  Status EndDocument();

  // A fragment being recorded for an open match of the output element node.
  struct Recording {
    int level = 0;
    std::string buffer;
    bool start_tag_open = false;
  };

  // Lazily invalidates `node`'s pooled stack on its first touch in the
  // current document (versioned memory, DESIGN.md §12). Every stack access
  // on the hot path goes through this.
  void TouchStack(MachineNode& node) {
    if (node.stack_gen != generation_) {
      node.stack_gen = generation_;
      node.stack_size = 0;
    }
  }

  // True if an entry of `node` may be pushed at `level` given the parent's
  // stack state; for a non-root text or attribute leaf, true if its match
  // at `level` has a parent entry to record into. Non-const: touches the
  // parent stack.
  bool AxisSatisfiable(const MachineNode& node, int level);

  // The element query nodes testing for `symbol`, or nullptr.
  const std::vector<int>* FindElementMatches(Symbol symbol) const;

  // Invokes fn(StackEntry&) on each parent-stack entry a satisfied match of
  // `node` at `level` must bookkeep into.
  template <typename Fn>
  void ForEachPropagationTarget(const MachineNode& node, int level, Fn fn);

  // Per-group satisfaction of `node`'s formula against an entry's uniform
  // bits + parametric-child masks.
  uint64_t EvaluateFormulaMask(const xpath::Formula& f,
                               const MachineNode& node,
                               const StackEntry& entry) const;
  // The groups whose bound literal is matched by `value` on slot node `q`.
  // Counts the comparisons in stats_.param_evaluations.
  uint64_t ParamMatchMask(const xpath::QueryNode* q,
                          const xpath::NodeValue& value);
  // Satisfaction of a popped entry as a group mask: all-or-nothing for
  // uniform nodes, per-group for parametric nodes.
  uint64_t SatisfactionMask(const MachineNode& node, const StackEntry& entry);
  // Emission fan-in: hands a solution and its newly qualified groups to the
  // plan's sink.
  void DeliverResult(std::string_view fragment, uint64_t sequence,
                     uint64_t group_mask);

  // A text or attribute leaf `node` matched a node of value `value` and
  // sequence `seq` at `level`. Checks that the match has somewhere to land
  // (a parent entry, or the output of a bare `//text()` / `//@a` query)
  // before the value test runs, then emits or propagates it.
  void MatchLeaf(MachineNode& node, int level, const xpath::NodeValue& value,
                 uint64_t seq);
  // Records a satisfied match of non-root `node` at `level` in the parent's
  // targets: the child bit, or `mask` in the parametric child's pmasks
  // slot, plus every candidate of `refs` narrowed to `mask`. The one
  // propagation step shared by satisfied pops and leaf matches.
  void Propagate(const MachineNode& node, int level, uint64_t mask,
                 const CandidateRef* refs, size_t ref_count);
  void EmitCandidates(StackEntry& entry, uint64_t sat_mask);
  void DropCandidates(StackEntry& entry);

  void PushEntry(MachineNode& node, int level, uint64_t sequence);
  // Pops the top entry and returns a reference to its (still pooled) slot.
  // Valid until the node's next push — which cannot happen during the
  // EndElement that popped it (pops only propagate into *parent* stacks).
  StackEntry& PopEntry(MachineNode& node);

  // Recording (output fragment capture).
  void RecordingsOnStart(const xml::StartElementEvent& event,
                         bool output_pushed);
  void RecordingsOnText(std::string_view text);
  // Appends the end tag to active recordings and, when the innermost
  // recording closes at `depth`, moves its fragment to completed_fragment_.
  void RecordingsOnEnd(std::string_view name, int depth);

  Status CheckMemoryLimit() const;

  Options options_;

  std::vector<MachineNode> nodes_;  // indexed by query node id
  // Match index: (tag symbol → query node ids in preorder), sorted by
  // symbol and binary-searched per event. Queries name a handful of tags,
  // so the search is a couple of integer compares inside one cache line —
  // and unlike a vector indexed by raw symbol id, memory stays O(own
  // names) when ids come from a large shared table (DESIGN.md §3).
  // Wildcard tests live on side lists.
  std::vector<std::pair<Symbol, std::vector<int>>> element_index_;
  std::vector<int> element_wildcards_;
  std::vector<int> attribute_nodes_;
  // Interned name of each attribute node in attribute_nodes_ (kNoSymbol for
  // '@*' wildcards).
  std::vector<Symbol> attribute_node_symbols_;
  std::vector<int> text_nodes_;
  bool output_is_element_ = false;
  bool has_bare_text_ = false;
  bool has_unanchored_attributes_ = false;
  bool has_bare_attributes_ = false;

  // Plan state, set by BindPlan.
  const PlanBindings* bindings_ = nullptr;
  GroupResultSink* group_sink_ = nullptr;
  // Bits [0, bindings_->group_count), refreshed each StartDocument (group
  // count may change between documents).
  uint64_t full_mask_ = 0;
  // Parameter slot of each query node (-1 for nodes without a value test);
  // slot order is preorder, matching xpath::Canonicalize.
  std::vector<int> param_slot_of_node_;
  size_t param_slot_count_ = 0;
  // parametric_[id]: the node's subtree contains a parameter slot, so its
  // satisfaction is per-group (its parent tracks it in pmasks).
  std::vector<uint8_t> parametric_;

  MemoryTracker memory_;
  CandidateStore candidates_;
  MachineStats stats_;
  size_t live_entries_ = 0;

  // Recordings are pooled like the stacks: entries [0, recordings_size_)
  // are live, slots above retain their buffer capacity.
  std::vector<Recording> recordings_;
  size_t recordings_size_ = 0;
  std::string completed_fragment_;
  bool has_completed_fragment_ = false;

  // Current document generation; every Reset() bumps it. Starts above the
  // nodes' default stack_gen of 0 so a fresh machine has only stale stacks.
  uint64_t generation_ = 1;

  std::vector<int> match_scratch_;
  // Pooled scratch buffers for the serialization path (tag assembly, text
  // escaping) — members instead of locals so their capacity survives across
  // events.
  std::string tag_scratch_;
  std::string text_escape_scratch_;
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_MACHINE_H_
