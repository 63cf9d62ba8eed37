// MultiQueryEngine: evaluate many standing XPath queries over one XML
// stream in a single pass, dispatching each event only to the machines that
// can use it.
//
// The paper's motivating applications — stock tickers, sports feeds,
// personalized newspapers — are publish/subscribe systems: one stream, many
// subscriptions. ViteX's demo runs one TwigM; this engine parses once for
// all registered queries and routes events through a *dispatch index*
// (DESIGN.md §4) built on the pipeline's shared SymbolTable:
//
//   * per-symbol posting lists map a tag's interned id to the machines whose
//     queries name that tag — startElement touches only those machines, so
//     per-event work scales with the number of *interested* queries, not
//     registered ones;
//   * queries with '*' element tests fall back to broadcast (they can match
//     any tag), as do machines currently serializing an output fragment (a
//     recording must observe every event in the matched subtree) and
//     unanchored attribute steps like //@id (any element may carry them);
//   * character data is coalesced once, centrally, and delivered as whole
//     text nodes to machines that select text;
//   * document-order sequence numbers are stamped by the SAX parser, so
//     skipped events never desynchronize machines (the dedup of union
//     subscriptions depends on identical numbering across branches).
//
// On top of dispatch, the engine *hash-conses query plans* (DESIGN.md §7):
// each query is canonicalized to its structural skeleton (axes, name tests,
// predicate formulas, output marking — comparison literals lifted out as
// parameters), and subscriptions with equal skeletons share ONE TwigMachine.
// `//quote[@symbol = 'ACME']/price` for a thousand tickers runs one machine
// whose matches fan out through per-plan subscriber groups; only the
// parameterized comparisons are evaluated per group. Every subscription
// runs this way: a query whose skeleton no other subscription has is a
// one-group plan. Structural per-event work (dispatch, pushes, pops,
// formula evaluation) then scales with the number of distinct skeletons,
// not subscriptions. What remains per group is one literal comparison each
// time a value-tested leaf is handed a text node or a name-matching
// attribute — on every such visit, before the machine checks that the
// leaf's parent has an open entry, so leaves outside any match pay too.
//
// A union `p1 | p2 | ...` is one subscription whose branches are ordinary
// plan members: each branch joins (or creates) a plan instance exactly as
// a path subscription would, and every branch delivers into one
// per-subscription dedup handler that drops a node another branch already
// reported this document (keyed on the parser's sequence stamps). One
// QueryId stands for the whole union.
//
// Typical usage:
//
//   vitex::twigm::MultiQueryEngine engine;
//   vitex::twigm::VectorResultCollector news, stocks, digest;
//   engine.AddQuery("//article[topic = 'tech']//headline", &news);
//   engine.AddQuery("//quote[@symbol = 'ACME']/price", &stocks);
//   engine.AddQuery("//headline | //quote/price", &digest);  // a union
//   engine.Feed(chunk);          // one parse serves every subscription
//   ...
//   engine.Finish();
//
// Callers that compile queries themselves (StreamService, twigm::Engine)
// register the compiled branches instead of the text. Either way a machine
// is built, against this engine's table, only for a branch that no plan
// instance can take. Each query keeps its own ResultHandler; a query's
// machine accessors see the (possibly shared) plan machine executing it.

#ifndef VITEX_TWIGM_MULTI_QUERY_H_
#define VITEX_TWIGM_MULTI_QUERY_H_

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "twigm/machine.h"
#include "twigm/result.h"
#include "xml/event_log.h"
#include "xml/sax_parser.h"
#include "xpath/canonical.h"
#include "xpath/query.h"

namespace vitex::twigm {

/// Identifier of a registered query within one MultiQueryEngine.
using QueryId = size_t;

/// Counters for the dispatch index (drive the multi-query experiments and
/// the sublinearity assertions in tests). A "visit" is one machine receiving
/// one event; without the index every event would cost machine_count visits,
/// and plan sharing keeps machine_count at the number of distinct skeletons
/// rather than subscriptions.
struct DispatchStats {
  uint64_t start_events = 0;
  uint64_t end_events = 0;
  uint64_t text_nodes = 0;
  /// Machine visits for start/end element events (posting lists + fallbacks).
  uint64_t start_visits = 0;
  uint64_t end_visits = 0;
  /// Machine visits for coalesced text nodes.
  uint64_t text_visits = 0;
  /// Portion of the above visits caused by broadcast fallbacks (wildcard
  /// tests, active recordings, unanchored attributes).
  uint64_t broadcast_visits = 0;

  // Plan-sharing shape, snapshotted when the dispatch index is (re)built —
  // i.e. as of the last started document.
  /// Live subscriptions (what query_count() returns).
  uint64_t subscriptions = 0;
  /// Live machines = plan instances; every visit above hits one of these.
  uint64_t machines = 0;
  /// Distinct shared skeletons among the machines (each may chain several
  /// instances when it outgrows 64 parameter groups).
  uint64_t plans = 0;
  /// Branch registrations (one per path, one per union branch) that joined
  /// an existing plan instance vs created a new one (engine lifetime,
  /// survives ResetStream).
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
};

/// Invokes `fn(name, value, is_gauge)` for every DispatchStats field, in
/// declaration order. The one place that enumerates the struct, so the
/// service's /statsz exposition (DESIGN.md §10) stays in lockstep with it:
/// adding a field here is adding it to the payload. `is_gauge` marks the
/// point-in-time shape fields (subscriptions/machines/plans); the rest are
/// monotonic counters.
template <typename Fn>
void ForEachDispatchStat(const DispatchStats& stats, Fn&& fn) {
  fn("start_events", stats.start_events, false);
  fn("end_events", stats.end_events, false);
  fn("text_nodes", stats.text_nodes, false);
  fn("start_visits", stats.start_visits, false);
  fn("end_visits", stats.end_visits, false);
  fn("text_visits", stats.text_visits, false);
  fn("broadcast_visits", stats.broadcast_visits, false);
  fn("subscriptions", stats.subscriptions, true);
  fn("machines", stats.machines, true);
  fn("plans", stats.plans, true);
  fn("plan_hits", stats.plan_hits, false);
  fn("plan_misses", stats.plan_misses, false);
}

class MultiQueryEngine {
 public:
  explicit MultiQueryEngine(xml::SaxParserOptions sax_options = {});

  MultiQueryEngine(const MultiQueryEngine&) = delete;
  MultiQueryEngine& operator=(const MultiQueryEngine&) = delete;

  /// Registers a standing query: a path, or a union `p1 | p2 | ...` whose
  /// `results` sees each selected node once per document however many
  /// branches select it. Registrations must happen at a document
  /// boundary: before the first Feed(), after ResetStream(), or between
  /// RunEvents() documents. `results` must outlive the engine; may be null.
  Result<QueryId> AddQuery(std::string_view xpath, ResultHandler* results,
                           TwigMachine::Options options = {});

  /// The same from compiled queries, one per branch (what the text
  /// overload compiles `xpath` to): a one-element vector is a path
  /// subscription, a longer one a union. Each branch joins a plan instance
  /// with its skeleton and `options` if one has room; only on a plan miss
  /// is a machine built for it, interning its InternsName() names into
  /// symbols() — on a frozen table they must already be there.
  /// InvalidArgument for no branches or an empty (moved-from) query.
  Result<QueryId> AddQuery(std::vector<xpath::Query> branches,
                           ResultHandler* results,
                           TwigMachine::Options options = {});

  /// Deregisters a query at a document boundary (subscription lifecycle:
  /// DESIGN.md §5). Each branch leaves its plan's subscriber group;
  /// the machine itself is dropped only when its last subscriber goes (plan
  /// refcounting), and the dispatch postings follow at the next rebuild.
  /// The ResultHandler is never touched again. The id's slot is recycled by
  /// a *later* AddQuery, so a removed id must not be used again —
  /// ids are stable only for live queries. InvalidArgument mid-document or
  /// for an id that is not live.
  Status RemoveQuery(QueryId id);

  /// True if `id` names a currently registered query.
  bool has_query(QueryId id) const {
    return id < subs_.size() && subs_[id] != nullptr;
  }

  /// Number of live (registered, not removed) queries.
  size_t query_count() const { return subs_.size() - free_slots_.size(); }

  /// Number of live plan machines (one per distinct skeleton, plus chained
  /// instances past 64 groups; the whole point is that it can be far
  /// smaller than query_count()).
  size_t machine_count() const {
    return instances_.size() - free_instances_.size();
  }

  /// The shared symbol table all registered machines and the parser resolve
  /// names against: the table the caller put in sax_options.symbols, or an
  /// engine-owned one. Stable for the engine's lifetime.
  SymbolTable* symbols() { return symbols_; }

  /// Pushes the next chunk of the stream to the registered queries.
  Status Feed(std::string_view chunk);
  /// Signals end of stream.
  Status Finish();
  /// Convenience whole-document runs.
  Status RunString(std::string_view document);

  /// Runs one pre-parsed document: replays a recorded event stream into the
  /// registered queries, equivalent to RunString() on the original text but
  /// with zero parse cost (parse-once fan-out: StreamService records each
  /// document once and replays it into every shard). The log's symbol
  /// stamps must come from a parse against this engine's symbols() table
  /// (or be unstamped). Must be called at a document boundary
  /// (InvalidArgument while a Feed() stream is mid-document); on success
  /// the engine is back at a boundary — queries may be added/removed and
  /// another document run, with dispatch stats accumulating. On failure
  /// the document was abandoned midway: ResetStream() before reuse.
  Status RunEvents(const xml::EventLog& log);

  /// Prepares for a new document; registered queries stay (and more may be
  /// added before the next Feed()).
  void ResetStream();

  /// The compiled query of a live subscription (its own literals, even when
  /// the executing machine is shared; a union's first branch); `id` must
  /// satisfy has_query(id).
  const xpath::Query& query(QueryId id) const;
  /// The machine executing a live subscription (a union's first branch).
  /// It may serve other subscriptions too, so its stats aggregate across
  /// them.
  const TwigMachine& machine(QueryId id) const {
    return instances_[subs_[id]->branches.front().instance]->machine;
  }

  const DispatchStats& dispatch_stats() const { return dispatch_stats_; }

  /// Sum of live machine memory across all plan instances.
  size_t total_live_bytes() const;

 private:
  // One compiled plan instance: the unit the dispatcher routes events to.
  // An instance serves up to 64 parameter groups, each a distinct literal
  // vector with its own subscriber list; a skeleton with more groups chains
  // additional instances under the same cache key.
  struct PlanInstance;
  // A plan group member: branch `branch` of subscription `id`.
  struct Member {
    QueryId id;
    uint32_t branch;
    bool operator==(const Member& other) const {
      return id == other.id && branch == other.branch;
    }
  };
  // Fan-out sink: maps a machine's (solution, group mask) to the group's
  // subscriber handlers.
  class GroupFanout : public GroupResultSink {
   public:
    GroupFanout(MultiQueryEngine* owner, PlanInstance* plan)
        : owner_(owner), plan_(plan) {}
    void OnGroupResult(std::string_view fragment, uint64_t sequence,
                       uint64_t group_mask) override;

   private:
    MultiQueryEngine* owner_;
    PlanInstance* plan_;
  };

  struct PlanInstance {
    PlanInstance(MultiQueryEngine* owner, std::unique_ptr<xpath::Query> q,
                 TwigMachine::Options options, SymbolTable* symbols)
        : query(std::move(q)),
          machine(query.get(), options, symbols),
          sink(owner, this) {}

    // The compiled query of the branch that created the instance, and the
    // machine built over its nodes.
    std::unique_ptr<xpath::Query> query;
    TwigMachine machine;
    // Cache identity: skeleton key + machine options, FNV hash of the
    // same.
    std::string plan_key;
    uint64_t plan_hash = 0;
    // Parameter groups: group g's literals are row g of `bindings`, its
    // subscribers group_members[g] (so group_members.size() ==
    // bindings.group_count).
    PlanBindings bindings;
    std::vector<std::vector<Member>> group_members;
    size_t subscriber_count = 0;  // members across all groups
    GroupFanout sink;
  };

  // A union subscription's handler: forwards the first delivery of each
  // sequence stamp per document and drops the rest (another branch already
  // reported that node). The seen-set is a versioned open-addressing table
  // (DESIGN.md §12): each slot is stamped with the dispatcher's document
  // generation, so a new document finds the set empty without clearing
  // it, and the table keeps its capacity across documents.
  class UnionDedup : public ResultHandler {
   public:
    UnionDedup(ResultHandler* out, const uint64_t* doc_gen)
        : out_(out), doc_gen_(doc_gen) {}
    void OnResult(std::string_view fragment, uint64_t sequence) override;

   private:
    struct SeenSlot {
      uint64_t key = 0;
      uint64_t generation = 0;  // 0 never matches: documents start at 1
    };
    // Inserts `key`; false if it was already present this document.
    bool Insert(uint64_t key);
    void Grow();

    ResultHandler* out_;
    const uint64_t* doc_gen_;      // the dispatcher's document generation
    std::vector<SeenSlot> slots_;  // power-of-two size
    size_t size_ = 0;              // entries stamped generation_
    uint64_t generation_ = 0;
  };

  // One branch of a subscription (a path subscription has one): its plan
  // instance and parameter group there, and its own compiled query — null
  // when the Query moved into the instance the branch created (query() then
  // reads it from there).
  struct Branch {
    uint32_t instance = 0;
    uint32_t group = 0;
    // Kept: dropping it cost xmark_fanout setup_s +29% (12.2->15.7 ms, 4 vCPU).
    std::unique_ptr<xpath::Query> query;
  };

  struct Subscription {
    // Where every branch delivers: the caller's handler, or `dedup`.
    ResultHandler* handler = nullptr;
    std::unique_ptr<UnionDedup> dedup;  // unions only
    std::vector<Branch> branches;
  };

  // Routes each SAX event to the machines that can use it (see file
  // comment). Owns the central text coalescing buffer and the per-document
  // dispatch state; the index itself is (re)built at stream start.
  class Dispatcher : public xml::ContentHandler {
   public:
    explicit Dispatcher(MultiQueryEngine* owner) : owner_(owner) {}
    Status StartDocument() override;
    Status StartElement(const xml::StartElementEvent& event) override;
    Status EndElement(std::string_view name, int depth) override;
    Status Text(const xml::TextEvent& event) override;
    Status EndDocument() override;

    void BuildIndex();
    void ResetStream();
    /// Forces an index rebuild at the next document (query set changed).
    void InvalidateIndex() { index_built_ = false; }
    /// Bytes held in the central text buffer (counts toward live memory).
    size_t pending_text_bytes() const { return pending_text_.buffer.size(); }
    /// Bumped at every StartDocument; union dedup stamps its entries with it.
    const uint64_t* doc_generation() const { return &doc_gen_; }

   private:
    // Merges the pieces of one text node back into a whole: all pieces
    // delivered between two tag events are one node, at one depth, with
    // the first piece's sequence number (every piece of a node carries the
    // same stamp).
    struct TextCoalescer {
      std::string buffer;
      int depth = -1;
      uint64_t sequence = xml::kNoSequence;

      bool empty() const { return buffer.empty(); }

      void Append(const xml::TextEvent& event) {
        if (buffer.empty()) {
          buffer.assign(event.text);
          depth = event.depth;
          sequence = event.sequence;
        } else {
          // Depth cannot change without an intervening tag, which flushes.
          assert(event.depth == depth);
          buffer.append(event.text);
        }
      }

      void Clear() {
        buffer.clear();
        depth = -1;
        sequence = xml::kNoSequence;
      }
    };

    // Per-machine dispatch subscriptions, derived from the query shape.
    struct MachineInfo {
      bool broadcast_elements = false;  // '*' test: every tag event
      bool wants_text = false;          // any text() node
      bool bare_text = false;           // //text(): every text node
      bool wants_attributes = false;    // //@id, //a//@id: any tag w/ attrs
      bool bare_attributes = false;     // //@id: no context entry needed
      bool output_is_element = false;   // may open recordings
    };

    TwigMachine& machine(size_t i) { return owner_->instances_[i]->machine; }

    // Appends machine `i` to targets_ if not yet visited this event.
    void AddTarget(size_t i, bool broadcast);
    void CollectTagTargets(Symbol symbol, bool with_attributes);
    void SyncRecorder(size_t i);
    Status FlushTextNode();
    // Lazily starts machine `i`'s document on the first event dispatched
    // to it (see doc_gen_ below). Must run before any event delivery.
    Status TouchMachine(uint32_t i);

    MultiQueryEngine* owner_;
    bool index_built_ = false;

    // symbol -> machines whose queries name that tag. Sized to the largest
    // symbol any registered query interned (not the table's current size):
    // document-only symbols can never match, and not reading the table here
    // lets shards rebuild their index while another thread interns new
    // query vocabulary into a shared table (DESIGN.md §5).
    //
    // Split by reachability: postings_ holds *entry* symbols — tags that
    // match a query-root node, which can push with every stack empty — and
    // dependent_postings_ holds tags only named by non-root nodes, which
    // are strict no-ops until the machine has a live stack entry. Dependent
    // postings are dispatched only to machines already touched this
    // document, so a tag shared by many queries (`//itemN/val` × 1000: all
    // name `val`) costs per event only the machines whose root actually
    // opened, not every subscriber of the tag.
    std::vector<std::vector<uint32_t>> postings_;
    std::vector<std::vector<uint32_t>> dependent_postings_;
    std::vector<MachineInfo> info_;
    std::vector<uint32_t> element_broadcast_;  // wildcard machines
    std::vector<uint32_t> attribute_machines_;
    std::vector<uint32_t> text_machines_;

    // Per-event target collection with O(1) dedup.
    std::vector<uint32_t> targets_;
    std::vector<uint64_t> visit_stamp_;
    uint64_t event_id_ = 0;

    // Lazy per-document machine activation (DESIGN.md §12): StartDocument
    // bumps doc_gen_ instead of resetting every registered machine, and a
    // machine is reset when the document's first event actually reaches it
    // (TouchMachine). Untouched machines are left exactly as their last
    // document ended — stacks empty by the EndDocument invariant — so
    // per-document engine cost scales with the machines the document
    // touches, not with the number of registered plans. touched_machines_
    // names the machines started this document; only they are finished at
    // EndDocument.
    std::vector<uint64_t> machine_doc_gen_;
    std::vector<uint32_t> touched_machines_;
    uint64_t doc_gen_ = 0;

    // Machines with an open output recording: broadcast set, maintained
    // after every dispatched event (recordings open/close only then).
    std::vector<uint32_t> active_recorders_;
    std::vector<uint8_t> is_active_recorder_;

    // Tag symbols of currently open elements (EndElement events carry no
    // symbol; the matching start did).
    std::vector<Symbol> open_symbols_;

    // Central text coalescing: one buffer for the whole engine, bounded by
    // the strictest registered machine memory limit (as if every machine
    // charged the buffered text against its own budget).
    TextCoalescer pending_text_;
    size_t min_memory_limit_ = 0;  // 0 = no machine has a limit
  };

  // Registration internals. A subscription slot is allocated first, then
  // each branch joins or creates a plan instance; a branch that fails
  // removes the whole subscription again.
  QueryId NewSubscription(ResultHandler* handler, size_t branch_count);
  // Joins `query` to an instance of its plan, or — on a plan miss — builds
  // a machine over it as a new instance (the one place a TwigMachine is
  // constructed).
  Status AddBranch(QueryId id, xpath::Query query,
                   TwigMachine::Options options);
  void AttachBranch(QueryId id, uint32_t instance, uint32_t group,
                    std::unique_ptr<xpath::Query> query);
  void DetachBranch(QueryId id, uint32_t branch);
  QueryId AllocateSubscription(std::unique_ptr<Subscription> sub);
  uint32_t AllocateInstance(std::unique_ptr<PlanInstance> instance);
  void DestroyInstance(uint32_t index);

  // Slot i holds subscription id i; removed subscriptions leave a null
  // slot that the next registration recycles, so the vector is bounded by
  // the peak number of concurrent queries however many churn cycles run.
  std::vector<std::unique_ptr<Subscription>> subs_;
  std::vector<QueryId> free_slots_;
  // Plan instances, same recycling discipline; the dispatcher indexes
  // these, not subscriptions.
  std::vector<std::unique_ptr<PlanInstance>> instances_;
  std::vector<uint32_t> free_instances_;
  // Plan cache: hash of (skeleton key + options) -> instance slots with
  // that hash (key compared exactly on hit; chained instances on overflow).
  std::unordered_map<uint64_t, std::vector<uint32_t>> plan_index_;

  SymbolTable owned_symbols_;
  // The engine's table: caller-supplied via sax_options.symbols (must then
  // outlive the engine) or &owned_symbols_.
  SymbolTable* symbols_ = nullptr;
  Dispatcher dispatcher_;
  DispatchStats dispatch_stats_;
  uint64_t plan_hits_ = 0;
  uint64_t plan_misses_ = 0;
  std::unique_ptr<xml::SaxParser> sax_;
  bool started_ = false;
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_MULTI_QUERY_H_
