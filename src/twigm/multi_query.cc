#include "twigm/multi_query.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace vitex::twigm {

MultiQueryEngine::MultiQueryEngine(xml::SaxParserOptions sax_options)
    : symbols_(sax_options.symbols != nullptr ? sax_options.symbols
                                              : &owned_symbols_),
      dispatcher_(this) {
  sax_options.symbols = symbols_;
  sax_ = std::make_unique<xml::SaxParser>(&dispatcher_, sax_options);
}

// ---------------------------------------------------------------------------
// Registration: hash-consed plan cache.
// ---------------------------------------------------------------------------

void MultiQueryEngine::GroupFanout::OnGroupResult(std::string_view fragment,
                                                  uint64_t sequence,
                                                  uint64_t group_mask) {
  while (group_mask != 0) {
    int g = __builtin_ctzll(group_mask);
    group_mask &= group_mask - 1;
    for (const Member& member :
         plan_->group_members[static_cast<size_t>(g)]) {
      ResultHandler* handler = owner_->subs_[member.id]->handler;
      if (handler != nullptr) handler->OnResult(fragment, sequence);
    }
  }
}

void MultiQueryEngine::UnionDedup::OnResult(std::string_view fragment,
                                            uint64_t sequence) {
  if (Insert(sequence) && out_ != nullptr) out_->OnResult(fragment, sequence);
}

namespace {

// splitmix64 finalizer: sequence keys are near-consecutive integers, so
// they need real mixing before masking into a power-of-two table.
uint64_t MixSequence(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool MultiQueryEngine::UnionDedup::Insert(uint64_t key) {
  if (generation_ != *doc_gen_) {
    // First delivery of a new document: every slot is now stale.
    generation_ = *doc_gen_;
    size_ = 0;
  }
  if (slots_.size() < 2 * (size_ + 1)) Grow();  // load factor <= 1/2
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(MixSequence(key)) & mask;
  while (true) {
    SeenSlot& slot = slots_[i];
    if (slot.generation != generation_) {  // empty or stale: claim it
      slot.key = key;
      slot.generation = generation_;
      ++size_;
      return true;
    }
    if (slot.key == key) return false;
    i = (i + 1) & mask;
  }
}

void MultiQueryEngine::UnionDedup::Grow() {
  std::vector<SeenSlot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, SeenSlot{});
  size_t mask = slots_.size() - 1;
  for (const SeenSlot& slot : old) {
    if (slot.generation != generation_) continue;  // stale: drop
    size_t i = static_cast<size_t>(MixSequence(slot.key)) & mask;
    while (slots_[i].generation == generation_) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

QueryId MultiQueryEngine::AllocateSubscription(
    std::unique_ptr<Subscription> sub) {
  QueryId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    subs_[id] = std::move(sub);
  } else {
    id = subs_.size();
    subs_.push_back(std::move(sub));
  }
  return id;
}

uint32_t MultiQueryEngine::AllocateInstance(
    std::unique_ptr<PlanInstance> instance) {
  uint32_t index;
  if (!free_instances_.empty()) {
    index = free_instances_.back();
    free_instances_.pop_back();
    instances_[index] = std::move(instance);
  } else {
    index = static_cast<uint32_t>(instances_.size());
    instances_.push_back(std::move(instance));
  }
  return index;
}

void MultiQueryEngine::DestroyInstance(uint32_t index) {
  auto it = plan_index_.find(instances_[index]->plan_hash);
  if (it != plan_index_.end()) {
    auto& bucket = it->second;
    bucket.erase(std::find(bucket.begin(), bucket.end(), index));
    if (bucket.empty()) plan_index_.erase(it);
  }
  instances_[index] = nullptr;
  free_instances_.push_back(index);
}

QueryId MultiQueryEngine::NewSubscription(ResultHandler* handler,
                                          size_t branch_count) {
  auto sub = std::make_unique<Subscription>();
  sub->handler = handler;
  if (branch_count > 1) {
    sub->dedup =
        std::make_unique<UnionDedup>(handler, dispatcher_.doc_generation());
    sub->handler = sub->dedup.get();
  }
  sub->branches.reserve(branch_count);
  return AllocateSubscription(std::move(sub));
}

void MultiQueryEngine::AttachBranch(QueryId id, uint32_t instance,
                                    uint32_t group,
                                    std::unique_ptr<xpath::Query> query) {
  Subscription& sub = *subs_[id];
  PlanInstance& plan = *instances_[instance];
  plan.group_members[group].push_back(
      Member{id, static_cast<uint32_t>(sub.branches.size())});
  ++plan.subscriber_count;
  sub.branches.push_back(Branch{instance, group, std::move(query)});
  dispatcher_.InvalidateIndex();
}

Status MultiQueryEngine::AddBranch(QueryId id, xpath::Query query,
                                   TwigMachine::Options options) {
  // Cache identity: the structural skeleton plus every machine option that
  // changes execution (subscriptions with different memory ceilings must
  // not share a machine).
  xpath::CanonicalQuery canon = xpath::Canonicalize(query);
  std::string opt_suffix =
      "|mem=" + std::to_string(options.memory_limit_bytes);
  std::string plan_key = canon.key + opt_suffix;
  uint64_t plan_hash = xpath::FnvHash64(opt_suffix, canon.hash);

  // Join an existing instance of this skeleton if one has room: the same
  // parameter row joins its group (pure fan-out member), a new row adds a
  // group (one more mask bit), and a skeleton that outgrew 64 groups
  // chains to the next instance in the bucket. The machine re-reads the
  // group count at its next StartDocument, so nothing is rebound.
  auto bucket_it = plan_index_.find(plan_hash);
  if (bucket_it != plan_index_.end()) {
    for (uint32_t index : bucket_it->second) {
      PlanInstance* instance = instances_[index].get();
      if (instance->plan_key != plan_key) continue;  // hash collision
      PlanBindings& bindings = instance->bindings;
      size_t group = 0;
      while (group < bindings.group_count &&
             !std::equal(canon.params.begin(), canon.params.end(),
                         bindings.params.begin() +
                             group * bindings.slot_count)) {
        ++group;
      }
      bool new_group = group == bindings.group_count;
      if (new_group && group >= 64) continue;  // instance full, try next
      if (new_group) {
        bindings.params.insert(bindings.params.end(), canon.params.begin(),
                               canon.params.end());
        ++bindings.group_count;
        instance->group_members.emplace_back();
      }
      AttachBranch(id, index, static_cast<uint32_t>(group),
                   std::make_unique<xpath::Query>(std::move(query)));
      ++plan_hits_;
      return Status::OK();
    }
  }

  // First member of this skeleton (or all instances full): the branch's
  // Query moves into a fresh plan instance and a machine is built over it.
  auto instance = std::make_unique<PlanInstance>(
      this, std::make_unique<xpath::Query>(std::move(query)), options,
      symbols_);
  instance->plan_key = std::move(plan_key);
  instance->plan_hash = plan_hash;
  instance->bindings.group_count = 1;
  instance->bindings.slot_count = canon.params.size();
  instance->bindings.params = std::move(canon.params);
  instance->group_members.emplace_back();
  VITEX_RETURN_IF_ERROR(
      instance->machine.BindPlan(&instance->bindings, &instance->sink));
  uint32_t index = AllocateInstance(std::move(instance));
  plan_index_[plan_hash].push_back(index);
  AttachBranch(id, index, 0, /*query=*/nullptr);
  ++plan_misses_;
  return Status::OK();
}

Result<QueryId> MultiQueryEngine::AddQuery(std::string_view xpath,
                                           ResultHandler* results,
                                           TwigMachine::Options options) {
  VITEX_ASSIGN_OR_RETURN(std::vector<xpath::Query> branches,
                         xpath::ParseAndCompileUnion(xpath));
  return AddQuery(std::move(branches), results, options);
}

Result<QueryId> MultiQueryEngine::AddQuery(std::vector<xpath::Query> branches,
                                           ResultHandler* results,
                                           TwigMachine::Options options) {
  if (started_) {
    return Status::InvalidArgument(
        "queries may be registered only at document boundaries");
  }
  if (branches.empty()) {
    return Status::InvalidArgument("a subscription needs at least one branch");
  }
  for (const xpath::Query& branch : branches) {
    if (branch.size() == 0) {
      return Status::InvalidArgument("empty compiled query");
    }
  }
  QueryId id = NewSubscription(results, branches.size());
  for (xpath::Query& branch : branches) {
    Status added = AddBranch(id, std::move(branch), options);
    if (!added.ok()) {
      (void)RemoveQuery(id);  // unregisters the branches added so far
      return added;
    }
  }
  return id;
}

void MultiQueryEngine::DetachBranch(QueryId id, uint32_t branch_index) {
  const Branch& branch = subs_[id]->branches[branch_index];
  PlanInstance* instance = instances_[branch.instance].get();
  auto& members = instance->group_members[branch.group];
  members.erase(
      std::find(members.begin(), members.end(), Member{id, branch_index}));
  --instance->subscriber_count;
  if (instance->subscriber_count == 0) {
    // Last member of this plan: the machine goes with it.
    DestroyInstance(branch.instance);
  } else if (members.empty()) {
    // The group's last member left: erase its literal row, which drops its
    // mask bit, and renumber the groups above it. Safe at a document
    // boundary — no masks are live.
    PlanBindings& bindings = instance->bindings;
    auto row = bindings.params.begin() + branch.group * bindings.slot_count;
    bindings.params.erase(row, row + bindings.slot_count);
    --bindings.group_count;
    instance->group_members.erase(instance->group_members.begin() +
                                  branch.group);
    for (size_t g = 0; g < instance->group_members.size(); ++g) {
      for (const Member& member : instance->group_members[g]) {
        subs_[member.id]->branches[member.branch].group =
            static_cast<uint32_t>(g);
      }
    }
  }
}

Status MultiQueryEngine::RemoveQuery(QueryId id) {
  if (started_) {
    return Status::InvalidArgument(
        "queries may be removed only at document boundaries");
  }
  if (!has_query(id)) {
    return Status::InvalidArgument("no live query with this id");
  }
  for (size_t b = 0; b < subs_[id]->branches.size(); ++b) {
    DetachBranch(id, static_cast<uint32_t>(b));
  }
  subs_[id] = nullptr;
  free_slots_.push_back(id);
  // The next document rebuilds the dispatch index, compacting any dropped
  // machine out of every posting list and interest set.
  dispatcher_.InvalidateIndex();
  return Status::OK();
}

const xpath::Query& MultiQueryEngine::query(QueryId id) const {
  const Branch& branch = subs_[id]->branches.front();
  if (branch.query != nullptr) return *branch.query;
  return *instances_[branch.instance]->query;
}

Status MultiQueryEngine::Feed(std::string_view chunk) {
  started_ = true;
  return sax_->Feed(chunk);
}

Status MultiQueryEngine::Finish() { return sax_->Finish(); }

Status MultiQueryEngine::RunString(std::string_view document) {
  VITEX_RETURN_IF_ERROR(Feed(document));
  return Finish();
}

Status MultiQueryEngine::RunEvents(const xml::EventLog& log) {
  if (started_) {
    return Status::InvalidArgument(
        "documents may be replayed only at document boundaries (mid-stream "
        "state is in flight; Finish or ResetStream first)");
  }
  started_ = true;
  Status status = log.Replay(&dispatcher_);
  if (!status.ok()) return status;  // poisoned mid-document: ResetStream
  // The document completed: back at a boundary, open for Add/RemoveQuery
  // and the next RunEvents.
  started_ = false;
  return status;
}

void MultiQueryEngine::ResetStream() {
  sax_->Reset();
  for (auto& instance : instances_) {
    if (instance != nullptr) instance->machine.Reset();
  }
  dispatcher_.ResetStream();
  dispatch_stats_ = DispatchStats();
  started_ = false;
}

size_t MultiQueryEngine::total_live_bytes() const {
  size_t total = dispatcher_.pending_text_bytes();
  for (const auto& instance : instances_) {
    if (instance != nullptr) {
      total += instance->machine.memory().live_bytes();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Dispatcher.
// ---------------------------------------------------------------------------

void MultiQueryEngine::Dispatcher::BuildIndex() {
  size_t n = owner_->instances_.size();
  // Size postings to the query vocabulary, not the table: the largest
  // symbol any live machine interned. Dispatch already treats out-of-range
  // symbols as "no interested query", which is exactly what a document-only
  // symbol is — and this keeps index rebuilds off the SymbolTable, so a
  // shared table may grow concurrently on another thread (DESIGN.md §5).
  size_t posting_size = 0;
  for (const auto& instance : owner_->instances_) {
    if (instance == nullptr) continue;
    for (const auto& entry : instance->machine.element_index()) {
      posting_size =
          std::max(posting_size, static_cast<size_t>(entry.first) + 1);
    }
  }
  postings_.assign(posting_size, {});
  dependent_postings_.assign(posting_size, {});
  info_.assign(n, MachineInfo());
  element_broadcast_.clear();
  attribute_machines_.clear();
  text_machines_.clear();
  visit_stamp_.assign(n, 0);
  event_id_ = 0;
  // Every machine starts the next document untouched (stamp 0 is stale:
  // doc_gen_ only ever advances past it).
  machine_doc_gen_.assign(n, 0);
  touched_machines_.clear();
  is_active_recorder_.assign(n, 0);
  // The flags were just zeroed wholesale (and n may have changed), so the
  // active list restarts too — no machine records across an index rebuild
  // (rebuilds only happen at document boundaries).
  active_recorders_.clear();
  min_memory_limit_ = 0;
  for (size_t i = 0; i < n; ++i) {
    if (owner_->instances_[i] == nullptr) continue;  // removed plan
    const TwigMachine& m = owner_->instances_[i]->machine;
    size_t limit = m.options().memory_limit_bytes;
    if (limit != 0 && (min_memory_limit_ == 0 || limit < min_memory_limit_)) {
      min_memory_limit_ = limit;
    }
    MachineInfo& mi = info_[i];
    mi.broadcast_elements = m.has_element_wildcard();
    mi.wants_text = m.has_text_nodes();
    mi.bare_text = m.has_bare_text();
    mi.wants_attributes = m.has_unanchored_attributes();
    mi.bare_attributes = m.has_bare_attributes();
    mi.output_is_element = m.output_is_element();
    for (const auto& entry : m.element_index()) {
      // Query names were interned at build time, before any document tag,
      // so they are always inside the table the postings were sized to.
      assert(entry.first < postings_.size());
      // A symbol goes to the entry postings if any node naming it is a
      // query root (pushable with empty stacks); symbols named only by
      // non-root nodes are no-ops until the machine has live entries, so
      // they dispatch through the touched-machine gate instead.
      bool is_entry = false;
      for (int id : entry.second) {
        if (m.node_is_root(id)) {
          is_entry = true;
          break;
        }
      }
      (is_entry ? postings_ : dependent_postings_)[entry.first].push_back(
          static_cast<uint32_t>(i));
    }
    if (mi.broadcast_elements) {
      element_broadcast_.push_back(static_cast<uint32_t>(i));
    }
    if (mi.wants_attributes) {
      attribute_machines_.push_back(static_cast<uint32_t>(i));
    }
    if (mi.wants_text) text_machines_.push_back(static_cast<uint32_t>(i));
  }
  // Plan-sharing shape as of this (re)build: how many subscriptions the
  // visit counters above are serving through how many machines/skeletons.
  DispatchStats& ds = owner_->dispatch_stats_;
  ds.subscriptions = owner_->query_count();
  ds.machines = owner_->machine_count();
  std::unordered_set<std::string_view> keys;
  for (const auto& instance : owner_->instances_) {
    if (instance != nullptr) keys.insert(instance->plan_key);
  }
  ds.plans = keys.size();
  ds.plan_hits = owner_->plan_hits_;
  ds.plan_misses = owner_->plan_misses_;
  index_built_ = true;
}

void MultiQueryEngine::Dispatcher::ResetStream() {
  // Machines may be registered before the next document; rebuild then.
  index_built_ = false;
  targets_.clear();
  event_id_ = 0;
  // The engine just reset every machine eagerly, so nothing is mid-document;
  // the next StartDocument re-touches machines as events reach them.
  touched_machines_.clear();
  // Unwind the recorder flags through the active list — O(active), not
  // O(machines) (the list names exactly the set flags).
  for (uint32_t i : active_recorders_) is_active_recorder_[i] = 0;
  active_recorders_.clear();
  open_symbols_.clear();
  pending_text_.Clear();
}

void MultiQueryEngine::Dispatcher::AddTarget(size_t i, bool broadcast) {
  if (visit_stamp_[i] == event_id_) return;
  visit_stamp_[i] = event_id_;
  targets_.push_back(static_cast<uint32_t>(i));
  if (broadcast) ++owner_->dispatch_stats_.broadcast_visits;
}

void MultiQueryEngine::Dispatcher::CollectTagTargets(Symbol symbol,
                                                     bool with_attributes) {
  targets_.clear();
  ++event_id_;
  if (symbol != kNoSymbol && symbol < postings_.size()) {
    for (uint32_t i : postings_[symbol]) AddTarget(i, /*broadcast=*/false);
    // Dependent symbols (named only by non-root query nodes) are strict
    // no-ops for a machine with no live stack entries; the touch stamp —
    // one contiguous load, no pointer chase into the machine — over-
    // approximates "has live entries" within a document.
    for (uint32_t i : dependent_postings_[symbol]) {
      if (machine_doc_gen_[i] == doc_gen_) AddTarget(i, /*broadcast=*/false);
    }
  }
  for (uint32_t i : element_broadcast_) AddTarget(i, /*broadcast=*/true);
  for (uint32_t i : active_recorders_) AddTarget(i, /*broadcast=*/true);
  if (with_attributes) {
    // Unanchored attribute steps can match attributes of any element, but
    // only while a context entry is open (or unconditionally for bare
    // steps like //@id). The touch stamp screens out untouched machines
    // (live count surely 0) before the live-entry load.
    for (uint32_t i : attribute_machines_) {
      if (info_[i].bare_attributes || (machine_doc_gen_[i] == doc_gen_ &&
                                       machine(i).live_stack_entries() > 0)) {
        AddTarget(i, /*broadcast=*/true);
      }
    }
  }
}

void MultiQueryEngine::Dispatcher::SyncRecorder(size_t i) {
  bool active = machine(i).recording_active();
  if (active == (is_active_recorder_[i] != 0)) return;
  if (active) {
    is_active_recorder_[i] = 1;
    active_recorders_.push_back(static_cast<uint32_t>(i));
  } else {
    is_active_recorder_[i] = 0;
    active_recorders_.erase(
        std::find(active_recorders_.begin(), active_recorders_.end(),
                  static_cast<uint32_t>(i)));
  }
}

Status MultiQueryEngine::Dispatcher::FlushTextNode() {
  if (pending_text_.empty()) return Status::OK();
  targets_.clear();
  ++event_id_;
  for (uint32_t i : text_machines_) {
    if (info_[i].bare_text || (machine_doc_gen_[i] == doc_gen_ &&
                               machine(i).live_stack_entries() > 0)) {
      AddTarget(i, /*broadcast=*/false);
    }
  }
  for (uint32_t i : active_recorders_) AddTarget(i, /*broadcast=*/true);
  ++owner_->dispatch_stats_.text_nodes;
  owner_->dispatch_stats_.text_visits += targets_.size();
  Status status = Status::OK();
  for (uint32_t i : targets_) {
    status = TouchMachine(i);
    if (!status.ok()) break;
    status = machine(i).TextNode(pending_text_.buffer, pending_text_.depth,
                                 pending_text_.sequence);
    if (!status.ok()) break;
  }
  pending_text_.Clear();
  return status;
}

Status MultiQueryEngine::Dispatcher::StartDocument() {
  if (!index_built_) BuildIndex();
  // Per-document dispatch state: clearing here (not only in ResetStream)
  // lets RunEvents chain documents without an explicit stream reset. The
  // recorder flags unwind through the active list — O(active recorders),
  // not O(machines) (the list names exactly the set flags).
  open_symbols_.clear();
  for (uint32_t i : active_recorders_) is_active_recorder_[i] = 0;
  active_recorders_.clear();
  pending_text_.Clear();
  // Machines are NOT reset here: bumping doc_gen_ makes every machine's
  // touch stamp stale, and TouchMachine() resets each one on the first
  // event dispatched to it. A machine no event reaches stays exactly as
  // its last document left it — stacks empty (EndDocument invariant), no
  // recording open — so skipping it is unobservable, and the per-document
  // floor is O(touched machines) instead of O(registered plans)
  // (DESIGN.md §12).
  ++doc_gen_;
  touched_machines_.clear();
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::TouchMachine(uint32_t i) {
  if (machine_doc_gen_[i] == doc_gen_) return Status::OK();
  machine_doc_gen_[i] = doc_gen_;
  touched_machines_.push_back(i);
  return machine(i).StartDocument();
}

Status MultiQueryEngine::Dispatcher::StartElement(
    const xml::StartElementEvent& event) {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  // The engine's own parser always stamps (symbol or kAbsentSymbol).
  // Unstamped events only arrive from replayed logs recorded without our
  // table; resolve them here, once for dispatch and every machine, so
  // replay matches the parse path. (Stamped replay — the StreamService
  // path — never touches the table.)
  Symbol symbol = event.symbol;
  if (symbol == kNoSymbol) symbol = owner_->symbols_->Lookup(event.name);
  open_symbols_.push_back(symbol);
  CollectTagTargets(symbol, !event.attributes.empty());
  ++owner_->dispatch_stats_.start_events;
  owner_->dispatch_stats_.start_visits += targets_.size();
  for (uint32_t i : targets_) {
    VITEX_RETURN_IF_ERROR(TouchMachine(i));
    VITEX_RETURN_IF_ERROR(machine(i).StartElement(event, symbol));
    if (info_[i].output_is_element) SyncRecorder(i);
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::EndElement(std::string_view name,
                                                int depth) {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  assert(!open_symbols_.empty());
  Symbol symbol = open_symbols_.back();
  open_symbols_.pop_back();
  CollectTagTargets(symbol, /*with_attributes=*/false);
  ++owner_->dispatch_stats_.end_events;
  owner_->dispatch_stats_.end_visits += targets_.size();
  for (uint32_t i : targets_) {
    VITEX_RETURN_IF_ERROR(TouchMachine(i));
    VITEX_RETURN_IF_ERROR(machine(i).EndElement(name, depth));
    if (info_[i].output_is_element) SyncRecorder(i);
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::Text(const xml::TextEvent& event) {
  // No query selects text and no recording is open: nothing can ever
  // consume this node, so don't even copy it. Both sets change only at tag
  // events, where the buffer is flushed first, so skipping here is sound.
  if (text_machines_.empty() && active_recorders_.empty()) {
    return Status::OK();
  }
  // Central coalescing: pieces merge here once, and the node is dispatched
  // whole at the next tag boundary. Long runs arrive in bounded pieces, so
  // the buffer must honor the configured memory ceiling.
  pending_text_.Append(event);
  if (min_memory_limit_ != 0 &&
      pending_text_.buffer.size() > min_memory_limit_) {
    return Status::ResourceExhausted(
        "buffered text exceeds the configured machine memory limit");
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::EndDocument() {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  // Only machines the document actually reached have per-document state to
  // finish (buffered text, the empty-stack invariant check); untouched
  // machines were already verified clean by the last document that used
  // them.
  for (uint32_t i : touched_machines_) {
    VITEX_RETURN_IF_ERROR(machine(i).EndDocument());
  }
  return Status::OK();
}

}  // namespace vitex::twigm
