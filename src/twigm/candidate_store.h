// CandidateStore: shared, reference-counted storage for candidate solutions.
//
// A candidate solution (paper §3.2) is an XML node that matches the output
// query node but whose qualification depends on predicates that are still
// undetermined. One candidate may be reachable through several pattern
// matches — TwigM's compactness comes from *sharing* the candidate across
// all of them instead of duplicating it per match. The store keeps one slot
// per candidate; stack entries hold references. A candidate is emitted at
// most once (first qualifying pattern match wins) and is reclaimed when the
// last reference drops.
//
// Storage is *versioned* (DESIGN.md §12): every slot is stamped with the
// document generation it was created in, and Reset() is a single counter
// bump — slots, their fragment buffers, and the free list all keep their
// heap capacity across documents, so steady-state processing allocates
// nothing. A slot id from a previous generation is dead: the debug build
// asserts on any access through one, which is what surfaces cross-document
// dangling-id bugs that the old clear-everything Reset() silently masked.

#ifndef VITEX_TWIGM_CANDIDATE_STORE_H_
#define VITEX_TWIGM_CANDIDATE_STORE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.h"

namespace vitex::twigm {

/// Index of a candidate slot in the store. Ids are only meaningful within
/// the document (generation) that created them.
using CandidateId = uint32_t;

/// Aggregate counters for the candidate lifecycle (experiment E10).
struct CandidateStats {
  uint64_t created = 0;
  uint64_t emitted = 0;
  uint64_t pruned = 0;  ///< discarded: no pattern match qualified them
  uint64_t peak_live = 0;
  uint64_t peak_bytes = 0;
};

class CandidateStore {
 public:
  explicit CandidateStore(MemoryTracker* memory) : memory_(memory) {}

  /// Creates a candidate holding a copy of `fragment` with one initial
  /// reference. The copy lands in a pooled slot buffer, so after warmup
  /// this allocates only when the fragment outgrows every previously seen
  /// one in its slot.
  CandidateId Create(std::string_view fragment, uint64_t sequence) {
    CandidateId id;
    if (free_size_ > 0) {
      id = free_list_[--free_size_];
    } else if (slot_cursor_ < slots_.size()) {
      id = static_cast<CandidateId>(slot_cursor_++);
    } else {
      id = static_cast<CandidateId>(slots_.size());
      slots_.emplace_back();  // warmup growth only
      ++slot_cursor_;
    }
    Slot& s = slots_[id];
    s.generation = generation_;
    s.refs = 1;
    s.emitted_mask = 0;
    s.sequence = sequence;
    s.fragment.assign(fragment.data(), fragment.size());
    ++stats_.created;
    ++live_;
    live_bytes_ += s.fragment.size();
    memory_->Add(s.fragment.size() + sizeof(Slot));
    if (live_ > stats_.peak_live) stats_.peak_live = live_;
    if (live_bytes_ > stats_.peak_bytes) stats_.peak_bytes = live_bytes_;
    return id;
  }

  /// Adds a reference (the candidate is now also held by another entry).
  void Ref(CandidateId id) { ++slot(id).refs; }

  /// Drops a reference; recycles the slot when it was the last one. A
  /// candidate reclaimed without ever being emitted counts as pruned. The
  /// fragment buffer keeps its capacity for the slot's next occupant.
  void Unref(CandidateId id) {
    Slot& s = slot(id);
    if (--s.refs == 0) {
      if (s.emitted_mask == 0) ++stats_.pruned;
      --live_;
      live_bytes_ -= s.fragment.size();
      memory_->Release(s.fragment.size() + sizeof(Slot));
      if (free_size_ == free_list_.size()) {
        free_list_.push_back(id);  // warmup growth only
      } else {
        free_list_[free_size_] = id;
      }
      ++free_size_;
    }
  }

  /// The fragment text of a live candidate.
  const std::string& fragment(CandidateId id) const {
    return slot(id).fragment;
  }
  uint64_t sequence(CandidateId id) const { return slot(id).sequence; }

  /// Marks emission towards the plan groups in `mask` and returns the bits
  /// that had NOT been emitted before (the caller delivers only those).
  /// One candidate may qualify for different groups through different
  /// pattern matches; each group still sees it at most once.
  uint64_t MarkEmitted(CandidateId id, uint64_t mask) {
    Slot& s = slot(id);
    uint64_t newly = mask & ~s.emitted_mask;
    if (newly == 0) return 0;
    if (s.emitted_mask == 0) ++stats_.emitted;
    s.emitted_mask |= newly;
    return newly;
  }

  /// Number of live (referenced) candidates.
  uint64_t live() const { return live_; }
  uint64_t live_bytes() const { return live_bytes_; }
  const CandidateStats& stats() const { return stats_; }

  /// True iff `id` names a referenced candidate of the *current* document.
  /// Ids freed this document, or created in any earlier one, are not live —
  /// the regression surface for cross-document slot-id reuse bugs.
  bool is_live(CandidateId id) const {
    return id < slots_.size() && slots_[id].generation == generation_ &&
           slots_[id].refs > 0;
  }

  /// Current document generation (bumped by every Reset()).
  uint64_t generation() const { return generation_; }

  /// Slots ever allocated — the pooled high-water mark, stable across
  /// Reset() once the workload's peak has been seen.
  size_t pooled_slots() const { return slots_.size(); }

  /// O(1) per-document reset: bumping the generation makes every slot and
  /// free-list entry from the previous document stale without touching
  /// them; all capacity (slot vector, fragment buffers, free list) is
  /// retained for the next document.
  void Reset() {
    ++generation_;
    slot_cursor_ = 0;
    free_size_ = 0;
    stats_ = CandidateStats();
    live_ = 0;
    live_bytes_ = 0;
  }

 private:
  struct Slot {
    std::string fragment;
    uint64_t sequence = 0;
    /// Groups this candidate has been delivered to.
    uint64_t emitted_mask = 0;
    /// The document generation this slot was last created in; a slot whose
    /// stamp is stale holds only pooled capacity, never live state.
    uint64_t generation = 0;
    uint32_t refs = 0;
  };

  Slot& slot(CandidateId id) {
    assert(id < slots_.size() && slots_[id].generation == generation_ &&
           "stale CandidateId: crossed a document boundary");
    return slots_[id];
  }
  const Slot& slot(CandidateId id) const {
    assert(id < slots_.size() && slots_[id].generation == generation_ &&
           "stale CandidateId: crossed a document boundary");
    return slots_[id];
  }

  std::vector<Slot> slots_;
  /// Slots [0, slot_cursor_) have been handed out this generation.
  size_t slot_cursor_ = 0;
  /// free_list_[0, free_size_) are this generation's recycled ids; the tail
  /// is pooled capacity from earlier documents.
  std::vector<CandidateId> free_list_;
  size_t free_size_ = 0;
  /// Starts above every default-constructed Slot::generation so a fresh
  /// store has no accidentally-current slots.
  uint64_t generation_ = 1;
  CandidateStats stats_;
  uint64_t live_ = 0;
  uint64_t live_bytes_ = 0;
  MemoryTracker* memory_;
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_CANDIDATE_STORE_H_
