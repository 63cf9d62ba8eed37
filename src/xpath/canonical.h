// Query canonicalization for shared-plan compilation (DESIGN.md §7).
//
// Pub/sub workloads register thousands of structurally identical queries
// that differ only in comparison literals: `//quote[@symbol = 'ACME']/price`
// for every ticker. Canonicalize() projects a compiled Query onto its
// *skeleton* — axes, name tests, predicate formulas, comparison operators,
// output marking — and extracts the comparison literals as an ordered
// parameter vector. Two queries with equal skeletons can share one compiled
// TwigMachine whose per-event structural work is paid once; only the
// parameter comparisons are evaluated per subscriber group.
//
// The skeleton is rendered as an unambiguous byte string (the cache key)
// plus a 64-bit FNV-1a hash of it for bucket lookup. Equality is on the key
// string, so hash collisions cannot alias plans.
//
// Parameter slots are numbered in preorder of the value-tested query nodes,
// the same order TwigMachine derives from the query, so a parameter vector
// produced here binds positionally to any machine compiled from any query
// of the same skeleton.

#ifndef VITEX_XPATH_CANONICAL_H_
#define VITEX_XPATH_CANONICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xpath/query.h"

namespace vitex::xpath {

/// The canonical form of one compiled query.
struct CanonicalQuery {
  /// Unambiguous serialization of the skeleton (value literals excluded).
  std::string key;
  /// FNV-1a of `key`. Stable across Query moves/copies and across processes
  /// (no pointers are hashed).
  uint64_t hash = 0;
  /// Comparison literals in slot order (preorder of value-tested nodes).
  std::vector<Literal> params;
  /// Query node id carrying each slot (parallel to `params`).
  std::vector<int> slot_node_ids;
};

/// Projects `query` onto its skeleton. Deterministic: depends only on the
/// twig's structure, never on source spelling (`//a [ b ]` and `//a[b]`
/// canonicalize identically because both compile to the same twig).
CanonicalQuery Canonicalize(const Query& query);

/// FNV-1a, exposed so callers composing derived cache keys (e.g. skeleton +
/// engine options) hash them the same way.
uint64_t FnvHash64(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace vitex::xpath

#endif  // VITEX_XPATH_CANONICAL_H_
