// Sequenced: the independent-reference half of the engine equivalence tests.
//
// Single-query Engine runs and MultiQueryEngine subscriptions drive their
// machines through the same dispatcher, so comparing the two alone cannot
// catch a dispatch bug both share. The tests therefore also compare each
// streaming run with difftest::Oracle::RunDom — baseline::DomEvaluator's
// answer in the oracle's normal form, the sorted set of (document-order
// sequence number, serialized node) pairs (DESIGN.md §6). Sequenced puts a
// streaming run's results into that form.

#ifndef VITEX_TESTS_TWIGM_DOM_REFERENCE_H_
#define VITEX_TESTS_TWIGM_DOM_REFERENCE_H_

#include <algorithm>

#include "difftest/oracle.h"
#include "twigm/result.h"

namespace vitex::twigm {

inline difftest::ResultSet Sequenced(const VectorResultCollector& results) {
  difftest::ResultSet out;
  for (const auto& r : results.results()) {
    out.emplace_back(r.sequence, r.fragment);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vitex::twigm

#endif  // VITEX_TESTS_TWIGM_DOM_REFERENCE_H_
