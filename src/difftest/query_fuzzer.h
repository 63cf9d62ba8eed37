// QueryFuzzer: seeded random XPath generator for the differential oracle.
//
// Draws queries from a configurable tag/attribute/value alphabet so they
// collide with a workload's documents often enough that cross-checking
// exercises real matching (not just empty result sets): child/descendant
// mixes, '*' tests, attribute steps (child and descendant-or-self forms),
// text() steps, and nested [ ] predicates combining and/or/not() with value
// comparisons on elements, attributes, text and '.'. Every generated query
// parses and compiles inside the ViteX fragment.
//
// Unlike workload::GenerateRandomQuery (fixed t0..tN alphabet, a narrower
// shape grammar), the fuzzer targets the real workload vocabularies —
// ProteinAlphabet()/BookAlphabet()/XmarkAlphabet()/RecursiveAlphabet() ship
// the tag sets of the corresponding generators — and leans harder on the
// constructs where streaming bugs historically hide: recursive descendant
// chains, predicates nested in predicates, negation over value tests.

#ifndef VITEX_DIFFTEST_QUERY_FUZZER_H_
#define VITEX_DIFFTEST_QUERY_FUZZER_H_

#include <string>
#include <vector>

#include "common/random.h"

namespace vitex::difftest {

struct QueryFuzzerOptions {
  /// Element-name alphabet (never empty; Validate() enforces).
  std::vector<std::string> tags;
  /// Attribute-name alphabet; empty disables attribute steps.
  std::vector<std::string> attributes;
  /// Literal vocabulary for value comparisons. Numeric spellings are
  /// sometimes emitted unquoted (numeric literals), sometimes quoted
  /// (string literals), so both comparison forms are fuzzed.
  std::vector<std::string> values;

  int max_main_steps = 4;
  int max_predicate_depth = 2;
  /// Steps may carry two predicates back to back: a[p][q].
  double second_predicate_probability = 0.15;
  double descendant_probability = 0.5;
  double wildcard_probability = 0.1;
  double predicate_probability = 0.55;
  double and_probability = 0.15;
  double or_probability = 0.15;
  double not_probability = 0.12;
  double value_predicate_probability = 0.35;
  /// Predicate paths ending in @attr / text(); `[. = 'v']` self comparisons.
  double attribute_step_probability = 0.2;
  double text_step_probability = 0.15;
  double self_compare_probability = 0.05;
  /// Query output node: @attr / text() suffix probabilities.
  double attribute_output_probability = 0.12;
  double text_output_probability = 0.08;

  /// SharedSkeletonBatch: probability that the batch template marks one
  /// name test for per-variant substitution too (tags drawn from the
  /// alphabet), so a batch mixes literal-only siblings (one shared plan)
  /// with tag siblings (neighboring plans in the cache).
  double tag_variant_probability = 0.35;
};

/// Alphabets matching the workload generators (see src/workload/).
QueryFuzzerOptions ProteinAlphabet();
QueryFuzzerOptions BookAlphabet();
QueryFuzzerOptions XmarkAlphabet();
QueryFuzzerOptions RecursiveAlphabet();
/// Matches workload::RandomDocOptions with the given alphabet size.
QueryFuzzerOptions RandomDocAlphabet(int alphabet_size = 4,
                                     int value_vocabulary = 5);

class QueryFuzzer {
 public:
  explicit QueryFuzzer(QueryFuzzerOptions options);

  /// Returns a random query; the result always parses and compiles (the
  /// generator stays inside the fragment and retries defensively).
  std::string Next(Random* rng);

  /// SharedSkeletonBatch mode: `count` queries instantiated from ONE random
  /// query template, differing only in comparison literals (and, with
  /// options().tag_variant_probability, one name test) drawn from the
  /// workload alphabet — the shape a pub/sub subscriber population has
  /// (`//quote[@symbol = 'X']/price` for every ticker X). Feeding a batch
  /// to Oracle::CheckBatch makes the multi-query and service routes
  /// hash-cons the members into one (or a few sibling) plan machines while
  /// the DOM and twigm routes evaluate each member on its own, which is
  /// exactly the differential the plan cache must survive. Every member
  /// parses and compiles.
  std::vector<std::string> NextSharedBatch(int count, Random* rng);

  const QueryFuzzerOptions& options() const { return options_; }

 private:
  std::string Generate(Random* rng);
  std::string Predicate(int depth, Random* rng);
  std::string RelativePath(int depth, Random* rng);
  std::string CompareSuffix(Random* rng);
  std::string RandomTag(Random* rng);
  std::string RandomAttribute(Random* rng);
  // SharedSkeletonBatch internals: templates carry kLiteralMarker /
  // kTagMarker bytes where variants substitute fresh draws.
  std::string Instantiate(const std::string& tmpl, Random* rng);

  QueryFuzzerOptions options_;
  // True while Generate() emits a batch template (markers instead of
  // literals; at most one tag marker).
  bool template_mode_ = false;
  bool want_tag_marker_ = false;
  bool tag_marker_emitted_ = false;
};

}  // namespace vitex::difftest

#endif  // VITEX_DIFFTEST_QUERY_FUZZER_H_
