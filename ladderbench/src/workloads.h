// The benchmark workloads: their service shapes, seeded corpora and
// subscription sets, and the DOM ground truth every delivery is checked
// against. DESIGN.md in this directory records why each one exists.

#ifndef LADDERBENCH_WORKLOADS_H_
#define LADDERBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace ladder {

/// How deliveries leave the service. Every workload's end-to-end path is
/// kPush; the ladder's service rungs and the self-test use all three.
enum class Mode {
  kPush,  // in-process, one MatchSink per subscription
  kPull,  // in-process, one Drain thread polling every subscription
  kWire,  // net::Server + net::Client sessions over loopback
};

struct WorkloadSpec {
  const char* name;
  size_t shards;
  size_t window;        // closed loop: documents outstanding at once
  double offered_rate;  // open loop: documents per second
  size_t corpus_docs;   // distinct documents, published round-robin
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Ground truth of one subscription on one corpus document.
struct Expect {
  uint32_t count = 0;   // deliveries
  uint64_t digest = 0;  // wrapping sum of DeliveryDigest over them
};

/// Doc-major table of Expect, plus per-document aggregates.
struct GroundTruth {
  size_t subs = 0;
  std::vector<Expect> table;           // [doc * subs + sub]
  std::vector<uint32_t> subs_touched;  // per doc: subs with count > 0
  std::vector<uint64_t> deliveries;    // per doc: total deliveries

  const Expect& at(size_t doc, size_t sub) const {
    return table[doc * subs + sub];
  }
};

struct Workload {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::vector<std::string> docs;     // the distinct corpus
  std::vector<std::string> queries;  // one per subscription
  GroundTruth truth;

  uint64_t corpus_bytes() const;
};

/// Generates the corpus and subscriptions for `spec` from `seed`, then
/// evaluates every query on every corpus document with
/// baseline::DomEvaluator. Errors if a corpus document would produce no
/// delivery at all (its completion could not be observed).
vitex::Result<Workload> BuildWorkload(const WorkloadSpec& spec, uint64_t seed);

/// Ground truth for explicit documents and queries (used by the self-test).
vitex::Result<GroundTruth> ComputeGroundTruth(
    const std::vector<std::string>& docs,
    const std::vector<std::string>& queries);

}  // namespace ladder

#endif  // LADDERBENCH_WORKLOADS_H_
