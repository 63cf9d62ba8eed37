#include "workloads.h"

#include <utility>

#include "baseline/dom_evaluator.h"
#include "stats.h"
#include "workload/protein_generator.h"
#include "workload/xmark_generator.h"
#include "xml/dom.h"
#include "xpath/query.h"

namespace ladder {
namespace {

// Offered rates are a third of each workload's saturated docs/s on the
// 4-vCPU reference box, so the open loop stays below capacity when the host
// halves per-core speed. Each window is the smallest whose docs/s came
// within 5% of the best in a sweep of windows 1-16 (DESIGN.md).
const std::vector<WorkloadSpec> kWorkloads = {
    // name, shards, window, offered_rate, corpus_docs
    {"protein", 2, 4, 350, 16},
    {"xmark_fanout", 2, 2, 75, 16},
};

uint64_t DocSeed(uint64_t seed, size_t doc) {
  return Mix64(seed * 0x100000001b3ull + doc);
}

// The 16 shared skeletons of bench_multi_query's SharedSkeletons family;
// subscription i uses skeleton i % 16 with literal i / 16.
std::string SkeletonQuery(int skeleton, int literal) {
  const std::string lit = std::to_string(literal % 97);
  const std::string qlit = "'" + lit + "'";
  const std::string next = std::to_string((literal + 1) % 97);
  const std::string category = "'category" + std::to_string(literal % 10) + "'";
  switch (skeleton % 16) {
    case 0: return "//item[quantity = " + lit + "]/name";
    case 1: return "//item[quantity = " + qlit + "]/@id";
    case 2: return "//open_auction[initial > " + lit + "]/current";
    case 3: return "//open_auction[initial >= " + lit + "]/@id";
    case 4:
      return "//person[profile/income > " + std::to_string(20000 + literal * 37) +
             "]/name";
    case 5:
      return "//person[profile/income <= " +
             std::to_string(30000 + literal * 41) + "]//emailaddress";
    case 6: return "//item[incategory/@category = " + category + "]/name";
    case 7: return "//bidder[increase = " + qlit + "]/increase/text()";
    case 8: return "//item[not(quantity = " + qlit + ")]/@id";
    case 9: return "//open_auction[bidder and initial < " + lit + "]/@id";
    case 10:
      return "//person[profile[interest] and profile/income > " + lit + "]/name";
    case 11:
      return "//item[quantity = " + lit + " or quantity = " + next + "]/name";
    case 12: return "//incategory[@category = " + category + "]";
    case 13: return "//open_auction[current > " + lit + "]/current/text()";
    case 14: return "//item[description and quantity >= " + lit + "]/name";
    default:
      return "//person[@id = 'person" + std::to_string(literal) + "']/name";
  }
}

vitex::Status GenerateCorpus(Workload* w) {
  const std::string name = w->spec.name;
  for (size_t d = 0; d < w->spec.corpus_docs; ++d) {
    const uint64_t s = DocSeed(w->seed, d);
    if (name == "protein") {
      vitex::workload::ProteinOptions options;
      options.entries = 100;
      options.seed = s;
      VITEX_ASSIGN_OR_RETURN(std::string doc,
                             vitex::workload::GenerateProteinString(options));
      w->docs.push_back(std::move(doc));
    } else {
      vitex::workload::XmarkOptions options;
      options.items_per_region = 10;
      options.seed = s;
      VITEX_ASSIGN_OR_RETURN(std::string doc,
                             vitex::workload::GenerateXmarkString(options));
      w->docs.push_back(std::move(doc));
    }
  }
  if (name == "protein") {
    w->queries = {"//ProteinEntry[reference]/@id", "//ProteinEntry/@id",
                  "//ProteinEntry[reference]//author",
                  "//ProteinEntry[summary/length > 300]/@id"};
  } else {
    for (int i = 0; i < 1024; ++i) {
      w->queries.push_back(SkeletonQuery(i % 16, i / 16));
    }
  }
  return vitex::Status::OK();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t Workload::corpus_bytes() const {
  uint64_t n = 0;
  for (const std::string& d : docs) n += d.size();
  return n;
}

vitex::Result<GroundTruth> ComputeGroundTruth(
    const std::vector<std::string>& docs,
    const std::vector<std::string>& queries) {
  std::vector<vitex::xpath::Query> compiled;
  compiled.reserve(queries.size());
  for (const std::string& q : queries) {
    VITEX_ASSIGN_OR_RETURN(vitex::xpath::Query c, vitex::xpath::ParseAndCompile(q));
    compiled.push_back(std::move(c));
  }
  GroundTruth truth;
  truth.subs = queries.size();
  truth.table.resize(docs.size() * queries.size());
  truth.subs_touched.assign(docs.size(), 0);
  truth.deliveries.assign(docs.size(), 0);
  for (size_t d = 0; d < docs.size(); ++d) {
    VITEX_ASSIGN_OR_RETURN(vitex::xml::Document dom,
                           vitex::xml::ParseIntoDom(docs[d]));
    vitex::baseline::DomEvaluator eval(&dom);
    for (size_t q = 0; q < compiled.size(); ++q) {
      Expect& e = truth.table[d * queries.size() + q];
      for (const auto& [seq, fragment] :
           eval.EvaluateToSequencedFragments(compiled[q])) {
        ++e.count;
        e.digest += DeliveryDigest(seq, fragment);
      }
      if (e.count > 0) ++truth.subs_touched[d];
      truth.deliveries[d] += e.count;
    }
  }
  return truth;
}

vitex::Result<Workload> BuildWorkload(const WorkloadSpec& spec, uint64_t seed) {
  Workload w;
  w.spec = spec;
  w.seed = seed;
  VITEX_RETURN_IF_ERROR(GenerateCorpus(&w));
  VITEX_ASSIGN_OR_RETURN(w.truth, ComputeGroundTruth(w.docs, w.queries));
  for (size_t d = 0; d < w.docs.size(); ++d) {
    if (w.truth.deliveries[d] == 0) {
      return vitex::Status::Internal("corpus document " + std::to_string(d) +
                                     " yields no delivery");
    }
  }
  return w;
}

}  // namespace ladder
