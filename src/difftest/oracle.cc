#include "difftest/oracle.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "baseline/dom_evaluator.h"
#include "service/stream_service.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "twigm/result.h"
#include "xml/dom.h"
#include "xml/escape.h"
#include "xpath/query.h"

namespace vitex::difftest {

namespace {

using xml::DomNode;

ResultSet Normalize(const std::vector<twigm::VectorResultCollector::Entry>&
                        entries) {
  ResultSet out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.emplace_back(e.sequence, e.fragment);
  std::sort(out.begin(), out.end());
  return out;
}

// Each entry repeated `copies` times (adjacent, so a sorted input stays
// sorted): the expected answer when the service route publishes the same
// document on `copies` streams.
ResultSet Replicate(const ResultSet& set, size_t copies) {
  if (copies <= 1) return set;
  ResultSet out;
  out.reserve(set.size() * copies);
  for (const auto& e : set) {
    for (size_t c = 0; c < copies; ++c) out.push_back(e);
  }
  return out;
}

std::string Truncate(const std::string& s, size_t limit = 160) {
  if (s.size() <= limit) return s;
  return s.substr(0, limit) + "... (" + std::to_string(s.size()) + " bytes)";
}

// Human-readable first difference between two normalized sets.
std::string FirstDifference(std::string_view name_a, const ResultSet& a,
                            std::string_view name_b, const ResultSet& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return "entry #" + std::to_string(i) + ": " + std::string(name_a) +
             " has (seq " + std::to_string(a[i].first) + ", \"" +
             Truncate(a[i].second) + "\"), " + std::string(name_b) +
             " has (seq " + std::to_string(b[i].first) + ", \"" +
             Truncate(b[i].second) + "\")";
    }
  }
  std::string out = std::string(name_a) + " returned " +
                    std::to_string(a.size()) + " results, " +
                    std::string(name_b) + " returned " +
                    std::to_string(b.size());
  const ResultSet& longer = a.size() > b.size() ? a : b;
  std::string_view longer_name = a.size() > b.size() ? name_a : name_b;
  if (longer.size() > n) {
    out += "; first extra in " + std::string(longer_name) + ": (seq " +
           std::to_string(longer[n].first) + ", \"" +
           Truncate(longer[n].second) + "\")";
  }
  return out;
}

// Serializes the document while skipping one node (element subtree,
// attribute, or text node) — the single reduction step of the minimizer.
void SerializeSkippingRec(const DomNode* node, const DomNode* skip,
                          std::string* out) {
  if (node == skip) return;
  switch (node->kind) {
    case xml::NodeKind::kText:
      out->append(xml::EscapeText(node->value));
      return;
    case xml::NodeKind::kAttribute:
      return;  // attributes are emitted by their element below
    case xml::NodeKind::kDocument:
      for (const DomNode* c = node->first_child; c != nullptr;
           c = c->next_sibling) {
        SerializeSkippingRec(c, skip, out);
      }
      return;
    case xml::NodeKind::kElement:
      break;
  }
  out->push_back('<');
  out->append(node->name);
  for (const DomNode* a = node->first_attribute; a != nullptr;
       a = a->next_sibling) {
    if (a == skip) continue;
    out->push_back(' ');
    out->append(a->name);
    out->append("=\"");
    out->append(xml::EscapeAttribute(a->value));
    out->push_back('"');
  }
  if (node->first_child == nullptr ||
      (node->first_child == skip && node->first_child->next_sibling == nullptr)) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  for (const DomNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    SerializeSkippingRec(c, skip, out);
  }
  out->append("</");
  out->append(node->name);
  out->push_back('>');
}

size_t SubtreeSize(const DomNode* node,
                   std::unordered_map<const DomNode*, size_t>* memo) {
  size_t total = 1;
  for (const DomNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    total += SubtreeSize(c, memo);
  }
  (*memo)[node] = total;
  return total;
}

// Deletable nodes of the document, largest subtree first, so the greedy
// minimizer takes big cuts before nibbling.
std::vector<const DomNode*> DeletionCandidates(const xml::Document& doc) {
  std::unordered_map<const DomNode*, size_t> sizes;
  SubtreeSize(doc.document_node(), &sizes);
  std::vector<const DomNode*> out;
  // Preorder walk collecting everything but the document node and the root
  // element (a document with no root is not well-formed).
  std::vector<const DomNode*> stack{doc.document_node()};
  while (!stack.empty()) {
    const DomNode* n = stack.back();
    stack.pop_back();
    if (n->kind != xml::NodeKind::kDocument && n != doc.root()) {
      out.push_back(n);
    }
    for (const DomNode* a = n->first_attribute; a != nullptr;
         a = a->next_sibling) {
      out.push_back(a);
    }
    for (const DomNode* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [&sizes](const DomNode* a, const DomNode* b) {
                     return sizes[a] > sizes[b];
                   });
  return out;
}

}  // namespace

std::string_view RouteName(Route route) {
  switch (route) {
    case Route::kDom:
      return "dom-baseline";
    case Route::kTwigM:
      return "twigm";
    case Route::kMultiQuery:
      return "multi-query";
    case Route::kService:
      return "service";
  }
  return "?";
}

std::string Divergence::ToString() const {
  std::string out = "DIVERGENCE between " + std::string(RouteName(route_a)) +
                    " and " + std::string(RouteName(route_b)) + "\n";
  out += "query: " + query + "\n";
  for (const std::string& d : decoys) out += "decoy: " + d + "\n";
  out += "shards: " + std::to_string(shard_count) + "\n";
  out += "streams: " + std::to_string(stream_count) + "\n";
  out += "detail: " + detail + "\n";
  out += "document (" + std::to_string(document.size()) + " bytes";
  if (original_document_bytes > document.size()) {
    out += ", minimized from " + std::to_string(original_document_bytes);
  }
  out += "):\n" + document + "\n";
  return out;
}

Oracle::Oracle(OracleOptions options) : options_(options) {}

Result<ResultSet> Oracle::RunDom(const std::string& query,
                                 const std::string& document) {
  VITEX_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseIntoDom(document));
  VITEX_ASSIGN_OR_RETURN(xpath::Query compiled, xpath::ParseAndCompile(query));
  baseline::DomEvaluator eval(&doc);
  ResultSet out = eval.EvaluateToSequencedFragments(compiled);
  std::sort(out.begin(), out.end());
  return out;
}

Result<ResultSet> Oracle::RunTwigM(const std::string& query,
                                   const std::string& document) const {
  twigm::VectorResultCollector results;
  VITEX_ASSIGN_OR_RETURN(twigm::Engine engine,
                         twigm::Engine::Create(query, &results));
  if (options_.feed_chunk_bytes == 0) {
    VITEX_RETURN_IF_ERROR(engine.RunString(document));
  } else {
    std::string_view rest = document;
    while (!rest.empty()) {
      size_t n = std::min(options_.feed_chunk_bytes, rest.size());
      VITEX_RETURN_IF_ERROR(engine.Feed(rest.substr(0, n)));
      rest.remove_prefix(n);
    }
    VITEX_RETURN_IF_ERROR(engine.Finish());
  }
  return Normalize(results.results());
}

Result<std::vector<ResultSet>> Oracle::RunMultiQuery(
    const std::vector<std::string>& queries,
    const std::vector<std::string>& decoys, const std::string& document) {
  std::vector<twigm::VectorResultCollector> collectors(queries.size());
  twigm::MultiQueryEngine engine;
  for (size_t i = 0; i < queries.size(); ++i) {
    VITEX_RETURN_IF_ERROR(engine.AddQuery(queries[i], &collectors[i]).status());
  }
  for (const std::string& d : decoys) {
    VITEX_RETURN_IF_ERROR(engine.AddQuery(d, nullptr).status());
  }
  VITEX_RETURN_IF_ERROR(engine.RunString(document));
  std::vector<ResultSet> out;
  out.reserve(queries.size());
  for (const auto& c : collectors) out.push_back(Normalize(c.results()));
  return out;
}

Result<std::vector<ResultSet>> Oracle::RunService(
    const std::vector<std::string>& queries,
    const std::vector<std::string>& decoys, const std::string& document,
    size_t shard_count, size_t stream_count) {
  if (stream_count < 1) stream_count = 1;
  service::StreamServiceOptions options;
  options.shard_count = shard_count;
  options.stream_count = stream_count;
  service::StreamService service(options);
  std::vector<service::SubscriptionId> ids;
  ids.reserve(queries.size());
  for (const std::string& q : queries) {
    VITEX_ASSIGN_OR_RETURN(service::SubscriptionId id, service.Subscribe(q));
    ids.push_back(id);
  }
  for (const std::string& d : decoys) {
    VITEX_RETURN_IF_ERROR(service.Subscribe(d).status());
  }
  // One copy per stream: every parser thread parses the document
  // concurrently and every shard merges stream_count lanes, so each query
  // must deliver its result set exactly stream_count times — no copy lost
  // to the merge, none duplicated.
  for (size_t s = 0; s < stream_count; ++s) {
    VITEX_RETURN_IF_ERROR(service.PublishToStream(s, document));
  }
  VITEX_RETURN_IF_ERROR(service.Flush());
  std::vector<ResultSet> out;
  out.reserve(queries.size());
  for (service::SubscriptionId id : ids) {
    VITEX_ASSIGN_OR_RETURN(std::vector<service::Delivery> deliveries,
                           service.Drain(id));
    ResultSet set;
    set.reserve(deliveries.size());
    for (auto& d : deliveries) {
      set.emplace_back(d.sequence, std::move(d.fragment));
    }
    std::sort(set.begin(), set.end());
    out.push_back(std::move(set));
  }
  VITEX_RETURN_IF_ERROR(service.Stop());
  return out;
}

std::optional<Divergence> Oracle::Check(const std::string& query,
                                        const std::string& document) {
  return CheckBatch({query}, {}, document);
}

std::optional<Divergence> Oracle::CheckBatch(
    const std::vector<std::string>& queries,
    const std::vector<std::string>& decoys, const std::string& document) {
  if (queries.empty()) return std::nullopt;
  size_t shard_count =
      options_.max_shards == 0 ? 0 : 1 + checks_ % options_.max_shards;
  // Streams advance when the shard cycle wraps: consecutive checks sweep
  // the whole (shard × stream) grid instead of a diagonal through it.
  size_t stream_count =
      options_.max_streams <= 1
          ? 1
          : 1 + (checks_ / std::max<size_t>(1, options_.max_shards)) %
                    options_.max_streams;
  checks_ += queries.size();

  // Assembles the repro context for query i: the other checked queries act
  // as decoys alongside the explicit ones (a dispatch divergence can depend
  // on the whole co-registered set).
  auto make_divergence = [&](size_t i, Route a, Route b, std::string detail) {
    Divergence d;
    d.route_a = a;
    d.route_b = b;
    d.query = queries[i];
    for (size_t j = 0; j < queries.size(); ++j) {
      if (j != i) d.decoys.push_back(queries[j]);
    }
    d.decoys.insert(d.decoys.end(), decoys.begin(), decoys.end());
    d.shard_count = shard_count == 0 ? 1 : shard_count;
    d.stream_count = stream_count;
    d.document = document;
    d.original_document_bytes = document.size();
    d.detail = std::move(detail);
    Minimize(&d);
    return d;
  };

  // Ground truth.
  std::vector<ResultSet> expected;
  expected.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<ResultSet> r = RunDom(queries[i], document);
    if (!r.ok()) {
      return make_divergence(i, Route::kDom, Route::kDom,
                             "dom-baseline error: " + r.status().ToString());
    }
    expected.push_back(std::move(r).value());
  }

  auto check_against = [&](size_t i, Route route,
                           const Result<ResultSet>& got)
      -> std::optional<Divergence> {
    if (!got.ok()) {
      return make_divergence(i, Route::kDom, route,
                             std::string(RouteName(route)) +
                                 " error: " + got.status().ToString());
    }
    if (got.value() != expected[i]) {
      return make_divergence(
          i, Route::kDom, route,
          FirstDifference(RouteName(Route::kDom), expected[i],
                          RouteName(route), got.value()));
    }
    return std::nullopt;
  };

  for (size_t i = 0; i < queries.size(); ++i) {
    if (auto d = check_against(i, Route::kTwigM,
                               RunTwigM(queries[i], document))) {
      return d;
    }
  }

  {
    Result<std::vector<ResultSet>> got =
        RunMultiQuery(queries, decoys, document);
    if (!got.ok()) {
      return make_divergence(0, Route::kDom, Route::kMultiQuery,
                             "multi-query error: " + got.status().ToString());
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (got.value()[i] != expected[i]) {
        return make_divergence(
            i, Route::kDom, Route::kMultiQuery,
            FirstDifference(RouteName(Route::kDom), expected[i],
                            RouteName(Route::kMultiQuery), got.value()[i]));
      }
    }
  }

  if (shard_count > 0) {
    Result<std::vector<ResultSet>> got =
        RunService(queries, decoys, document, shard_count, stream_count);
    if (!got.ok()) {
      return make_divergence(0, Route::kDom, Route::kService,
                             "service error: " + got.status().ToString());
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      // The service saw stream_count copies of the document, so its answer
      // must be the DOM set replicated per stream — exactly.
      ResultSet want = Replicate(expected[i], stream_count);
      if (got.value()[i] != want) {
        return make_divergence(
            i, Route::kDom, Route::kService,
            FirstDifference(RouteName(Route::kDom), want,
                            RouteName(Route::kService), got.value()[i]));
      }
    }
  }
  return std::nullopt;
}

Result<ResultSet> Oracle::RunRoute(Route route, const Divergence& d,
                                   const std::string& document) const {
  switch (route) {
    case Route::kDom:
      return RunDom(d.query, document);
    case Route::kTwigM:
      return RunTwigM(d.query, document);
    case Route::kMultiQuery: {
      VITEX_ASSIGN_OR_RETURN(std::vector<ResultSet> sets,
                             RunMultiQuery({d.query}, d.decoys, document));
      return std::move(sets[0]);
    }
    case Route::kService: {
      VITEX_ASSIGN_OR_RETURN(std::vector<ResultSet> sets,
                             RunService({d.query}, d.decoys, document,
                                        d.shard_count, d.stream_count));
      return std::move(sets[0]);
    }
  }
  return Status::Internal("unknown route");
}

bool Oracle::PairStillDiverges(const Divergence& d,
                               const std::string& document) const {
  Result<ResultSet> a = RunRoute(d.route_a, d, document);
  Result<ResultSet> b = RunRoute(d.route_b, d, document);
  if (a.ok() != b.ok()) return true;  // status divergence
  if (!a.ok()) return false;          // both broken: not a usable repro
  // The service route answers once per stream; scale a single-shot peer's
  // set up before comparing (both-service and neither-service need none).
  ResultSet a_set = std::move(a).value();
  ResultSet b_set = std::move(b).value();
  bool a_is_service = d.route_a == Route::kService;
  bool b_is_service = d.route_b == Route::kService;
  if (a_is_service && !b_is_service) {
    b_set = Replicate(b_set, d.stream_count);
  } else if (b_is_service && !a_is_service) {
    a_set = Replicate(a_set, d.stream_count);
  }
  return a_set != b_set;
}

std::string MinimizeDocument(
    const std::string& document,
    const std::function<bool(const std::string&)>& still_fails,
    size_t max_probes) {
  size_t probes = 0;
  std::string current = document;
  bool improved = true;
  while (improved && probes < max_probes) {
    improved = false;
    Result<xml::Document> dom = xml::ParseIntoDom(current);
    if (!dom.ok()) break;
    for (const DomNode* candidate : DeletionCandidates(dom.value())) {
      std::string reduced;
      SerializeSkippingRec(dom.value().document_node(), candidate, &reduced);
      if (reduced.size() >= current.size()) continue;
      if (++probes > max_probes) break;
      if (still_fails(reduced)) {
        current = std::move(reduced);
        improved = true;
        break;  // the tree changed; recollect candidates
      }
    }
  }
  return current;
}

void Oracle::Minimize(Divergence* d) const {
  if (!options_.minimize || d->route_a == d->route_b) return;
  d->document = MinimizeDocument(
      d->document,
      [this, d](const std::string& reduced) {
        return PairStillDiverges(*d, reduced);
      },
      options_.max_minimize_probes);
}

Result<std::string> WriteReproFiles(const Divergence& divergence,
                                    const std::string& dir, int index) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create repro dir '" + dir +
                           "': " + ec.message());
  }
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%03d", index);
  auto write = [&](const std::string& name,
                   const std::string& content) -> Result<std::string> {
    std::string path = dir + "/" + prefix + "-" + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IoError("cannot open '" + path + "'");
    size_t n = std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    if (n != content.size()) {
      return Status::IoError("short write to '" + path + "'");
    }
    return path;
  };
  VITEX_RETURN_IF_ERROR(write("query.txt", divergence.query + "\n").status());
  VITEX_RETURN_IF_ERROR(write("document.xml", divergence.document).status());
  return write("report.txt", divergence.ToString());
}

}  // namespace vitex::difftest
