// Engine: the one-call public API of ViteX.
//
// Wires the four modules of the paper's Figure 2 together: XPath parser →
// TwigM builder (the machine's constructor, run by MultiQueryEngine on a
// plan miss) → SAX parser → TwigM machine. Feed XML bytes in, get query
// solutions out, incrementally.
//
//   vitex::twigm::VectorResultCollector results;
//   auto engine = vitex::twigm::Engine::Create(
//       "//ProteinEntry[reference]//@id", &results);
//   if (!engine.ok()) { ... }
//   engine->Feed(chunk1);
//   engine->Feed(chunk2);
//   engine->Finish();
//   for (const auto& r : results.results()) { ... }
//
// An Engine is one subscription on a private MultiQueryEngine, where its
// query runs as a one-group plan (DESIGN.md §7): single-query runs take the
// same event path and the same machine code as every other subscription —
// the parser stamps symbols and sequence numbers, and the dispatcher
// coalesces text and skips the events the machine cannot use (DESIGN.md §3,
// §4). For many standing queries over one stream, register them on one
// MultiQueryEngine (multi_query.h), which shares one table and one parse
// across all of them.

#ifndef VITEX_TWIGM_ENGINE_H_
#define VITEX_TWIGM_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "twigm/machine.h"
#include "twigm/multi_query.h"
#include "twigm/result.h"
#include "xml/sax_parser.h"

namespace vitex::twigm {

class Engine {
 public:
  struct Options {
    xml::SaxParserOptions sax;
    TwigMachine::Options machine;
  };

  /// Compiles the query and assembles the pipeline. `results` must outlive
  /// the engine (may be null to discard results). A union query is
  /// rejected: register it on a MultiQueryEngine.
  static Result<Engine> Create(std::string_view xpath, ResultHandler* results,
                               Options options);
  static Result<Engine> Create(std::string_view xpath, ResultHandler* results);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Pushes the next chunk of the XML stream.
  Status Feed(std::string_view chunk) { return engine_->Feed(chunk); }
  /// Signals end of stream.
  Status Finish() { return engine_->Finish(); }
  /// Streams a whole file through the engine in reads of `chunk_bytes`
  /// (InvalidArgument for 0).
  Status RunFile(const std::string& path, size_t chunk_bytes = 1 << 16);
  /// Parses a whole in-memory document.
  Status RunString(std::string_view document) {
    return engine_->RunString(document);
  }

  /// Prepares the engine for a new document with the same query.
  void ResetStream() { engine_->ResetStream(); }

  const xpath::Query& query() const { return engine_->query(id_); }
  const TwigMachine& machine() const { return engine_->machine(id_); }

 private:
  Engine(std::unique_ptr<MultiQueryEngine> engine, QueryId id)
      : engine_(std::move(engine)), id_(id) {}

  // Heap-held: the dispatcher and parser point back into the engine, so it
  // must not move with the Engine value.
  std::unique_ptr<MultiQueryEngine> engine_;
  QueryId id_;
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_ENGINE_H_
