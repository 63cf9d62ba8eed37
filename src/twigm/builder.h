// TwigMBuilder: constructs a TwigM machine from an XPath query (paper §3.1).
//
// "TwigM can be built from the input query in linear time. A machine node is
// constructed for each query node, and they are organized in a tree
// structure corresponding to the query." The builder chains the XPath
// parser, the twig compiler and machine construction, and validates that
// the query is inside the executable fragment.

#ifndef VITEX_TWIGM_BUILDER_H_
#define VITEX_TWIGM_BUILDER_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "twigm/machine.h"
#include "xpath/query.h"

namespace vitex::twigm {

/// A compiled query together with the machine executing it. The machine
/// holds a pointer into the query, so the two are bundled to keep lifetimes
/// coupled.
class BuiltMachine {
 public:
  BuiltMachine(std::unique_ptr<xpath::Query> query,
               std::unique_ptr<TwigMachine> machine)
      : query_(std::move(query)), machine_(std::move(machine)) {}

  BuiltMachine(BuiltMachine&&) = default;
  BuiltMachine& operator=(BuiltMachine&&) = default;

  TwigMachine& machine() { return *machine_; }
  const TwigMachine& machine() const { return *machine_; }
  const xpath::Query& query() const { return *query_; }

  /// Disassembles the bundle: destroys the machine (it references the
  /// query's nodes and must not run afterwards) and hands the compiled
  /// query out. Plan-sharing joins use this to keep a subscription's query
  /// record while discarding its now-redundant machine — without
  /// recompiling from source.
  std::unique_ptr<xpath::Query> TakeQuery() && {
    machine_.reset();
    return std::move(query_);
  }

 private:
  std::unique_ptr<xpath::Query> query_;
  std::unique_ptr<TwigMachine> machine_;
};

class TwigMBuilder {
 public:
  /// Builds a machine from XPath text. O(|Q|) after parsing.
  ///
  /// `symbols` is the SymbolTable the machine's match index is interned
  /// into: the table of the MultiQueryEngine that will run the machine
  /// (MultiQueryEngine::symbols()). Must be non-null and outlive the
  /// machine. Results are routed at registration:
  /// MultiQueryEngine::AddBuilt takes the subscription's ResultHandler.
  static Result<BuiltMachine> Build(std::string_view xpath,
                                    TwigMachine::Options options,
                                    SymbolTable* symbols);

  /// Builds a machine from an already compiled query (takes ownership).
  static Result<BuiltMachine> Build(std::unique_ptr<xpath::Query> query,
                                    TwigMachine::Options options,
                                    SymbolTable* symbols);
};

}  // namespace vitex::twigm

#endif  // VITEX_TWIGM_BUILDER_H_
