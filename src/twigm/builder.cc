#include "twigm/builder.h"

namespace vitex::twigm {

Result<BuiltMachine> TwigMBuilder::Build(std::string_view xpath,
                                         TwigMachine::Options options,
                                         SymbolTable* symbols) {
  VITEX_ASSIGN_OR_RETURN(xpath::Query compiled,
                         xpath::ParseAndCompile(xpath));
  auto query = std::make_unique<xpath::Query>(std::move(compiled));
  return Build(std::move(query), options, symbols);
}

Result<BuiltMachine> TwigMBuilder::Build(std::unique_ptr<xpath::Query> query,
                                         TwigMachine::Options options,
                                         SymbolTable* symbols) {
  if (query == nullptr || query->root() == nullptr) {
    return Status::InvalidArgument("null or empty query");
  }
  auto machine = std::make_unique<TwigMachine>(query.get(), options, symbols);
  return BuiltMachine(std::move(query), std::move(machine));
}

}  // namespace vitex::twigm
