#include "twigm/engine.h"

#include <cstdio>
#include <vector>

#include "xpath/query.h"

namespace vitex::twigm {

Result<Engine> Engine::Create(std::string_view xpath,
                              ResultHandler* results) {
  return Create(xpath, results, Options());
}

Result<Engine> Engine::Create(std::string_view xpath, ResultHandler* results,
                              Options options) {
  // Compiling the plain path here (rather than passing the text to
  // AddQuery) is what rejects unions. A caller-supplied table
  // (options.sax.symbols) becomes the engine's, so tables can be shared
  // across pipelines.
  VITEX_ASSIGN_OR_RETURN(xpath::Query query, xpath::ParseAndCompile(xpath));
  std::vector<xpath::Query> branches;
  branches.push_back(std::move(query));
  auto engine = std::make_unique<MultiQueryEngine>(options.sax);
  VITEX_ASSIGN_OR_RETURN(
      QueryId id,
      engine->AddQuery(std::move(branches), results, options.machine));
  return Engine(std::move(engine), id);
}

Status Engine::RunFile(const std::string& path, size_t chunk_bytes) {
  // fread of 0 bytes returns 0 forever: the loop below would never see
  // the short read that ends it.
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("RunFile needs a nonzero chunk size");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::unique_ptr<char[]> buf(new char[chunk_bytes]);
  Status status;
  while (true) {
    size_t n = std::fread(buf.get(), 1, chunk_bytes, f);
    if (n > 0) {
      status = Feed(std::string_view(buf.get(), n));
      if (!status.ok()) break;
    }
    if (n < chunk_bytes) {
      if (std::ferror(f) != 0) {
        status = Status::IoError("read error on '" + path + "'");
      } else {
        status = Finish();
      }
      break;
    }
  }
  std::fclose(f);
  return status;
}

}  // namespace vitex::twigm
