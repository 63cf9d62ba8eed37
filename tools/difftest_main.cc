// difftest_main: long-running differential fuzzer over the four evaluation
// routes (DomEvaluator ground truth, single-query Engine, MultiQueryEngine
// with decoys and shared plans, and StreamService replay across 1-4 shards
// × 1-4 publisher streams (one published copy per stream)). Odd iterations
// draw SharedSkeletonBatch query families — literal/tag variants of one
// template — so the plan cache is hammered with the subscriber-population
// shape it hash-conses. Designed for overnight runs:
//
//   ./difftest_main --iterations 100000 --seed 1 --workload all
//       --repro-dir difftest_repros   (one command line)
//
// Every iteration draws one document from the selected workload generator
// and a batch of fuzzed queries from the matching tag alphabet, then
// cross-checks them. Divergences are printed and written as repro files
// (query.txt / document.xml / report.txt) into --repro-dir; the exit code
// is the number of divergent iterations (capped at 125). A failure
// reported as [books seed=S iter=I] replays with:
//
//   ./difftest_main --workload books --seed S --iterations I+1
//
// (iteration I of seed S is deterministic: the generator state depends
// only on the workload kind, seed and iteration index — not on which
// other workloads were selected).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "difftest/oracle.h"
#include "difftest/query_fuzzer.h"
#include "difftest/workload_corpus.h"
#include "xml/simd_scan.h"

namespace {

using vitex::Random;
using vitex::difftest::Oracle;
using vitex::difftest::OracleOptions;
using vitex::difftest::QueryFuzzer;
using vitex::difftest::WorkloadKind;

struct Args {
  uint64_t seed = 1;
  uint64_t iterations = 1000;
  std::string workload = "all";  // all|protein|books|xmark|recursive|random
  size_t batch = 4;
  size_t decoys = 2;
  size_t max_shards = 4;
  size_t max_streams = 4;
  size_t chunk_bytes = 0;
  std::string repro_dir = "difftest_repros";
  bool no_minimize = false;
  bool no_service = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--iterations N] [--workload all|protein|books|"
      "xmark|recursive|random]\n"
      "          [--batch N] [--decoys N] [--max-shards N] [--max-streams N]\n"
      "          [--chunk BYTES]\n"
      "          [--repro-dir DIR] [--no-minimize] [--no-service]\n",
      argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      args.iterations = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      args.workload = next();
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      args.batch = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--decoys") == 0) {
      args.decoys = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-shards") == 0) {
      args.max_shards = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-streams") == 0) {
      args.max_streams = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--chunk") == 0) {
      args.chunk_bytes = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--repro-dir") == 0) {
      args.repro_dir = next();
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      args.no_minimize = true;
    } else if (std::strcmp(argv[i], "--no-service") == 0) {
      args.no_service = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.batch == 0) args.batch = 1;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  // The nightly CI sweep runs half its iterations under
  // VITEX_FORCE_SCALAR_SCAN=1; log which scan tier this run exercises so
  // divergence reports are attributable to a kernel path.
  std::fprintf(stderr, "scan mode: %s\n",
               std::string(vitex::xml::scan::ScanModeName(
                               vitex::xml::scan::ActiveScanMode()))
                   .c_str());

  std::vector<WorkloadKind> selected;
  if (args.workload == "all") {
    selected = vitex::difftest::AllWorkloads();
  } else {
    WorkloadKind kind;
    if (!vitex::difftest::WorkloadFromName(args.workload, &kind)) {
      Usage(argv[0]);
    }
    selected.push_back(kind);
  }

  OracleOptions oracle_options;
  oracle_options.max_shards = args.no_service ? 0 : args.max_shards;
  oracle_options.max_streams = args.max_streams;
  oracle_options.feed_chunk_bytes = args.chunk_bytes;
  oracle_options.minimize = !args.no_minimize;
  Oracle oracle(oracle_options);

  int divergent = 0;
  for (uint64_t iter = 0; iter < args.iterations; ++iter) {
    WorkloadKind kind = selected[iter % selected.size()];
    // Deterministic per (workload, seed, iteration) — NOT per selected-set
    // size — so a divergence reported as [books seed=S iter=I] under
    // --workload all replays exactly with --workload books --seed S and at
    // least I+1 iterations.
    Random rng(args.seed * 0x9e3779b97f4a7c15ull + iter * 2654435761ull +
               static_cast<uint64_t>(kind) * 0x517cc1b727220a95ull);
    QueryFuzzer fuzzer(vitex::difftest::WorkloadAlphabet(kind));
    std::string doc =
        vitex::difftest::GenerateWorkloadDocument(kind, args.seed + iter, &rng);

    std::vector<std::string> queries;
    if (iter % 2 == 1) {
      // Shared-skeleton family: the whole batch instantiates one template.
      queries = fuzzer.NextSharedBatch(static_cast<int>(args.batch), &rng);
    } else {
      for (size_t q = 0; q < args.batch; ++q) {
        queries.push_back(fuzzer.Next(&rng));
      }
    }
    std::vector<std::string> decoys;
    for (size_t q = 0; q < args.decoys; ++q) decoys.push_back(fuzzer.Next(&rng));
    if (args.decoys > 0) decoys.push_back("//*");  // recording broadcast decoy

    auto divergence = oracle.CheckBatch(queries, decoys, doc);
    if (divergence.has_value()) {
      ++divergent;
      std::fprintf(stderr, "[%s seed=%llu iter=%llu]\n%s\n",
                   std::string(vitex::difftest::WorkloadName(kind)).c_str(),
                   static_cast<unsigned long long>(args.seed),
                   static_cast<unsigned long long>(iter),
                   divergence->ToString().c_str());
      auto written = vitex::difftest::WriteReproFiles(
          *divergence, args.repro_dir, divergent);
      if (written.ok()) {
        std::fprintf(stderr, "repro written: %s\n", written.value().c_str());
      } else {
        std::fprintf(stderr, "repro write failed: %s\n",
                     written.status().ToString().c_str());
      }
    }
    if ((iter + 1) % 500 == 0) {
      std::fprintf(stderr, "... %llu/%llu iterations, %llu checks, %d divergent\n",
                   static_cast<unsigned long long>(iter + 1),
                   static_cast<unsigned long long>(args.iterations),
                   static_cast<unsigned long long>(oracle.checks_run()),
                   divergent);
    }
  }

  std::printf("%llu iterations, %llu (query, document) checks, %d divergent\n",
              static_cast<unsigned long long>(args.iterations),
              static_cast<unsigned long long>(oracle.checks_run()), divergent);
  return divergent > 125 ? 125 : divergent;
}
