// semsim_verify: the randomized differential verification harness
// (DESIGN.md §9). Runs seed-derived random (HIN, taxonomy, estimator
// config) instances through the exact oracle, the MC estimator and its
// virtual-semantics reference, the batch engine, single-source and top-k, asserting the library's bit-identity
// promises and Hoeffding/CLT tolerance bands.
//
// Usage:
//   semsim_verify --instances=200 [--start-seed=1] [--dump-dir=DIR]
//   semsim_verify --seed=N          # replay exactly one instance
//
// Every violation ends with a copy-pasteable `--seed=` repro command;
// with --dump-dir the offending graph/taxonomy/concept-map are written
// as loadable files next to a repro.txt.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/differential.h"

namespace {

bool ParseUint64(const char* arg, const char* flag, uint64_t* out) {
  size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  *out = std::strtoull(arg + len, nullptr, 10);
  return true;
}

bool ParseString(const char* arg, const char* flag, std::string* out) {
  size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  *out = arg + len;
  return true;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: semsim_verify [--seed=N | --start-seed=N --instances=K]\n"
      "                     [--dump-dir=DIR] [--verbose]\n"
      "  --seed=N        replay a single instance (what violation reports\n"
      "                  print as the repro command)\n"
      "  --start-seed=N  first seed of a sweep (default 1)\n"
      "  --instances=K   number of consecutive seeds to run (default 200)\n"
      "  --dump-dir=DIR  dump failing instances as loadable files\n"
      "  --verbose       per-instance progress on stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t start_seed = 1;
  uint64_t instances = 200;
  uint64_t single_seed = 0;
  bool have_single_seed = false;
  semsim::testing::DifferentialOptions options;

  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (ParseUint64(argv[i], "--seed=", &value)) {
      single_seed = value;
      have_single_seed = true;
    } else if (ParseUint64(argv[i], "--start-seed=", &start_seed)) {
    } else if (ParseUint64(argv[i], "--instances=", &instances)) {
    } else if (ParseString(argv[i], "--dump-dir=", &options.dump_dir)) {
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }

  if (have_single_seed) {
    start_seed = single_seed;
    instances = 1;
    options.verbose = true;
  }

  semsim::testing::DifferentialReport report =
      semsim::testing::RunDifferentialSweep(start_seed,
                                            static_cast<int>(instances),
                                            options);

  std::printf(
      "semsim_verify: %d instance(s), seeds [%" PRIu64 ", %" PRIu64
      "], %d bit checks, %d statistical checks, %zu violation(s)\n",
      report.instances, start_seed, start_seed + instances - 1,
      report.bit_checks, report.stat_checks, report.violations.size());
  for (const std::string& v : report.violations) {
    std::printf("\nVIOLATION %s\n", v.c_str());
  }
  for (const std::string& f : report.dumped_files) {
    std::printf("dumped: %s\n", f.c_str());
  }
  if (!report.ok()) {
    std::printf("\nFAILED: %zu violation(s); replay any one with the "
                "printed --seed= command.\n",
                report.violations.size());
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
