// End-to-end benchmark harness. Runs one workload from a seed and prints, as
// its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}} — the end-to-end metrics untraced,
// the per-layer metrics with --trace 1. Exits 1 on any correctness
// mismatch, 2 on bad arguments.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scale full|tiny] [--out-dir DIR]
//
// Normally started through e2ebench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/harness.h"
#include "harness/workloads.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "stream_companies_lm|shard_securities_id|serve_reads_under_updates"
               " --seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--out-dir DIR]\n",
               problem);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using gralmatch::e2e::Options;
  Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) return Usage("bad --seed");
      options.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 3600) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return Usage("bad --scale");
      options.scale = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!gralmatch::e2e::IsWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seconds) return Usage("missing --seconds");

  gralmatch::e2e::MetricSink sink;
  gralmatch::e2e::RunWorkload(options, &sink);
  std::printf("%s\n", sink.ResultLine().c_str());
  std::fflush(stdout);
  return sink.correct() ? 0 : 1;
}
