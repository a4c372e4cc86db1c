// The repository benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--source-hash H]
//   perfbench --self-check
//
// Run from the checkout root: generated inputs and the socket live in
// .bench_build/run-<pid>/ (removed at exit), and a traced run writes its
// spans to .bench_build/spans-<workload>-seed<n>.jsonl.
//
// Workloads: batch_paper, quote_session, quote_concurrent (see
// perfbench/README.md). Human-readable lines go to stdout prefixed with
// "# "; the last stdout line is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 when every output checked correct, 1 on a
// wrong output (the result line is still printed), 2 on a usage or setup
// error (no result line).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload batch_paper|quote_session|quote_concurrent "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] [--source-hash H]\n"
               "       perfbench --self-check\n";
  std::exit(2);
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(const Result& result, bool trace) {
  for (const std::string& line : result.report) std::cout << "# " << line << '\n';
  const auto& specs = trace ? perfbench::per_layer_specs() : perfbench::end_to_end_specs();
  std::ostringstream out;
  out << "{\"correct\":" << (result.correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.values.find(specs[i].name);
    if (it == result.values.end()) {
      throw std::logic_error(std::string("metric not reported: ") + specs[i].name);
    }
    out << (i == 0 ? "" : ",") << '"' << specs[i].name << "\":{\"value\":"
        << json_number(it->second) << ",\"unit\":\"" << specs[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") return perfbench::run_self_check();
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--git-sha") {
        options.git_sha = value;
      } else if (arg == "--source-hash") {
        options.source_hash = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for " + arg + ": " + value);
    } catch (const std::out_of_range&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  const bool batch = options.workload == "batch_paper";
  if (!batch && options.workload != "quote_session" && options.workload != "quote_concurrent") {
    usage("unknown workload '" + options.workload + "'");
  }
  options.work_dir = ".bench_build/run-" + std::to_string(::getpid());
  const std::string trace_out =
      ".bench_build/spans-" + options.workload + "-seed" + std::to_string(options.seed) + ".jsonl";

  namespace fs = std::filesystem;
  int status = 2;
  try {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    perfbench::SpanRecorder recorder;
    perfbench::SpanRecorder* spans = options.trace ? &recorder : nullptr;
    const Result result = batch ? perfbench::run_batch_paper(options, spans)
                                : perfbench::run_quote_workload(options, spans);
    if (options.trace) {
      // Spans stay in memory during the run and are written once, here.
      const auto self = recorder.self_seconds_by_name();
      const auto counts = recorder.count_by_name();
      for (const auto& [name, seconds] : self) {
        std::cout << "# self_time " << name << " " << seconds << " s over " << counts.at(name)
                  << " spans\n";
      }
      std::ofstream out(trace_out);
      recorder.write_jsonl(out);
      if (!out) throw std::runtime_error("cannot write " + trace_out);
      std::cout << "# spans written to " << trace_out << '\n';
    }
    fs::remove_all(options.work_dir);
    print_result(result, options.trace);
    status = result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    std::error_code ignored;
    fs::remove_all(options.work_dir, ignored);
    status = 2;
  }
  return status;
}
