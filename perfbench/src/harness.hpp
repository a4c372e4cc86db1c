#pragma once

// Shared plumbing of the benchmark workloads: options, the result every
// workload returns, the host/build stamp, and the seeded inputs (generated
// with the library's generators, written with io::write_*_binary, and read
// back through the timed load path).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/layer.hpp"
#include "elt/lookup.hpp"
#include "elt/synthetic.hpp"
#include "rng/splitmix64.hpp"
#include "spans.hpp"
#include "yet/generator.hpp"
#include "yet/year_event_table.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for the generated inputs and the
  /// socket; created and removed by the run.
  std::string work_dir;
  /// Build provenance passed in by run.py (git sha when the checkout is a
  /// git repository, and a hash of the sources either way).
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
};

/// A metric the run reports: its BENCHMARK.json name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced run) and the per-layer metrics (traced
/// run), in the order the result line lists them. Every workload reports
/// every metric of its mode; a per-layer metric of a layer the workload
/// does not load reads 0 and the report line says "not loaded".
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> report;

  /// Sets a metric named in end_to_end_specs() or per_layer_specs().
  void set(const std::string& name, double value);
  void note(std::string line) { report.push_back(std::move(line)); }
  /// A wrong output: counted as failed, marks the run incorrect.
  void mismatch(const std::string& what);
};

/// The workloads. `spans` is null in the untraced run; in the traced run
/// the workload records a span around every library call it makes.
Result run_batch_paper(const Options& options, SpanRecorder* spans);
Result run_quote_workload(const Options& options, SpanRecorder* spans);
int run_self_check();

// ---- host -----------------------------------------------------------------

/// Size in bytes of the largest-level CPU cache (sysfs), 0 when unknown.
std::size_t llc_bytes();
/// Process high-water resident set, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// One-line JSON stamp: git sha, source hash, compiler, the resolved SIMD
/// extension, nproc, LLC bytes and the workload's ELT footprint / LLC.
std::string host_stamp(const Options& options, double elt_footprint_bytes);

// ---- inputs -----------------------------------------------------------------

/// Uniform double in [0, 1) from the seeded stream.
double uniform01(are::rng::SplitMix64& rng);

struct InputFiles {
  std::string yet_path;
  std::vector<std::string> elt_paths;
  std::size_t catalog_size = 0;
};

/// Generates the YET and ELTs from the seed (untimed) and writes them with
/// io::write_*_binary under `dir`.
InputFiles write_inputs(const std::string& dir, const are::yet::YetConfig& yet_config,
                        std::size_t catalog_size, std::size_t num_elts, std::size_t elt_entries,
                        std::uint64_t seed);

using LookupPtr = std::shared_ptr<const are::elt::ILossLookup>;

/// The program's load path, timed per stage: read the YET, read the ELTs,
/// build the direct-access lookups.
struct LoadedInputs {
  are::yet::YearEventTable yet;
  std::vector<LookupPtr> lookups;
  /// Bytes of the built lookup tables (one slot per catalog event each).
  double lookup_bytes = 0.0;
  double read_yet_s = 0.0;
  double read_elt_s = 0.0;
  double build_s = 0.0;
};
LoadedInputs load_inputs(const InputFiles& files, SpanRecorder* spans, std::int64_t parent);

/// Seeded layer terms in whole currency units (exact through the wire's
/// text form), scaled to the synthetic ELTs' loss scale.
are::financial::LayerTerms seeded_layer_terms(are::rng::SplitMix64& rng);

/// A book of `picks.size() / layer_terms.size()` ELTs per layer, layer ids
/// 1..n, drawn from `pool` by index.
are::core::Portfolio make_portfolio(const std::vector<LookupPtr>& pool,
                                    const std::vector<std::size_t>& picks,
                                    const std::vector<are::financial::LayerTerms>& layer_terms);

/// Seconds since `start_ns` (now_ns clock).
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
