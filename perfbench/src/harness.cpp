#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/simd_engine.hpp"
#include "io/binary.hpp"

namespace perfbench {

namespace fs = std::filesystem;

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"lookups_per_s", "1/s"},
      {"quotes_per_s", "1/s"},
      {"cold_p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"io.read_yet_s", "s"},
      {"io.read_elt_s", "s"},
      {"elt.build_s", "s"},
      {"elt.lookups_per_cold_run", "count"},
      {"elt.lookups_per_delta_run", "count"},
      {"elt.ns_per_lookup", "ns"},
      {"elt.footprint_to_llc", "ratio"},
      {"core.run_s", "s"},
      {"core.phase.fetch_share", "ratio"},
      {"core.phase.lookup_share", "ratio"},
      {"core.phase.financial_share", "ratio"},
      {"core.phase.layer_share", "ratio"},
      {"core.phase.output_share", "ratio"},
      {"core.events", "count"},
      {"core.blocks", "count"},
      {"core.lookups_per_byte_computed", "1/B"},
      {"core.ground_up.captured_events", "count"},
      {"core.ground_up.replayed_events", "count"},
      {"parallel.scaling_efficiency", "ratio"},
      {"parallel.pool_idle_share", "ratio"},
      {"metrics.reduce_s", "s"},
      {"pricing.price_s", "s"},
      {"server.wire_ms", "ms"},
      {"service.quote_ms.cold", "ms"},
      {"service.quote_ms.delta", "ms"},
      {"service.quote_ms.cached", "ms"},
      {"broker.queue_wait_p50_ms", "ms"},
      {"broker.queue_wait_p90_ms", "ms"},
      {"broker.rejected", "count"},
      {"cache.hit_ratio", "ratio"},
      {"session.register_ms", "ms"},
      {"session.update_ms", "ms"},
      {"session.ground_up_bytes", "B"},
      {"obs.trace_overhead", "ratio"},
  };
  return specs;
}

void Result::set(const std::string& name, double value) {
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& spec : *specs) {
      if (name == spec.name) {
        values[name] = value;
        return;
      }
    }
  }
  throw std::logic_error("unknown metric " + name);
}

void Result::mismatch(const std::string& what) {
  if (correct) note("MISMATCH " + what);
  correct = false;
  ++failed;
}

std::size_t llc_bytes() {
  std::size_t best_level = 0;
  std::size_t best_bytes = 0;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(base, error)) {
    std::ifstream level_file(entry.path() / "level");
    std::ifstream size_file(entry.path() / "size");
    std::size_t level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) continue;
    std::size_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level > best_level || (level == best_level && bytes > best_bytes)) {
      best_level = level;
      best_bytes = bytes;
    }
  }
  return best_bytes;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string host_stamp(const Options& options, double elt_footprint_bytes) {
  const std::size_t llc = llc_bytes();
  std::ostringstream out;
  out << "{\"git_sha\":\"" << options.git_sha << "\",\"source_hash\":\"" << options.source_hash
      << "\",\"compiler\":\"" << __VERSION__ << "\",\"simd_extension\":\""
      << are::core::to_string(are::core::best_simd_extension())
      << "\",\"nproc\":" << std::thread::hardware_concurrency() << ",\"llc_bytes\":" << llc
      << ",\"elt_footprint_bytes\":" << static_cast<std::uint64_t>(elt_footprint_bytes)
      << ",\"elt_footprint_to_llc\":"
      << (llc != 0 ? elt_footprint_bytes / static_cast<double>(llc) : 0.0) << "}";
  return out.str();
}

double uniform01(are::rng::SplitMix64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

are::financial::LayerTerms seeded_layer_terms(are::rng::SplitMix64& rng) {
  constexpr double kScale = 250'000.0;  // the synthetic ELTs' Lomax scale
  are::financial::LayerTerms terms;
  terms.occurrence_retention = std::round(kScale * (0.5 + uniform01(rng)));
  terms.occurrence_limit = std::round(kScale * (5.0 + 10.0 * uniform01(rng)));
  terms.aggregate_retention = std::round(kScale * (5.0 + 10.0 * uniform01(rng)));
  terms.aggregate_limit = std::round(kScale * (50.0 + 100.0 * uniform01(rng)));
  return terms;
}

are::core::Portfolio make_portfolio(const std::vector<LookupPtr>& pool,
                                    const std::vector<std::size_t>& picks,
                                    const std::vector<are::financial::LayerTerms>& layer_terms) {
  are::core::Portfolio portfolio;
  const std::size_t per_layer = picks.size() / layer_terms.size();
  for (std::size_t l = 0; l < layer_terms.size(); ++l) {
    are::core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms = layer_terms[l];
    for (std::size_t e = 0; e < per_layer; ++e) {
      are::core::LayerElt layer_elt;
      layer_elt.lookup = pool.at(picks[l * per_layer + e]);
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

InputFiles write_inputs(const std::string& dir, const are::yet::YetConfig& yet_config,
                        std::size_t catalog_size, std::size_t num_elts, std::size_t elt_entries,
                        std::uint64_t seed) {
  fs::create_directories(dir);
  InputFiles files;
  files.catalog_size = catalog_size;
  files.yet_path = dir + "/years.yet";
  {
    const are::yet::YearEventTable table = are::yet::generate_uniform_yet(yet_config, catalog_size);
    std::ofstream out(files.yet_path, std::ios::binary);
    are::io::write_yet_binary(out, table);
    if (!out) throw std::runtime_error("cannot write " + files.yet_path);
  }
  for (std::size_t i = 0; i < num_elts; ++i) {
    are::elt::SyntheticEltConfig config;
    config.catalog_size = catalog_size;
    config.entries = elt_entries;
    config.seed = seed;
    config.elt_id = i;
    const std::string path = dir + "/elt_" + std::to_string(i) + ".elt";
    std::ofstream out(path, std::ios::binary);
    are::io::write_elt_binary(out, are::elt::make_synthetic_elt(config));
    if (!out) throw std::runtime_error("cannot write " + path);
    files.elt_paths.push_back(path);
  }
  return files;
}

LoadedInputs load_inputs(const InputFiles& files, SpanRecorder* spans, std::int64_t parent) {
  LoadedInputs loaded;
  std::int64_t t0 = now_ns();
  {
    ScopedSpan span(spans, "io.read_yet", parent);
    std::ifstream in(files.yet_path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + files.yet_path);
    loaded.yet = are::io::read_yet_binary(in);
  }
  loaded.read_yet_s = seconds_since(t0);
  std::vector<are::elt::EventLossTable> tables;
  tables.reserve(files.elt_paths.size());
  t0 = now_ns();
  for (const std::string& path : files.elt_paths) {
    ScopedSpan span(spans, "io.read_elt", parent);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    tables.push_back(are::io::read_elt_binary(in));
  }
  loaded.read_elt_s = seconds_since(t0);
  t0 = now_ns();
  for (const are::elt::EventLossTable& table : tables) {
    ScopedSpan span(spans, "elt.make_lookup", parent);
    loaded.lookups.push_back(
        are::elt::make_lookup(are::elt::LookupKind::kDirectAccess, table, files.catalog_size));
  }
  loaded.build_s = seconds_since(t0);
  loaded.lookup_bytes = static_cast<double>(tables.size() * files.catalog_size * sizeof(double));
  return loaded;
}

}  // namespace perfbench
