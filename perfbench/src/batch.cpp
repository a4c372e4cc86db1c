// batch_paper: one-shot aggregate analysis of the paper's shape — a 2M-event
// catalog, 2 layers x 15 direct-access ELTs of 20k losses, 1000 events per
// trial — through core::run with a default AnalysisConfig (what
// `are_cli run` executes), then EP/PML/TVaR and a price per layer. One
// closed-loop caller. The ELT footprint (30 x 16 MB) is several times a
// typical LLC, so this is the DRAM-bound lookup regime.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/analysis.hpp"
#include "harness.hpp"
#include "metrics/ep_curve.hpp"
#include "obs/telemetry.hpp"
#include "pricing/pricing.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace core = are::core;

constexpr std::size_t kCatalog = 2'000'000;
constexpr std::uint64_t kTrials = 10'000;
constexpr double kEventsPerTrial = 1000.0;
constexpr std::size_t kLayers = 2;
constexpr std::size_t kEltsPerLayer = 15;
constexpr std::size_t kEltEntries = 20'000;
constexpr int kSetups = 3;
/// Trials of the sub-YET the traced run's scaling efficiency is measured on.
constexpr std::size_t kScalingTrials = 1'000;

struct Analysis {
  core::YearLossTable ylt;
  std::vector<are::pricing::Quote> quotes;
  std::vector<double> pml250;
  std::vector<double> tvar99;
  double seconds = 0.0;
  double run_s = 0.0;
  double reduce_s = 0.0;
  double price_s = 0.0;
};

/// One analysis as a user runs it: the engine, then the EP curve, PML and
/// TVaR, and a price per layer.
Analysis analyse(const core::Portfolio& portfolio, const are::yet::YearEventTable& yet,
                 const core::AnalysisConfig& config, SpanRecorder* spans) {
  Analysis a;
  const std::int64_t t0 = now_ns();
  ScopedSpan root(spans, "batch.analysis");
  {
    ScopedSpan span(spans, "core.run", root.index());
    a.ylt = core::run({portfolio, yet, config});
  }
  a.run_s = seconds_since(t0);
  for (std::size_t l = 0; l < portfolio.layers.size(); ++l) {
    const auto losses = a.ylt.layer_losses(l);
    std::int64_t t = now_ns();
    {
      ScopedSpan span(spans, "metrics.reduce", root.index());
      const are::metrics::EpCurve curve(losses);
      a.pml250.push_back(curve.probable_maximum_loss(250.0));
      a.tvar99.push_back(curve.tail_value_at_risk(0.99));
    }
    a.reduce_s += seconds_since(t);
    t = now_ns();
    {
      ScopedSpan span(spans, "pricing.price_layer", root.index());
      a.quotes.push_back(are::pricing::price_layer(losses, portfolio.layers[l].terms));
    }
    a.price_s += seconds_since(t);
  }
  a.seconds = seconds_since(t0);
  return a;
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_outputs(const Analysis& a, const Analysis& b) {
  if (a.ylt.num_layers() != b.ylt.num_layers()) return false;
  for (std::size_t l = 0; l < a.ylt.num_layers(); ++l) {
    if (!same_bytes(a.ylt.layer_losses(l), b.ylt.layer_losses(l))) return false;
    const are::pricing::Quote& qa = a.quotes[l];
    const are::pricing::Quote& qb = b.quotes[l];
    const double va[] = {qa.expected_loss, qa.stddev, qa.tvar, qa.technical_premium,
                         qa.rate_on_line, a.pml250[l], a.tvar99[l]};
    const double vb[] = {qb.expected_loss, qb.stddev, qb.tvar, qb.technical_premium,
                         qb.rate_on_line, b.pml250[l], b.tvar99[l]};
    if (std::memcmp(va, vb, sizeof va) != 0) return false;
  }
  return true;
}

/// The YET restricted to the given trials (in order).
are::yet::YearEventTable sub_yet(const are::yet::YearEventTable& yet,
                                 const std::vector<std::size_t>& trials) {
  std::vector<are::yet::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets{0};
  for (const std::size_t trial : trials) {
    const auto e = yet.trial_events(trial);
    const auto t = yet.trial_times(trial);
    events.insert(events.end(), e.begin(), e.end());
    times.insert(times.end(), t.begin(), t.end());
    offsets.push_back(events.size());
  }
  return are::yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

/// Bit-exact check of the timed YLT against `seq` over every trial: trials
/// are independent, so each row must match byte for byte whatever the
/// schedule split.
void check_against_seq(const core::Portfolio& portfolio, const are::yet::YearEventTable& yet,
                       const Analysis& timed, Result& result) {
  core::AnalysisConfig seq;
  seq.engine = core::EngineKind::kSequential;
  const core::YearLossTable reference = core::run({portfolio, yet, seq});
  for (std::size_t l = 0; l < portfolio.layers.size(); ++l) {
    const auto got = timed.ylt.layer_losses(l);
    const auto want = reference.layer_losses(l);
    for (std::size_t trial = 0; trial < got.size(); ++trial) {
      if (std::memcmp(&got[trial], &want[trial], sizeof(double)) != 0) {
        result.mismatch("batch_paper layer " + std::to_string(l + 1) + " trial " +
                        std::to_string(trial) + " differs from seq");
        return;
      }
    }
  }
}

}  // namespace

Result run_batch_paper(const Options& options, SpanRecorder* spans) {
  Result result;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  // Inputs from the seed, untimed; the timed setup reads them back.
  are::yet::YetConfig yet_config;
  yet_config.num_trials = kTrials;
  yet_config.events_per_trial = kEventsPerTrial;
  yet_config.count_model = are::yet::CountModel::kFixed;
  yet_config.seed = options.seed;
  const InputFiles files = write_inputs(options.work_dir + "/inputs", yet_config, kCatalog,
                                        kLayers * kEltsPerLayer, kEltEntries, options.seed);

  // Timed setup, repeated; the last load is the one the run uses.
  std::vector<double> setup_s, read_yet_s, read_elt_s, build_s;
  LoadedInputs inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs = LoadedInputs{};  // release the previous load first
    ScopedSpan span(spans, "setup");
    const std::int64_t t0 = now_ns();
    inputs = load_inputs(files, spans, span.index());
    setup_s.push_back(seconds_since(t0));
    read_yet_s.push_back(inputs.read_yet_s);
    read_elt_s.push_back(inputs.read_elt_s);
    build_s.push_back(inputs.build_s);
  }
  std::filesystem::remove_all(options.work_dir + "/inputs");

  are::rng::SplitMix64 rng(options.seed);
  std::vector<are::financial::LayerTerms> terms;
  for (std::size_t l = 0; l < kLayers; ++l) terms.push_back(seeded_layer_terms(rng));
  std::vector<std::size_t> picks(kLayers * kEltsPerLayer);
  std::iota(picks.begin(), picks.end(), std::size_t{0});
  const core::Portfolio portfolio = make_portfolio(inputs.lookups, picks, terms);
  const are::yet::YearEventTable& yet = inputs.yet;
  const double lookups_per_run =
      static_cast<double>(yet.total_events()) * static_cast<double>(kLayers * kEltsPerLayer);

  const core::AnalysisConfig config;  // the `are_cli run` default preset
  const Analysis first = analyse(portfolio, yet, config, nullptr);  // warm-up
  check_against_seq(portfolio, yet, first, result);
  result.attempted = 1;

  // Closed loop for `seconds`; a traced run spends the first half untraced
  // so the tracing overhead is measured in the same process.
  const double untraced_window = options.trace ? options.seconds / 2.0 : options.seconds;
  // Returns each analysis's wall seconds.
  const auto loop = [&](double window, SpanRecorder* loop_spans, std::vector<Analysis>* keep) {
    std::vector<double> walls;
    const std::int64_t start = now_ns();
    while (walls.empty() || seconds_since(start) < window) {
      Analysis a = analyse(portfolio, yet, config, loop_spans);
      ++result.attempted;
      if (!same_outputs(a, first)) result.mismatch("batch_paper output changed between runs");
      walls.push_back(a.seconds);
      if (keep != nullptr) keep->push_back(std::move(a));
    }
    return walls;
  };
  const std::vector<double> walls = loop(untraced_window, nullptr, nullptr);

  std::vector<double> walls_ms;
  for (const double w : walls) walls_ms.push_back(w * 1e3);
  const LatencySummary latency = summarize(walls_ms);
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(lookups_per_run / w);
  result.set("setup_s", median(setup_s));
  result.set("lookups_per_s", median(rates));
  // One closed-loop caller: its rate is the reciprocal of its median
  // analysis, which an occasional slow analysis does not skew.
  result.set("quotes_per_s", 1e3 / latency.p50);
  result.set("cold_p50_ms", latency.p50);

  result.note("stamp " + host_stamp(options, inputs.lookup_bytes));
  result.note("workload batch_paper: closed loop, 1 caller; " + std::to_string(yet.num_trials()) +
              " trials x " + std::to_string(static_cast<int>(kEventsPerTrial)) + " events, " +
              std::to_string(kLayers) + " layers x " + std::to_string(kEltsPerLayer) +
              " direct-access ELTs over a " + std::to_string(kCatalog) + "-event catalog");
  result.note("setup_s " + std::to_string(median(setup_s)) + " s (median of " +
              std::to_string(kSetups) + " loads: read YET + read ELTs + make_lookup)");
  result.note("batch_lookups_per_s " + std::to_string(median(rates)) + " 1/s (median of " +
              std::to_string(rates.size()) + " analyses, " + std::to_string(lookups_per_run) +
              " lookups each)");
  result.note("analysis " + latency.describe("cold") + " min=" +
              std::to_string(*std::min_element(walls_ms.begin(), walls_ms.end())) + " max=" +
              std::to_string(*std::max_element(walls_ms.begin(), walls_ms.end())) +
              " ms; delta_p50_ms/delta_p90_ms n/a (no delta path in a one-shot run)");

  if (!options.trace) {
    result.set("peak_rss_mb", peak_rss_mb());
    result.note("peak_rss_mb " + std::to_string(peak_rss_mb()) + " MB");
    result.note("failed_share " + Ratio{static_cast<double>(result.failed),
                                        static_cast<double>(result.attempted),
                                        "analyses attempted"}
                                      .describe());
    return result;
  }

  // ---- traced half: spans around every call + telemetry counters ----
  auto& registry = are::obs::TelemetryRegistry::global();
  are::obs::set_enabled(true);
  const are::obs::Snapshot before = registry.snapshot();
  std::vector<Analysis> traced;
  const std::vector<double> traced_walls = loop(options.seconds / 2.0, spans, &traced);
  const are::obs::Snapshot diff = registry.snapshot().diff(before);
  const double runs = static_cast<double>(traced.size());
  double run_total = 0.0, reduce_total = 0.0, price_total = 0.0;
  for (const Analysis& a : traced) {
    run_total += a.run_s;
    reduce_total += a.reduce_s;
    price_total += a.price_s;
  }

  // One run on the instrumented path for the Fig-6b phase split and the
  // kernel's own access counts.
  core::InstrumentationSink sink;
  core::AnalysisConfig instrumented = config;
  instrumented.instrumentation = &sink;
  instrumented.collect_phases = true;
  const Analysis phased = analyse(portfolio, yet, instrumented, spans);
  if (!same_outputs(phased, first)) result.mismatch("batch_paper instrumented run differs");
  const core::PhaseBreakdown phases = sink.phases.value_or(core::PhaseBreakdown{});
  const std::uint64_t lookups = sink.accesses ? sink.accesses->elt_lookups : 0;

  // Scaling: nproc-thread default preset vs a 1-thread seq run, same sub-YET.
  std::vector<std::size_t> head(std::min<std::size_t>(kScalingTrials, yet.num_trials()));
  std::iota(head.begin(), head.end(), std::size_t{0});
  const are::yet::YearEventTable small = sub_yet(yet, head);
  core::AnalysisConfig seq;
  seq.engine = core::EngineKind::kSequential;
  std::vector<double> par_s;
  double seq_s = 0.0;
  {
    const std::int64_t t0 = now_ns();
    (void)core::run({portfolio, small, seq});
    seq_s = seconds_since(t0);
  }
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    (void)core::run({portfolio, small, config});
    par_s.push_back(seconds_since(t0));
  }
  const Ratio scaling{seq_s, static_cast<double>(nproc) * median(par_s),
                      "(threads x parallel seconds) vs seq seconds"};

  const double launches = static_cast<double>(diff.counter_value("kernel.launches"));
  const double events_per_run =
      launches > 0 ? static_cast<double>(diff.counter_value("kernel.events")) / launches : 0.0;
  const double blocks_per_run =
      launches > 0 ? static_cast<double>(diff.counter_value("kernel.blocks")) / launches : 0.0;
  // Computed bytes moved per run: event ids + times streamed once, one
  // 8-byte table cell per lookup, one 8-byte YLT cell per (trial, layer).
  const double bytes_computed = static_cast<double>(yet.total_events()) * 8.0 +
                                lookups_per_run * 8.0 +
                                static_cast<double>(yet.num_trials() * kLayers) * 8.0;
  const Ratio idle{static_cast<double>(diff.counter_value("pool.idle_ns")) * 1e-9,
                   static_cast<double>(nproc) * run_total, "worker-seconds of core::run"};
  const Ratio overhead{median(traced_walls) - median(walls), median(walls),
                       "untraced median analysis seconds"};
  const std::size_t llc = llc_bytes();

  result.set("io.read_yet_s", median(read_yet_s));
  result.set("io.read_elt_s", median(read_elt_s));
  result.set("elt.build_s", median(build_s));
  result.set("elt.lookups_per_cold_run", static_cast<double>(lookups));
  result.set("elt.ns_per_lookup",
             lookups > 0 ? phases.lookup_seconds * 1e9 / static_cast<double>(lookups) : 0.0);
  result.set("elt.footprint_to_llc", llc ? inputs.lookup_bytes / static_cast<double>(llc) : 0.0);
  result.set("core.run_s", run_total / runs);
  result.set("core.phase.fetch_share", phases.fetch_fraction());
  result.set("core.phase.lookup_share", phases.lookup_fraction());
  result.set("core.phase.financial_share", phases.financial_fraction());
  result.set("core.phase.layer_share", phases.layer_fraction());
  result.set("core.phase.output_share", phases.output_fraction());
  result.set("core.events", events_per_run);
  result.set("core.blocks", blocks_per_run);
  result.set("core.lookups_per_byte_computed", lookups_per_run / bytes_computed);
  result.set("parallel.scaling_efficiency", scaling.value());
  result.set("parallel.pool_idle_share", idle.value());
  result.set("metrics.reduce_s", reduce_total / runs);
  result.set("pricing.price_s", price_total / runs);
  result.set("obs.trace_overhead", overhead.value());
  // Layers a one-shot analysis never reaches.
  for (const char* name :
       {"elt.lookups_per_delta_run", "core.ground_up.captured_events",
        "core.ground_up.replayed_events", "server.wire_ms", "service.quote_ms.cold",
        "service.quote_ms.delta", "service.quote_ms.cached", "broker.queue_wait_p50_ms",
        "broker.queue_wait_p90_ms", "broker.rejected", "cache.hit_ratio", "session.register_ms",
        "session.update_ms", "session.ground_up_bytes"}) {
    result.set(name, 0.0);
  }

  result.note("trace: spans from the benchmark around core::run, EpCurve/PML/TVaR, "
              "price_layer and the load path; counters on for the traced half");
  result.note("trace: phase split from one collect_phases run (the kernel's instrumented "
              "path); lookups counted by the kernel = " + std::to_string(lookups) +
              " (events x ELTs = " + std::to_string(lookups_per_run) + ")");
  result.note("parallel.scaling_efficiency " + scaling.describe() + " on " +
              std::to_string(small.num_trials()) + " trials");
  result.note("parallel.pool_idle_share " + idle.describe());
  result.note("obs.trace_overhead " + overhead.describe() + "; traced " +
              std::to_string(traced_walls.size()) + " vs untraced " +
              std::to_string(walls.size()) + " analyses");
  result.note("not loaded by batch_paper (read 0): server, service, broker, cache, session, "
              "ground-up capture/replay");
  result.note("peak_rss_mb " + std::to_string(peak_rss_mb()) + " MB (traced run)");
  return result;
}

}  // namespace perfbench
