#include "core/analysis.hpp"

#include <stdexcept>
#include <string>

#include "core/engine_presets.hpp"
#include "core/trial_kernel.hpp"
#include "fault/fault_injection.hpp"
#include "obs/telemetry.hpp"

namespace are::core {

std::string_view to_string(EngineKind kind) noexcept {
  for (const EnginePreset& preset : engine_presets()) {
    if (preset.kind == kind) return preset.name;
  }
  return "unknown";
}

void AnalysisConfig::validate() const {
  if (window) window->validate();
  if (partition_chunk == 0) {
    throw std::invalid_argument("AnalysisConfig: partition_chunk must be > 0");
  }
  if (chunk_size == 0) throw std::invalid_argument("AnalysisConfig: chunk_size must be > 0");
  // tile_trials == 0 is valid: the fused engine derives the tile size.
  if (sharding.shard_trials == 0) {
    throw std::invalid_argument("AnalysisConfig: sharding.shard_trials must be > 0");
  }
  if (ground_up_capture != nullptr && ground_up_replay != nullptr) {
    throw std::invalid_argument(
        "AnalysisConfig: ground_up_capture and ground_up_replay are mutually exclusive");
  }
}

namespace {

/// Shared validation + preset lookup for both front doors.
const EnginePreset& resolve_engine(const AnalysisConfig& config) {
  config.validate();
  const EnginePreset& preset = config.engine_name.empty() ? find_engine(config.engine)
                                                          : require_engine(config.engine_name);
  if (config.pool != nullptr && !preset.supports_pool_reuse) {
    throw std::invalid_argument("engine '" + preset.name +
                                "' cannot reuse a borrowed thread pool (clear "
                                "AnalysisConfig::pool)");
  }
  if (config.collect_phases && config.instrumentation == nullptr) {
    throw std::invalid_argument(
        "AnalysisConfig::collect_phases needs an InstrumentationSink to deliver the breakdown "
        "(set AnalysisConfig::instrumentation)");
  }
  return preset;
}

/// The one execute path: builds the kernel config + launch from the preset
/// row and the request's config, records the per-run facts, runs the
/// kernel, and delivers the breakdown. Exactly one of `ylt` / `sink` is
/// non-null.
void execute(const EnginePreset& preset, const AnalysisRequest& request, YearLossTable* ylt,
             YltSink* sink) {
  const AnalysisConfig& config = request.config;
  InstrumentationSink* facts = config.instrumentation;
  if (facts != nullptr) {
    facts->engine_used = preset.kind;
    // The kOpenMp schedule uses OpenMP directives whenever the build has
    // them and otherwise falls back to the thread pool; surface which one
    // ran instead of making callers probe openmp_available().
    if (preset.schedule == KernelLaunch::Schedule::kOpenMp) {
      facts->openmp_used = openmp_available();
    }
  }

  TrialKernelConfig kernel;
  kernel.window = config.window;
  kernel.instrument = config.collect_phases || preset.always_instrument;
  kernel.ground_up_capture = config.ground_up_capture;
  kernel.ground_up_replay = config.ground_up_replay;
  kernel.cancel = config.cancel;
  if (preset.reads_chunk_size) kernel.event_chunk = config.chunk_size;
  if (preset.reads_tile_trials) kernel.block_trials = config.tile_trials;
  if (preset.resolved_lanes) {
    SimdResolution simd = resolve_simd_extension_ex(request.portfolio, config.simd_extension);
    kernel.extension = simd.extension;
    if (facts != nullptr) {
      facts->simd_extension_used = simd.extension;
      facts->simd_resolution_note = std::move(simd.note);
    }
  }

  KernelLaunch launch;
  launch.schedule = preset.schedule;
  launch.num_threads = config.num_threads;
  launch.pool = config.pool;
  if (preset.reads_partition) launch.partition = config.partition;
  if (preset.reads_partition_chunk) launch.chunk = config.partition_chunk;

  const bool deliver = kernel.instrument && facts != nullptr;
  PhaseBreakdown phases;
  AccessCounts accesses;
  run_trial_kernel(request.portfolio, request.yet_table, kernel, launch, ylt, sink,
                   deliver ? &phases : nullptr, deliver ? &accesses : nullptr);
  if (deliver) {
    facts->phases = phases;
    facts->accesses = accesses;
  }
}

}  // namespace

YearLossTable run(const AnalysisRequest& request) {
  const EnginePreset& preset = resolve_engine(request.config);
  if (request.config.output == OutputMode::kSharded) {
    throw std::invalid_argument(
        "run() returns a materialized YLT; for OutputMode::kSharded call shard::run_sharded "
        "(or core::run_to_sink with your own sink)");
  }
  const obs::RunScope telemetry(request.config.telemetry.counters,
                                request.config.telemetry.trace);
  const fault::ScopedArm faults(request.config.faults);
  YearLossTable ylt = make_year_loss_table(request.portfolio, request.yet_table);
  execute(preset, request, &ylt, nullptr);
  return ylt;
}

void run_to_sink(const AnalysisRequest& request, YltSink& sink) {
  const EnginePreset& preset = resolve_engine(request.config);
  const obs::RunScope telemetry(request.config.telemetry.counters,
                                request.config.telemetry.trace);
  const fault::ScopedArm faults(request.config.faults);
  execute(preset, request, nullptr, &sink);
}

}  // namespace are::core
