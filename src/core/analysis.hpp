#pragma once

// Unified engine API — the single front door to the aggregate-analysis
// engines. The paper's contribution is one algorithm mapped onto many
// execution strategies; this header makes that literal: callers build an
// AnalysisRequest (portfolio + YET + AnalysisConfig) and call run(). Which
// strategy executes is data (EngineKind in the config, resolved through the
// preset table in core/engine_presets.hpp), not a choice of free function,
// so an engines x window x instrumentation sweep is a loop over configs.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/cancel.hpp"
#include "core/coverage_window.hpp"
#include "core/engine.hpp"
#include "core/simd_engine.hpp"
#include "parallel/parallel_for.hpp"

namespace are::core {

class GroundUpLossCache;  // core/trial_kernel.hpp

/// Every execution strategy, one row each in the preset table
/// (core/engine_presets.hpp). The enumerators are stable identifiers; their
/// canonical string names (used by the CLI and config files) live in the
/// table.
enum class EngineKind {
  kSequential = 0,  ///< reference implementation, the bit-identity anchor
  kParallel,        ///< thread-pool trial parallelism (paper's multi-core)
  kChunked,         ///< event-chunked kernel (CPU analogue of the GPU kernel)
  kOpenMp,          ///< OpenMP directives (falls back to thread pool)
  kSimd,            ///< lane-parallel batch engine (one trial per lane)
  kWindowed,        ///< sequential with a mid-year coverage window
  kInstrumented,    ///< sequential with per-phase timers + access counters
  kFused,           ///< trial-tiled single-pass engine: all layers per tile
};

/// Canonical name of the engine kind ("seq", "parallel", ...), read from
/// the preset table; "unknown" for a value outside the enum.
std::string_view to_string(EngineKind kind) noexcept;

/// Per-run facts written back through AnalysisConfig::instrumentation:
/// which engine executed and its resolution (did OpenMP really run? which
/// SIMD lane type did kAuto pick?), plus the phase/access breakdown when
/// the run was instrumented (collect_phases, or the instrumented preset).
struct InstrumentationSink {
  /// The engine that executed the request.
  std::optional<EngineKind> engine_used;

  /// kOpenMp only: true when OpenMP directives actually ran, false when the
  /// build lacks OpenMP and the bit-identical thread-pool fallback executed.
  std::optional<bool> openmp_used;

  /// kSimd and kFused: the extension that actually executed after kAuto
  /// resolution — the runtime dispatch decision (cpuid ∩ compiled-in,
  /// ARE_SIMD_EXT override) plus the memory-bound narrowing to SSE2.
  std::optional<SimdExtension> simd_extension_used;

  /// kSimd and kFused: WHY that extension ran — explicit request, the env
  /// override, the cpuid / compiled-in cap, or the cache-regime narrowing
  /// with the footprint that triggered it. Mirrors
  /// core::resolve_simd_extension_ex().note; --verbose prints it.
  std::optional<std::string> simd_resolution_note;

  /// Fig-6b phase attribution and memory-access counters (instrumented
  /// runs only).
  std::optional<PhaseBreakdown> phases;
  std::optional<AccessCounts> accesses;
};

/// Where the output YLT lives. kMaterialized is the classic in-memory
/// trials x layers YearLossTable returned by run(); kSharded stores losses
/// in fixed trial-range shards behind a disk-spilling ShardStore
/// (src/shard/) and is executed through shard::run_sharded / run_to_sink —
/// the out-of-core path for trial counts whose full table would not fit
/// the memory budget.
enum class OutputMode {
  kMaterialized = 0,
  kSharded,
};

/// Runtime-telemetry collection for one run (src/obs/). Both flags enable
/// the process-wide collectors for the duration of the run (RAII-scoped
/// inside run()/run_to_sink(), restoring the prior state), so concurrent
/// runs see each other's requests; long-lived hosts (the CLI, the future
/// resident service) instead call obs::set_enabled()/set_trace_enabled()
/// directly and leave these off. Off by default: the disabled hot path is
/// bit-identical and within noise of an untelemetered build.
struct TelemetryOptions {
  /// Collect counters/gauges/histograms into obs::TelemetryRegistry::global().
  bool counters = false;
  /// Record Chrome-trace spans into obs::TraceBuffer::global().
  bool trace = false;
};

/// Knobs of the sharded output mode (read when output == kSharded).
struct ShardingOptions {
  /// Trials per shard. Shard boundaries also clamp the fused engine's tile
  /// boundaries, so every finished tile lands in exactly one shard.
  std::uint64_t shard_trials = 4096;
  /// Resident-shard budget in bytes; 0 = unlimited (nothing spills).
  std::size_t memory_budget_bytes = 0;
  /// Base directory for spilled shards (each run spills into its own
  /// unique subdirectory, removed afterwards); empty = the system temp
  /// dir.
  std::string spill_dir;
};

/// Composable execution configuration. One struct covers every engine; the
/// engine's preset (core/engine_presets.hpp) decides which of the kernel
/// knobs below it reads, and run() rejects a borrowed pool the preset
/// cannot use.
struct AnalysisConfig {
  EngineKind engine = EngineKind::kParallel;

  /// When non-empty, run() dispatches by this preset name ("seq",
  /// "fused", ...) instead of `engine`. The CLI always dispatches by name.
  std::string engine_name;

  /// Worker threads for the threaded engines (kParallel, kChunked, kOpenMp,
  /// kSimd, kFused): 0 = hardware concurrency, 1 = single-threaded.
  std::size_t num_threads = 0;

  /// kParallel: trial-range partitioning strategy and, for dynamic/guided,
  /// the number of trials per work item. kFused reads `partition` only (its
  /// chunks are sized by event count, not trials).
  parallel::Partition partition = parallel::Partition::kStatic;
  std::size_t partition_chunk = 256;

  /// kChunked: events staged per scratch chunk (the paper's Fig-5a knob).
  std::size_t chunk_size = 4;

  /// kFused: trials per tile (the kernel block; the fused engine processes
  /// every layer over one tile's events before moving on).
  /// 0 = derive from the ELT footprint and events/trial
  /// (core::default_tile_trials).
  std::size_t tile_trials = 0;

  /// kSimd and kFused: lane type to run; kAuto resolves to the widest
  /// runnable extension with the memory-bound narrowing. The other engines
  /// run scalar lanes.
  SimdExtension simd_extension = SimdExtension::kAuto;

  /// Coverage window within the contractual year; every engine applies it
  /// (kWindowed names the serial preset meant for it). Absent = full year.
  std::optional<CoverageWindow> window;

  /// When set, run() records the execution facts here, and instrumented
  /// runs fill the phase breakdown. Borrowed, not owned; any engine
  /// accepts it.
  InstrumentationSink* instrumentation = nullptr;

  /// Request the Fig-6b phase breakdown from any engine; requires a
  /// non-null `instrumentation` sink to receive it. The kernel switches to
  /// its timer-instrumented (slower, bit-identical) block path only when
  /// this is set, so default hot paths stay untimed; kInstrumented always
  /// fills the breakdown.
  bool collect_phases = false;

  /// Output placement. run() serves kMaterialized only; kSharded runs go
  /// through shard::run_sharded (or run_to_sink with your own sink), which
  /// every engine supports.
  OutputMode output = OutputMode::kMaterialized;
  ShardingOptions sharding;

  /// Runtime counters/spans for this run (see TelemetryOptions).
  TelemetryOptions telemetry;

  /// Borrowed thread pool, reused across runs (the real-time pricing path);
  /// requires an engine whose preset sets supports_pool_reuse (kParallel,
  /// kSimd, kFused). nullptr = the engine owns its threads.
  parallel::ThreadPool* pool = nullptr;

  /// Delta execution (core/trial_kernel.hpp GroundUpLossCache; the resident
  /// service's fast path — see src/service/). Capture: this run additionally
  /// records its combined pre-occurrence-terms losses into the cache (shape
  /// must be portfolio layers x YET total events). Replay: this run skips
  /// the fetch/lookup/financial phases and reads the combined losses from
  /// the cache — valid only when the portfolio's ELT sets and per-ELT
  /// FinancialTerms are unchanged since capture (LayerTerms and the window
  /// may differ), bit-identical to a cold run by construction. Any engine
  /// accepts either pointer (they parameterize the shared kernel); setting
  /// both is rejected. Borrowed, not owned.
  GroundUpLossCache* ground_up_capture = nullptr;
  const GroundUpLossCache* ground_up_replay = nullptr;

  /// Cooperative cancellation + deadline for this run (core/cancel.hpp).
  /// The kernel checks the token between trial blocks; a fired token makes
  /// the run throw core::StatusError with the token's reason
  /// (kDeadlineExceeded / kCancelled) and produce no output. Borrowed, not
  /// owned; null = never cancelled.
  const CancelToken* cancel = nullptr;

  /// Fault-injection sites to arm for the duration of this run, as a
  /// comma-separated SITE=SPEC list (src/fault/fault_injection.hpp) —
  /// "shard.spill_write=always,io.read=every:3". Armed process-wide
  /// (RAII-scoped inside run()/run_to_sink()); empty = no injection.
  /// Test/chaos tooling only.
  std::string faults;

  /// Engine-independent sanity checks; throws std::invalid_argument on a
  /// malformed window, partition_chunk == 0, chunk_size == 0, or
  /// sharding.shard_trials == 0 (tile_trials == 0 is valid: it selects the
  /// tile-size heuristic).
  /// The engine-dependent checks (a borrowed pool, extension availability)
  /// happen in run(), which knows the preset.
  void validate() const;
};

/// Everything run() needs: the inputs by reference (portfolio and YET are
/// large and immutable during a run) plus the execution config by value.
struct AnalysisRequest {
  const Portfolio& portfolio;
  const yet::YearEventTable& yet_table;
  AnalysisConfig config{};
};

/// The front door: validates the config, looks the engine up in the preset
/// table, rejects a pool the preset cannot use (std::invalid_argument), and
/// runs the trial kernel with the preset's config and launch. Output YLTs
/// of presets that set bit_identical_to_sequential are bit-identical to
/// EngineKind::kSequential for the same request. Serves
/// OutputMode::kMaterialized only — a sharded config is redirected (by
/// error message) to shard::run_sharded, which owns the sharded table.
YearLossTable run(const AnalysisRequest& request);

/// Sink front door: same checks as run(), then the kernel emits finished
/// trial-range blocks into `sink` instead of an owned YearLossTable.
/// Presets that set bit_identical_to_sequential deliver exactly the bytes
/// the sequential engine would have produced for every cell.
void run_to_sink(const AnalysisRequest& request, YltSink& sink);

}  // namespace are::core
