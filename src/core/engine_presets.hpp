#pragma once

// The engine preset table. Every engine is a parameter preset over the one
// trial-block kernel (core/trial_kernel.hpp): a row names a schedule, a lane
// policy and the AnalysisConfig knobs it forwards to the kernel, and
// core::run() turns (row, config) into the kernel config + launch. Adding
// an engine is adding a row (and an EngineKind enumerator) — no
// per-engine code. The CLI's --engine, list-engines, the service and every
// sweep read this one table.

#include <span>
#include <string>
#include <string_view>

#include "core/analysis.hpp"
#include "core/trial_kernel.hpp"

namespace are::core {

/// One engine: which kernel execution it selects and the facts
/// list-engines and CI introspect. Every row runs the shared kernel, so
/// windows, the Fig-6b breakdown and sink (sharded) output hold for all of
/// them; what differs is scheduling, lane width and the knobs read.
struct EnginePreset {
  EngineKind kind = EngineKind::kSequential;
  /// Canonical name ("seq", "parallel", ...): lowercase, unique.
  std::string name;
  /// One-line description for list-engines.
  std::string summary;

  /// How kernel blocks are scheduled onto threads.
  KernelLaunch::Schedule schedule = KernelLaunch::Schedule::kSerial;
  /// Lane policy: false = scalar; true = AnalysisConfig::simd_extension
  /// resolved through resolve_simd_extension_ex (kAuto = runtime dispatch
  /// plus the cache-regime narrowing).
  bool resolved_lanes = false;

  /// The AnalysisConfig knobs this row forwards; the others keep the
  /// kernel defaults. partition -> launch.partition,
  /// partition_chunk -> launch.chunk, chunk_size -> event_chunk,
  /// tile_trials -> block_trials.
  bool reads_partition = false;
  bool reads_partition_chunk = false;
  bool reads_chunk_size = false;
  bool reads_tile_trials = false;

  /// Fills the phase breakdown even without AnalysisConfig::collect_phases.
  bool always_instrument = false;

  /// Honours AnalysisConfig::pool; run() rejects a pool otherwise.
  bool supports_pool_reuse = false;
  /// YLT is byte-for-byte equal to kSequential for any full-year request —
  /// the contract CI enforces by diffing CSVs against seq.
  bool bit_identical_to_sequential = false;
  /// Build/host-dependent detail (OpenMP presence, the SIMD dispatch
  /// decision), printed by list-engines; empty when there is none.
  std::string availability_note;
};

/// Every preset, in list-engines order; one row per EngineKind.
std::span<const EnginePreset> engine_presets();

/// The row for `kind` (every enumerator has one).
const EnginePreset& find_engine(EngineKind kind);

/// nullptr when no row has that name.
const EnginePreset* find_engine(std::string_view name) noexcept;

/// Throwing name lookup; the message lists the known names so CLI typos
/// are self-explanatory.
const EnginePreset& require_engine(std::string_view name);

/// Comma-separated canonical names, for error messages and usage text.
std::string known_engine_names();

}  // namespace are::core
