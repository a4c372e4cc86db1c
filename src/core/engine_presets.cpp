#include "core/engine_presets.hpp"

#include <array>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace are::core {

namespace {

/// The runtime-dispatch facts for this (binary, host) pair: which kernel
/// TUs the build linked, what this host's cpuid reports, and which of them
/// kAuto therefore executes — the note CI greps to prove a baseline
/// (-DARE_MARCH_NATIVE=OFF) binary still runs the wide kernels.
std::string simd_dispatch_note() {
  return "compiled: " + simd::describe_mask(simd::compiled_extensions()) +
         "; cpuid: " + simd::describe_mask(simd::detected_extensions()) +
         "; auto runs " + std::string(simd::name_of(simd::best_extension())) + " (" +
         simd::best_extension_reason() + ")";
}

using Schedule = KernelLaunch::Schedule;

}  // namespace

std::span<const EnginePreset> engine_presets() {
  static const std::array<EnginePreset, 8> table = {{
      {
          .kind = EngineKind::kSequential,
          .name = "seq",
          .summary = "sequential reference engine (the bit-identity anchor)",
          .schedule = Schedule::kSerial,
          .bit_identical_to_sequential = true,
      },
      {
          .kind = EngineKind::kParallel,
          .name = "parallel",
          .summary = "thread-pool trial parallelism (static/dynamic/guided partition)",
          .schedule = Schedule::kPool,
          .reads_partition = true,
          .reads_partition_chunk = true,
          .supports_pool_reuse = true,
          .bit_identical_to_sequential = true,
      },
      {
          .kind = EngineKind::kChunked,
          .name = "chunked",
          .summary = "event-chunked kernel staging, the CPU analogue of the paper's GPU kernel",
          .schedule = Schedule::kPool,
          .reads_chunk_size = true,
          .bit_identical_to_sequential = true,
      },
      {
          .kind = EngineKind::kOpenMp,
          .name = "openmp",
          .summary = "OpenMP trial parallelism (paper's multi-core implementation)",
          .schedule = Schedule::kOpenMp,
          .bit_identical_to_sequential = true,
          .availability_note = openmp_available()
                                   ? "OpenMP compiled in; directives run"
                                   : "OpenMP not compiled in; bit-identical thread-pool "
                                     "fallback runs (see InstrumentationSink::openmp_used)",
      },
      {
          .kind = EngineKind::kSimd,
          .name = "simd",
          .summary = "lane-parallel batch engine: the kernel at the resolved vector width",
          .schedule = Schedule::kPool,
          .resolved_lanes = true,
          .supports_pool_reuse = true,
          .bit_identical_to_sequential = true,
          .availability_note = simd_dispatch_note(),
      },
      {
          .kind = EngineKind::kWindowed,
          .name = "windowed",
          .summary = "sequential engine with a mid-year coverage window",
          .schedule = Schedule::kSerial,
          // A real window changes the YLT by design; only the full-year
          // default matches seq, so the flag stays false for the CI CSV diff.
          .bit_identical_to_sequential = false,
      },
      {
          .kind = EngineKind::kFused,
          .name = "fused",
          .summary = "trial-tiled single-pass engine: all layers per tile, cost-aware "
                     "scheduling, widest lanes",
          .schedule = Schedule::kCosted,
          .resolved_lanes = true,
          .reads_partition = true,
          .reads_tile_trials = true,
          .supports_pool_reuse = true,
          // Bit-identical for the default full-year coverage (what CI
          // diffs); a real mid-year window changes the YLT exactly as it
          // does for the windowed row.
          .bit_identical_to_sequential = true,
          .availability_note = simd_dispatch_note() +
                               "; a non-full-year --window changes the YLT by design "
                               "(same semantics as the windowed engine)",
      },
      {
          .kind = EngineKind::kInstrumented,
          .name = "instrumented",
          .summary = "sequential engine with Fig-6b phase timers and access counters",
          .schedule = Schedule::kSerial,
          .always_instrument = true,
          .bit_identical_to_sequential = true,
      },
  }};
  return table;
}

const EnginePreset& find_engine(EngineKind kind) {
  for (const EnginePreset& preset : engine_presets()) {
    if (preset.kind == kind) return preset;
  }
  throw std::invalid_argument("no engine preset for kind " +
                              std::to_string(static_cast<int>(kind)));
}

const EnginePreset* find_engine(std::string_view name) noexcept {
  for (const EnginePreset& preset : engine_presets()) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

const EnginePreset& require_engine(std::string_view name) {
  if (const EnginePreset* preset = find_engine(name)) return *preset;
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (known engines: " + known_engine_names() + ")");
}

std::string known_engine_names() {
  std::string names;
  for (const EnginePreset& preset : engine_presets()) {
    if (!names.empty()) names += ", ";
    names += preset.name;
  }
  return names;
}

}  // namespace are::core
