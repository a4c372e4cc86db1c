#pragma once

// Exporters for a telemetry Snapshot: JSON (machine-readable, the CI smoke
// schema target), CSV (spreadsheet triage), and Prometheus text exposition
// (the future resident service's /metrics). The Chrome-trace exporter
// lives with the buffer in obs/trace.hpp.

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"

namespace are::obs {

/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum_ns,min_ns,max_ns}}}
void write_snapshot_json(std::ostream& out, const Snapshot& snapshot);

/// kind,name,value rows (histograms expand to .count/.sum_ns/.min_ns/.max_ns).
void write_snapshot_csv(std::ostream& out, const Snapshot& snapshot);

/// Prometheus text format: dotted names sanitised ('.' and '-' -> '_') and
/// prefixed "are_"; counters get a _total suffix, histogram aggregates
/// become are_<name>_{count,sum_ns,min_ns,max_ns} gauges.
void write_snapshot_prometheus(std::ostream& out, const Snapshot& snapshot);

/// `s` escaped for use inside a JSON string literal: quote, backslash and
/// control characters become escape sequences; other bytes pass through.
std::string json_escape(std::string_view s);

/// The snapshot as a JSON object fragment (no trailing newline), for
/// embedding — bench records thread this into their `extra` field.
std::string snapshot_json_object(const Snapshot& snapshot);

}  // namespace are::obs
