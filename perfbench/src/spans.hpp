#pragma once

// In-memory span recorder for the traced run. The benchmark records a span
// around every public call it makes into the library (and synthesizes child
// records from what the server reports per request); spans stay in memory
// and are written out once, when the run ends. A layer's self time is its
// span's duration minus the part of that interval its children cover.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns() noexcept;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent record, -1 for a root
  std::string request_id;
};

/// Self time of every record: duration minus the union of its children's
/// intervals clipped to the record (overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records);

class SpanRecorder {
 public:
  /// Appends a finished record (e.g. one synthesized from a server
  /// report); returns its index, the parent handle for children.
  /// Thread-safe, like open/close.
  std::int64_t add(SpanRecord record);

  /// Starts a record now and returns its index, so children can name it as
  /// parent before it ends; close() stamps its end.
  std::int64_t open(std::string name, std::int64_t parent, std::string request_id);
  void close(std::int64_t index);

  /// Snapshot of all records so far.
  std::vector<SpanRecord> records() const;

  /// Self time summed per span name, in seconds.
  std::map<std::string, double> self_seconds_by_name() const;
  /// Number of records per span name.
  std::map<std::string, std::size_t> count_by_name() const;

  /// One JSON object per line: name, start/end ns, parent, request id.
  void write_jsonl(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span: records [construction, destruction) under `parent`. A null
/// recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::int64_t parent = -1,
             std::string request_id = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The record's index: the parent handle for child spans (-1 without a
  /// recorder).
  std::int64_t index() const noexcept { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_ = -1;
};

}  // namespace perfbench
