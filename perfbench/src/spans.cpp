#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(records.size());
  for (const SpanRecord& record : records) {
    if (record.parent < 0 || static_cast<std::size_t>(record.parent) >= records.size()) continue;
    children[static_cast<std::size_t>(record.parent)].emplace_back(record.start_ns,
                                                                   record.end_ns);
  }
  std::vector<std::int64_t> self(records.size(), 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int64_t begin = records[i].start_ns;
    const std::int64_t end = records[i].end_ns;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = begin;  // everything before cursor is accounted for
    for (auto [child_begin, child_end] : intervals) {
      child_begin = std::max(child_begin, cursor);
      child_end = std::min(child_end, end);
      if (child_end <= child_begin) continue;
      covered += child_end - child_begin;
      cursor = child_end;
    }
    self[i] = std::max<std::int64_t>(0, end - begin - covered);
  }
  return self;
}

std::int64_t SpanRecorder::add(SpanRecord record) {
  std::lock_guard<std::mutex> guard(mutex_);
  records_.push_back(std::move(record));
  return static_cast<std::int64_t>(records_.size()) - 1;
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent, std::string request_id) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = parent;
  record.request_id = std::move(request_id);
  record.start_ns = now_ns();
  return add(std::move(record));
}

void SpanRecorder::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> guard(mutex_);
  records_.at(static_cast<std::size_t>(index)).end_ns = end;
}

std::vector<SpanRecord> SpanRecorder::records() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return records_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_name() const {
  const std::vector<SpanRecord> all = records();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) out[all[i].name] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

std::map<std::string, std::size_t> SpanRecorder::count_by_name() const {
  std::map<std::string, std::size_t> out;
  for (const SpanRecord& record : records()) ++out[record.name];
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (const SpanRecord& record : records()) {
    out << "{\"name\":\"" << record.name << "\",\"start_ns\":" << record.start_ns
        << ",\"end_ns\":" << record.end_ns << ",\"parent\":" << record.parent
        << ",\"request_id\":\"" << record.request_id << "\"}\n";
  }
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name, std::int64_t parent,
                       std::string request_id)
    : recorder_(recorder) {
  if (recorder_ != nullptr) index_ = recorder_->open(std::move(name), parent, std::move(request_id));
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->close(index_);
}

}  // namespace perfbench
