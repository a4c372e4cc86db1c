#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <vector>

namespace are::obs {

namespace {

std::string sanitize(std::string_view dotted) {
  std::string out;
  out.reserve(dotted.size());
  for (char c : dotted) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// An instrument name split on the optional `{key=value,...}` label suffix
/// (see export.hpp): `base` is the sanitized, "are_"-prefixed family name,
/// `labels` the rendered Prometheus label block (`{key="value",...}`) or
/// empty. Unlabelled names render exactly as before this convention existed.
struct PromName {
  std::string base;
  std::string labels;

  /// The label block with one extra `key="value"` pair appended (the
  /// histogram `le` bound).
  std::string labels_with(const std::string& key, const std::string& value) const {
    if (labels.empty()) return "{" + key + "=\"" + value + "\"}";
    return labels.substr(0, labels.size() - 1) + "," + key + "=\"" + value + "\"}";
  }
};

PromName prometheus_name(const std::string& dotted) {
  PromName name;
  const std::size_t brace = dotted.find('{');
  name.base = "are_" + sanitize(std::string_view(dotted).substr(0, brace));
  if (brace == std::string::npos) return name;
  // Parse `key=value` pairs between the braces; values are quoted on the
  // way out (the in-registry convention stores them bare so JSON/CSV names
  // need no escaping).
  std::string labels = "{";
  std::string_view body = std::string_view(dotted).substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  std::size_t start = 0;
  bool first = true;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string_view pair = body.substr(start, comma - start);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      if (!first) labels += ",";
      first = false;
      labels += sanitize(pair.substr(0, eq));
      labels += "=\"";
      labels += std::string(pair.substr(eq + 1));
      labels += "\"";
    }
    start = comma + 1;
  }
  labels += "}";
  if (labels != "{}") name.labels = labels;
  return name;
}

constexpr double kQuantiles[] = {0.50, 0.95, 0.99};
constexpr const char* kQuantileSuffix[] = {"p50_ns", "p95_ns", "p99_ns"};

void write_json_object(std::ostream& out, const Snapshot& snapshot) {
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << snapshot.counters[i].name << "\":" << snapshot.counters[i].value;
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << snapshot.gauges[i].name << "\":" << snapshot.gauges[i].value;
  }
  out << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i != 0) out << ",";
    out << "\"" << h.name << "\":{\"count\":" << h.count << ",\"sum_ns\":" << h.sum_ns
        << ",\"min_ns\":" << h.min_ns << ",\"max_ns\":" << h.max_ns;
    for (std::size_t q = 0; q < 3; ++q) {
      out << ",\"" << kQuantileSuffix[q] << "\":" << h.quantile_ns(kQuantiles[q]);
    }
    out << "}";
  }
  out << "}}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_snapshot_json(std::ostream& out, const Snapshot& snapshot) {
  write_json_object(out, snapshot);
  out << "\n";
}

void write_snapshot_csv(std::ostream& out, const Snapshot& snapshot) {
  out << "kind,name,value\n";
  for (const auto& c : snapshot.counters) out << "counter," << c.name << "," << c.value << "\n";
  for (const auto& g : snapshot.gauges) out << "gauge," << g.name << "," << g.value << "\n";
  for (const auto& h : snapshot.histograms) {
    out << "histogram," << h.name << ".count," << h.count << "\n";
    out << "histogram," << h.name << ".sum_ns," << h.sum_ns << "\n";
    out << "histogram," << h.name << ".min_ns," << h.min_ns << "\n";
    out << "histogram," << h.name << ".max_ns," << h.max_ns << "\n";
    for (std::size_t q = 0; q < 3; ++q) {
      out << "histogram," << h.name << "." << kQuantileSuffix[q] << ","
          << h.quantile_ns(kQuantiles[q]) << "\n";
    }
  }
}

void write_snapshot_prometheus(std::ostream& out, const Snapshot& snapshot) {
  // The snapshot is sorted by instrument name, so labelled members of one
  // family (`service.quote_ns{source=...}`) are adjacent; tracking the last
  // TYPE emitted keeps each family's series grouped under a single TYPE
  // line, as the exposition format requires.
  std::string last_type;
  const auto type_line = [&](const std::string& family, const char* kind) {
    if (family == last_type) return;
    out << "# TYPE " << family << " " << kind << "\n";
    last_type = family;
  };

  for (const auto& c : snapshot.counters) {
    const PromName name = prometheus_name(c.name);
    type_line(name.base + "_total", "counter");
    out << name.base << "_total" << name.labels << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const PromName name = prometheus_name(g.name);
    type_line(name.base, "gauge");
    out << name.base << name.labels << " " << g.value << "\n";
  }
  // Histograms: real Prometheus histogram families — cumulative
  // `_bucket{le="..."}` counts over the power-of-two ns bounds, `_sum` /
  // `_count` — followed by derived p50/p95/p99 gauges and the exact
  // min/max gauges (which a cumulative exposition cannot carry).
  for (const auto& h : snapshot.histograms) {
    const PromName name = prometheus_name(h.name);
    type_line(name.base, "histogram");
    std::size_t highest = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) highest = b;
    }
    // The top bucket's nominal bound is a lie (it absorbs everything
    // beyond), so its samples ride in +Inf alone.
    if (highest > Histogram::kBuckets - 2) highest = Histogram::kBuckets - 2;
    std::uint64_t cumulative = 0;
    if (h.count != 0) {
      for (std::size_t b = 0; b <= highest; ++b) {
        cumulative += h.buckets[b];
        out << name.base << "_bucket"
            << name.labels_with("le", std::to_string(Histogram::bucket_upper_ns(b))) << " "
            << cumulative << "\n";
      }
    }
    out << name.base << "_bucket" << name.labels_with("le", "+Inf") << " " << h.count << "\n";
    out << name.base << "_sum" << name.labels << " " << h.sum_ns << "\n";
    out << name.base << "_count" << name.labels << " " << h.count << "\n";
  }
  for (std::size_t q = 0; q < 3; ++q) {
    for (const auto& h : snapshot.histograms) {
      const PromName name = prometheus_name(h.name);
      const std::string family = name.base + "_" + kQuantileSuffix[q];
      type_line(family, "gauge");
      out << family << name.labels << " " << h.quantile_ns(kQuantiles[q]) << "\n";
    }
  }
  for (const char* extreme : {"min_ns", "max_ns"}) {
    for (const auto& h : snapshot.histograms) {
      const PromName name = prometheus_name(h.name);
      const std::string family = name.base + "_" + extreme;
      type_line(family, "gauge");
      out << family << name.labels << " "
          << (extreme[1] == 'i' ? h.min_ns : h.max_ns) << "\n";
    }
  }
}

std::string snapshot_json_object(const Snapshot& snapshot) {
  std::ostringstream out;
  write_json_object(out, snapshot);
  return out.str();
}

}  // namespace are::obs
