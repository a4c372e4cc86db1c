#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Nearest rank (1-based) of the q-quantile of n samples: the smallest r
/// with r >= q * n.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q,
                                      std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(n, q);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median_group_rate(std::vector<Completion> completions, std::int64_t start_ns,
                         std::size_t groups) {
  const std::size_t n = completions.size();
  if (n == 0 || groups == 0) return 0.0;
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) { return a.end_ns < b.end_ns; });
  const std::size_t runs = std::min(groups, n);
  std::vector<double> rates;
  std::int64_t begin_ns = start_ns;
  for (std::size_t g = 0; g < runs; ++g) {
    double amount = 0.0;
    const std::size_t last = (g + 1) * n / runs;
    for (std::size_t i = g * n / runs; i < last; ++i) amount += completions[i].amount;
    const std::int64_t end_ns = completions[last - 1].end_ns;
    if (end_ns > begin_ns) rates.push_back(amount / (static_cast<double>(end_ns - begin_ns) * 1e-9));
    begin_ns = end_ns;
  }
  return median(std::move(rates));
}

std::string Ratio::describe() const {
  char buf[256];
  if (denominator == 0.0) {
    std::snprintf(buf, sizeof buf, "0 (no %s)", base.c_str());
  } else {
    std::snprintf(buf, sizeof buf, "%.6g (= %.6g / %.6g %s)", value(), numerator, denominator,
                  base.c_str());
  }
  return buf;
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = median(samples);
  summary.p90 = tail_percentile(samples, 0.90);
  summary.p99 = tail_percentile(samples, 0.99);
  return summary;
}

std::string LatencySummary::describe(const std::string& name) const {
  const auto part = [&](const char* label, std::optional<double> v) {
    char piece[96];
    if (v.has_value()) {
      std::snprintf(piece, sizeof piece, "%s_%s_ms=%.4g ", name.c_str(), label, *v);
    } else {
      std::snprintf(piece, sizeof piece, "%s_%s_ms=n/a ", name.c_str(), label);
    }
    return std::string(piece);
  };
  return part("p50", p50) + part("p90", p90) + part("p99", p99) + "(n=" +
         std::to_string(count) + ")";
}

}  // namespace perfbench
