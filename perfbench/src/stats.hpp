#pragma once

// The benchmark's own arithmetic: medians, tail percentiles under the
// "at least ten samples beyond it" rule, and ratios that carry their base.
// Exercised on synthetic inputs by `perfbench --self-check`.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the middle two for an even count);
/// 0 for an empty set.
double median(std::vector<double> samples);

/// Nearest-rank q-quantile (q in (0,1)) of the samples, reported only when
/// at least `min_beyond` samples lie strictly above its rank — p90 of 99
/// samples has 9 beyond it and is withheld, p90 of 100 samples is reported.
std::optional<double> tail_percentile(std::vector<double> samples, double q,
                                      std::size_t min_beyond = 10);

/// Something a closed loop finished (a deal, or one quote): when it ended
/// and how much it counts for (quotes, lookups).
struct Completion {
  std::int64_t end_ns = 0;
  double amount = 0.0;
};

/// Median rate of `groups` consecutive runs of completions of near-equal
/// count, in time order: a run's amount over the time from the end before
/// it (`start_ns` for the first) to its own last end, per second. A stall
/// slows the few runs it falls in and leaves the median where it was.
/// Fewer completions than groups give one run per completion; none give 0.
double median_group_rate(std::vector<Completion> completions, std::int64_t start_ns,
                         std::size_t groups);

/// A ratio printed with its base: "0.25 (= 5 / 20 share of X)". A zero
/// denominator gives value 0 and says so in the text.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  std::string base;  ///< what the denominator counts

  double value() const noexcept { return denominator != 0.0 ? numerator / denominator : 0.0; }
  std::string describe() const;
};

/// Summary of a latency sample set in milliseconds: median, the p90 and
/// p99 when the rule allows them, and n.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  std::optional<double> p90;
  std::optional<double> p99;
  /// "<name>_p50_ms=1.2 <name>_p90_ms=n/a <name>_p99_ms=n/a (n=42)".
  std::string describe(const std::string& name) const;
};
LatencySummary summarize(const std::vector<double>& samples);

}  // namespace perfbench
