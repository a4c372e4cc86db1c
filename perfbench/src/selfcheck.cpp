// `perfbench --self-check`: the benchmark's own arithmetic on synthetic
// inputs, no workload — the percentile rule, median group rates, span
// self-time subtraction, ratios printed with their base, and the reply
// parser's exact doubles.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "harness.hpp"
#include "json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL " << what << '\n';
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void check_percentiles() {
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  // p90 needs >= 10 samples beyond its rank: 99 samples leave 9, 100 leave 10.
  expect(!tail_percentile(one_to(99), 0.9).has_value(), "p90 withheld at n=99");
  const auto p90 = tail_percentile(one_to(100), 0.9);
  expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");
  expect(!tail_percentile(one_to(999), 0.99).has_value(), "p99 withheld at n=999");
  const auto p99 = tail_percentile(one_to(1000), 0.99);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  const auto p50 = tail_percentile(one_to(20), 0.5);
  expect(p50.has_value() && *p50 == 10.0, "p50 of 1..20 is 10 (nearest rank)");
  expect(!tail_percentile(one_to(19), 0.5).has_value(), "p50 withheld at n=19 (9 beyond)");
  const LatencySummary summary = summarize(one_to(150));
  expect(summary.count == 150 && summary.p50 == 75.5 && summary.p90 == 135.0 && !summary.p99,
         "summary of 1..150");
  expect(summary.describe("cold") == "cold_p50_ms=75.5 cold_p90_ms=135 cold_p99_ms=n/a (n=150)",
         "summary prints each percentile by name, withheld ones as n/a");
}

void check_group_rates() {
  // 100 completions of 2 units every 10 ms from t=0: 200 units/s in every run.
  std::vector<Completion> steady;
  for (std::int64_t i = 1; i <= 100; ++i) steady.push_back({i * 10'000'000, 2.0});
  expect(std::abs(median_group_rate(steady, 0, 10) - 200.0) < 1e-9, "steady rate is 200/s");
  // A 1 s stall before completion 31 slows run 4 of 10 (and the window mean
  // to 100/s), not the median; input order does not matter.
  std::vector<Completion> stalled = steady;
  for (std::size_t i = 30; i < stalled.size(); ++i) stalled[i].end_ns += 1'000'000'000;
  std::swap(stalled.front(), stalled.back());
  expect(std::abs(median_group_rate(stalled, 0, 10) - 200.0) < 1e-9,
         "a stall in one run leaves the median rate");
  expect(std::abs(median_group_rate({{500'000'000, 1.0}}, 0, 10) - 2.0) < 1e-9,
         "one completion is one run");
  expect(median_group_rate({}, 0, 10) == 0.0, "no completions give 0");
}

void check_self_time() {
  // parent [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // a child [90,120) sticks out and counts only inside [90,100).
  std::vector<SpanRecord> records = {
      {"parent", 0, 100, -1, "q-1"},
      {"a", 10, 30, 0, "q-1"},
      {"b", 20, 50, 0, "q-1"},
      {"c", 90, 120, 0, "q-1"},
      {"grandchild", 12, 18, 1, "q-1"},
  };
  const std::vector<std::int64_t> self = self_times_ns(records);
  expect(self[0] == 100 - 40 - 10, "parent self time subtracts the union of its children");
  expect(self[1] == 20 - 6, "child self time subtracts the grandchild");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time is the duration");
  // Disjoint children fully covering the parent leave no self time.
  const std::vector<SpanRecord> full = {{"p", 0, 10, -1, ""}, {"x", 0, 4, 0, ""},
                                        {"y", 4, 10, 0, ""}};
  expect(self_times_ns(full)[0] == 0, "fully covered parent has no self time");

  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer");
    ScopedSpan inner(&recorder, "inner", outer.index(), "q-2");
  }
  const std::vector<SpanRecord> live = recorder.records();
  expect(live.size() == 2 && live[1].parent == 0 && live[1].request_id == "q-2" &&
             live[0].end_ns >= live[1].end_ns && live[1].start_ns >= live[0].start_ns,
         "scoped spans nest under their parent");
  ScopedSpan disabled(nullptr, "off");
  expect(disabled.index() == -1, "a span without a recorder is a no-op");
}

void check_ratios() {
  const Ratio ratio{5.0, 20.0, "requests attempted"};
  expect(ratio.value() == 0.25, "ratio value");
  expect(ratio.describe() == "0.25 (= 5 / 20 requests attempted)", "ratio prints its base");
  const Ratio empty{0.0, 0.0, "cache-enabled quotes"};
  expect(empty.value() == 0.0 && empty.describe() == "0 (no cache-enabled quotes)",
         "ratio over nothing says so");
}

void check_json() {
  const double value = 0.1 + 0.2;  // not representable in short decimal
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  const JsonValue doc = parse_json(std::string("{\"status\":\"ok\",\"quotes\":[{\"tvar\":") + buf +
                                   "}],\"phases\":null,\"n\":-1.5e3,\"flag\":true}");
  expect(doc["status"].text == "ok", "json string member");
  const double parsed = doc["quotes"].items.at(0)["tvar"].number;
  expect(std::memcmp(&parsed, &value, sizeof value) == 0, "%.17g round-trips bit-exact");
  expect(doc["phases"].is_null() && doc["missing"].is_null(), "null and absent members");
  expect(doc["n"].number == -1500.0 && doc["flag"].boolean, "numbers and booleans");
  bool threw = false;
  try {
    (void)parse_json("{\"a\":1,}");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "malformed json is rejected");
}

void check_metric_names() {
  Result result;
  bool threw = false;
  try {
    result.set("no.such.metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "unknown metric names are rejected");
  result.set("setup_s", 1.0);
  result.set("obs.trace_overhead", -0.01);
  expect(result.values.size() == 2, "known metric names are accepted");
}

}  // namespace

int run_self_check() {
  check_percentiles();
  check_group_rates();
  check_self_time();
  check_ratios();
  check_json();
  check_metric_names();
  std::cout << "self-check: " << (g_checks - g_failures) << "/" << g_checks << " checks passed\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
