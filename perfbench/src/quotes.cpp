// quote_session and quote_concurrent: an in-process AnalysisService behind
// Server::serve(), configured as `are_cli serve` configures it (telemetry
// counters on, default broker, result cache, shared pool, `fused` engine),
// reached over its AF_UNIX socket with Server::round_trip. Every client is a
// closed loop: it sends its next request only after the previous reply.
//
//   quote_session     one underwriter working through seeded deals:
//                     re-register the book with a new ELT subset, a cold
//                     QUOTE (captures ground-up losses), terms-only QUOTEs
//                     (delta), a revisit of earlier terms (cache hit), a
//                     durable UPDATE, and a QUOTE after it (delta).
//   quote_concurrent  nproc clients on nproc books sharing one YET, each
//                     sending `QUOTE cache=0 delta=0` — every quote a plain
//                     cold run, so broker admission and pool contention do
//                     the work.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include "core/analysis.hpp"
#include "harness.hpp"
#include "json.hpp"
#include "metrics/ep_curve.hpp"
#include "obs/telemetry.hpp"
#include "pricing/pricing.hpp"
#include "service/analysis_service.hpp"
#include "service/server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace core = are::core;
namespace service = are::service;

constexpr std::size_t kCatalog = 100'000;
constexpr std::uint64_t kTrials = 10'000;
constexpr double kEventsPerTrial = 250.0;
constexpr std::size_t kLayers = 2;
constexpr std::size_t kEltsPerLayer = 6;
/// ELTs on disk; each book (and each re-registration) draws its subset.
constexpr std::size_t kPoolElts = 16;
constexpr std::size_t kEltEntries = 10'000;
constexpr int kSetups = 11;
constexpr std::size_t kDeltasPerDeal = 4;
/// Quotes checked bit-exact against seq + price_layer per run.
constexpr std::size_t kChecks = 16;
/// Stretches of the window whose median rate is reported.
constexpr std::size_t kRateGroups = 20;

/// The resident service plus its socket front end, serving on a thread
/// until destroyed.
class LiveService {
 public:
  LiveService(are::yet::YearEventTable yet, std::string socket_path)
      : socket_(std::move(socket_path)) {
    // What `are_cli serve` sets up: counters on for the life of the server,
    // otherwise the default ServiceConfig (fused engine, cache, broker).
    are::obs::set_enabled(true);
    service::ServiceConfig config;
    service_ = std::make_unique<service::AnalysisService>(std::move(yet), std::move(config));
    service::ServerOptions options;
    options.socket_path = socket_;
    server_ = std::make_unique<service::Server>(*service_, options);
    thread_ = std::thread([this] {
      try {
        server_->serve();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: serve failed: %s\n", error.what());
      }
    });
  }

  ~LiveService() {
    server_->request_stop();
    thread_.join();
  }

  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  /// Blocks until the socket answers PING (the bind is part of setup).
  void wait_ready() const {
    const std::int64_t start = now_ns();
    for (;;) {
      try {
        if (service::Server::round_trip(socket_, "PING").find("\"ok\"") != std::string::npos) {
          return;
        }
      } catch (const std::exception&) {
        // not bound yet
      }
      if (seconds_since(start) > 10.0) throw std::runtime_error("server did not come up");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  service::AnalysisService& service() { return *service_; }

 private:
  std::string socket_;
  std::unique_ptr<service::AnalysisService> service_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

/// One request/response as the client saw it.
struct Exchange {
  bool is_update = false;
  std::string expected;  ///< source the quote must come back with
  std::string status;    ///< empty on a transport or parse failure
  std::string source;
  bool ok = false;  ///< status ok and, for quotes, the expected source
  bool rejected = false;
  double client_ms = 0.0;
  double server_ms = 0.0;
  double queue_wait_ms = 0.0;
  std::optional<core::PhaseBreakdown> phases;
  std::uint64_t lookups = 0;
  std::uint64_t captured = 0;
  std::uint64_t replayed = 0;
};

/// A quote kept for the bit-exact check: the terms it was priced under and
/// the five numbers per layer that came back on the wire.
struct Check {
  core::Portfolio effective;
  std::vector<double> wire;
  std::string line;
};

std::string terms_fields(const are::financial::LayerTerms& terms) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "occ-retention=%.17g occ-limit=%.17g agg-retention=%.17g "
                "agg-limit=%.17g", terms.occurrence_retention, terms.occurrence_limit,
                terms.aggregate_retention, terms.aggregate_limit);
  return buf;
}

std::uint64_t counter_sum(const JsonValue& counters, bool (*match)(const std::string&)) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters.members) {
    if (match(name)) total += static_cast<std::uint64_t>(value.number);
  }
  return total;
}

/// One closed-loop client: sends a line, times the round trip, parses and
/// classifies the reply, and records the synthesized server-side child
/// spans in a traced run.
class Client {
 public:
  Client(std::string socket, std::size_t check_budget, std::uint64_t seed)
      : socket_(std::move(socket)), check_budget_(check_budget), rng_(seed) {}

  /// Non-null from now on makes every request traced (phases=1 + spans).
  void set_traced(SpanRecorder* spans) { spans_ = spans; }

  /// Sends a QUOTE; `effective` is the book with the request's overrides,
  /// what the reply must have been priced under.
  void quote(const std::string& line, const std::string& expected,
             const core::Portfolio& effective, std::int64_t parent = -1) {
    const std::string full = spans_ != nullptr ? line + " phases=1" : line;
    Exchange exchange;
    exchange.expected = expected;
    const JsonValue reply = send(full, exchange, parent);
    if (!reply.is_null()) {
      classify(reply, exchange);
      if (exchange.ok) maybe_keep_check(reply, effective, full);
    }
    exchanges_.push_back(std::move(exchange));
  }

  void update(const std::string& line, std::int64_t parent = -1) {
    Exchange exchange;
    exchange.is_update = true;
    const JsonValue reply = send(line, exchange, parent);
    exchange.status = reply["status"].text;
    exchange.ok = exchange.status == "ok";
    exchanges_.push_back(std::move(exchange));
  }

  std::vector<Exchange>& exchanges() { return exchanges_; }
  std::vector<Check>& checks() { return checks_; }

 private:
  /// One round trip; a null reply on transport or parse failure.
  JsonValue send(const std::string& line, Exchange& exchange, std::int64_t parent) {
    last_round_trip_ = -1;
    const std::int64_t t0 = now_ns();
    JsonValue reply;
    try {
      reply = parse_json(service::Server::round_trip(socket_, line));
    } catch (const std::exception&) {
      exchange.client_ms = seconds_since(t0) * 1e3;
      return {};
    }
    const std::int64_t t1 = now_ns();
    exchange.client_ms = static_cast<double>(t1 - t0) * 1e-6;
    if (spans_ != nullptr) {
      last_record_ = {"server.round_trip", t0, t1, parent, reply["request_id"].text};
      last_round_trip_ = spans_->add(last_record_);
    }
    return reply;
  }

  void classify(const JsonValue& reply, Exchange& exchange) {
    exchange.status = reply["status"].text;
    exchange.source = reply["source"].text;
    exchange.rejected = exchange.status == "rejected";
    exchange.ok = exchange.status == "ok" && exchange.source == exchange.expected;
    exchange.server_ms = reply["wall_seconds"].number * 1e3;
    exchange.queue_wait_ms = reply["admission"]["queue_wait_seconds"].number * 1e3;
    const JsonValue& phases = reply["phases"];
    if (!phases.is_null()) {
      exchange.phases = core::PhaseBreakdown{
          phases["fetch_seconds"].number, phases["lookup_seconds"].number,
          phases["financial_seconds"].number, phases["layer_seconds"].number,
          phases["output_seconds"].number};
    }
    const JsonValue& counters = reply["telemetry"]["counters"];
    exchange.lookups = counter_sum(counters, [](const std::string& name) {
      return name.rfind("elt.", 0) == 0 && name.size() > 8 &&
             name.compare(name.size() - 8, 8, ".lookups") == 0;
    });
    exchange.captured = counter_sum(counters, [](const std::string& name) {
      return name == "kernel.ground_up.captured_events";
    });
    exchange.replayed = counter_sum(counters, [](const std::string& name) {
      return name == "kernel.ground_up.replayed_events";
    });
    if (spans_ != nullptr && last_round_trip_ >= 0) {
      // Server-reported times become children of the client span: the
      // service's wall inside the round trip, the admission wait inside it.
      const SpanRecord& outer = last_record_;
      const auto wall_ns = static_cast<std::int64_t>(exchange.server_ms * 1e6);
      const std::int64_t begin = outer.start_ns + (outer.end_ns - outer.start_ns - wall_ns) / 2;
      const std::int64_t quote_index =
          spans_->add({"service.quote", begin, begin + wall_ns, last_round_trip_, outer.request_id});
      const auto wait_ns = static_cast<std::int64_t>(exchange.queue_wait_ms * 1e6);
      if (wait_ns > 0) {
        spans_->add({"broker.queue_wait", begin, begin + wait_ns, quote_index, outer.request_id});
      }
    }
  }

  /// Reservoir sample of ok quotes for the bit-exact check.
  void maybe_keep_check(const JsonValue& reply, const core::Portfolio& effective,
                        const std::string& line) {
    ++ok_quotes_;
    std::size_t slot = checks_.size();
    if (checks_.size() >= check_budget_) {
      slot = static_cast<std::size_t>(rng_() % ok_quotes_);
      if (slot >= check_budget_) return;
    }
    Check check{effective, {}, line};
    for (const JsonValue& q : reply["quotes"].items) {
      for (const char* key :
           {"expected_loss", "stddev", "tvar", "technical_premium", "rate_on_line"}) {
        check.wire.push_back(q[key].number);
      }
    }
    if (slot == checks_.size()) {
      checks_.push_back(std::move(check));
    } else {
      checks_[slot] = std::move(check);
    }
  }

  std::string socket_;
  SpanRecorder* spans_ = nullptr;
  std::size_t check_budget_;
  are::rng::SplitMix64 rng_;
  std::vector<Exchange> exchanges_;
  std::vector<Check> checks_;
  std::uint64_t ok_quotes_ = 0;
  std::int64_t last_round_trip_ = -1;
  SpanRecord last_record_;
};

/// `count` distinct ELT indices out of kPoolElts, seeded.
std::vector<std::size_t> draw_subset(are::rng::SplitMix64& rng, std::size_t count) {
  std::vector<std::size_t> all(kPoolElts);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + static_cast<std::size_t>(rng() % (kPoolElts - i))]);
  }
  all.resize(count);
  return all;
}

core::Portfolio with_terms(core::Portfolio portfolio, std::size_t layer_index,
                           const are::financial::LayerTerms& terms) {
  portfolio.layers.at(layer_index).terms = terms;
  return portfolio;
}

struct CheckTimes {
  std::vector<double> reduce_s;
  std::vector<double> price_s;
};

/// Re-prices every kept quote from a `seq` YLT and compares the five wire
/// numbers per layer bit for bit.
CheckTimes verify(const std::vector<Check>& checks, const are::yet::YearEventTable& yet,
                  Result& result) {
  CheckTimes times;
  core::AnalysisConfig seq;
  seq.engine = core::EngineKind::kSequential;
  for (const Check& check : checks) {
    const core::YearLossTable ylt = core::run({check.effective, yet, seq});
    std::vector<double> want;
    for (std::size_t l = 0; l < check.effective.layers.size(); ++l) {
      std::int64_t t0 = now_ns();
      const are::metrics::EpCurve curve(ylt.layer_losses(l));
      volatile double pml = curve.probable_maximum_loss(250.0) + curve.tail_value_at_risk(0.99);
      (void)pml;
      times.reduce_s.push_back(seconds_since(t0));
      t0 = now_ns();
      const are::pricing::Quote q =
          are::pricing::price_layer(ylt.layer_losses(l), check.effective.layers[l].terms);
      times.price_s.push_back(seconds_since(t0));
      for (const double v : {q.expected_loss, q.stddev, q.tvar, q.technical_premium,
                             q.rate_on_line}) {
        want.push_back(v);
      }
    }
    if (want.size() != check.wire.size() ||
        std::memcmp(want.data(), check.wire.data(), want.size() * sizeof(double)) != 0) {
      result.mismatch("quote differs from seq + price_layer: " + check.line);
    }
  }
  return times;
}

double ms_between(std::int64_t t0) { return seconds_since(t0) * 1e3; }

}  // namespace

Result run_quote_workload(const Options& options, SpanRecorder* spans) {
  const bool concurrent = options.workload == "quote_concurrent";
  Result result;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t clients = concurrent ? nproc : 1;

  are::yet::YetConfig yet_config;
  yet_config.num_trials = kTrials;
  yet_config.events_per_trial = kEventsPerTrial;
  yet_config.count_model = are::yet::CountModel::kFixed;
  yet_config.seed = options.seed;
  const InputFiles files = write_inputs(options.work_dir + "/inputs", yet_config, kCatalog,
                                        kPoolElts, kEltEntries, options.seed);
  // Relative to the checkout root (the working directory), which keeps the
  // path inside sun_path's 108 bytes however deep the checkout is.
  const std::string socket = std::filesystem::relative(options.work_dir + "/s.sock").string();

  are::rng::SplitMix64 rng(options.seed);
  // Books of quote_concurrent (one per client), drawn once.
  std::vector<std::vector<std::size_t>> book_picks;
  std::vector<std::vector<are::financial::LayerTerms>> book_terms;
  for (std::size_t c = 0; c < clients; ++c) {
    book_picks.push_back(draw_subset(rng, kLayers * kEltsPerLayer));
    book_terms.push_back({seeded_layer_terms(rng), seeded_layer_terms(rng)});
  }

  // Timed setup, repeated: load, construct the service, register the
  // book(s), bind and answer PING. The last instance serves the run.
  std::vector<double> setup_s, read_yet_s, read_elt_s, build_s, register_ms;
  std::unique_ptr<LiveService> live;
  std::vector<LookupPtr> lookups;
  double lookup_bytes = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    live.reset();
    lookups.clear();
    ScopedSpan span(spans, "setup");
    const std::int64_t t0 = now_ns();
    LoadedInputs inputs = load_inputs(files, spans, span.index());
    lookups = inputs.lookups;
    lookup_bytes = inputs.lookup_bytes;
    live = std::make_unique<LiveService>(std::move(inputs.yet), socket);
    for (std::size_t c = 0; c < clients; ++c) {
      ScopedSpan reg(spans, "session.register", span.index());
      const std::int64_t r0 = now_ns();
      live->service().register_portfolio("book" + std::to_string(c),
                                         make_portfolio(lookups, book_picks[c], book_terms[c]));
      register_ms.push_back(ms_between(r0));
    }
    live->wait_ready();
    setup_s.push_back(seconds_since(t0));
    read_yet_s.push_back(inputs.read_yet_s);
    read_elt_s.push_back(inputs.read_elt_s);
    build_s.push_back(inputs.build_s);
  }
  std::filesystem::remove_all(options.work_dir + "/inputs");
  const are::yet::YearEventTable& yet = live->service().session().yet_table();
  const double lookups_per_cold =
      static_cast<double>(yet.total_events()) * static_cast<double>(kLayers * kEltsPerLayer);

  // ---- the closed loops ----
  std::vector<Client> client_state;
  for (std::size_t c = 0; c < clients; ++c) {
    client_state.emplace_back(socket, std::max<std::size_t>(1, kChecks / clients),
                              options.seed * 31 + c);
  }
  std::vector<double> deal_register_ms;

  // One underwriter deal (quote_session).
  const auto deal = [&](Client& client, are::rng::SplitMix64& deal_rng, SpanRecorder* deal_spans) {
    ScopedSpan root(deal_spans, "client.deal");
    const std::vector<std::size_t> picks = draw_subset(deal_rng, kLayers * kEltsPerLayer);
    core::Portfolio book = make_portfolio(
        lookups, picks, {seeded_layer_terms(deal_rng), seeded_layer_terms(deal_rng)});
    {
      ScopedSpan reg(deal_spans, "session.register", root.index());
      const std::int64_t r0 = now_ns();
      live->service().register_portfolio("book0", book);
      deal_register_ms.push_back(ms_between(r0));
    }
    client.quote("QUOTE portfolio=book0", "cold", book, root.index());
    std::string first_line;
    core::Portfolio first_effective;
    for (std::size_t k = 0; k < kDeltasPerDeal; ++k) {
      const std::size_t layer = static_cast<std::size_t>(deal_rng() % kLayers);
      const are::financial::LayerTerms terms = seeded_layer_terms(deal_rng);
      const std::string line = "QUOTE portfolio=book0 layer=" + std::to_string(layer + 1) + " " +
                               terms_fields(terms);
      core::Portfolio effective = with_terms(book, layer, terms);
      client.quote(line, "delta", effective, root.index());
      if (k == 0) {
        first_line = line;
        first_effective = std::move(effective);
      }
    }
    client.quote(first_line, "cached", first_effective, root.index());
    const std::size_t layer = static_cast<std::size_t>(deal_rng() % kLayers);
    const are::financial::LayerTerms terms = seeded_layer_terms(deal_rng);
    client.update("UPDATE portfolio=book0 layer=" + std::to_string(layer + 1) + " " +
                      terms_fields(terms),
                  root.index());
    book = with_terms(std::move(book), layer, terms);
    client.quote("QUOTE portfolio=book0", "delta", book, root.index());
  };

  // One cold quote of client c (quote_concurrent).
  const auto cold_quote = [&](Client& client, std::size_t c, are::rng::SplitMix64& quote_rng) {
    const std::size_t layer = static_cast<std::size_t>(quote_rng() % kLayers);
    const are::financial::LayerTerms terms = seeded_layer_terms(quote_rng);
    const core::Portfolio book = make_portfolio(lookups, book_picks[c], book_terms[c]);
    client.quote("QUOTE portfolio=book" + std::to_string(c) + " cache=0 delta=0 layer=" +
                     std::to_string(layer + 1) + " " + terms_fields(terms),
                 "cold", with_terms(book, layer, terms));
  };

  std::vector<are::rng::SplitMix64> client_rngs;
  for (std::size_t c = 0; c < clients; ++c) client_rngs.emplace_back(options.seed * 7919 + c);

  // Runs every client for `window` seconds (at least one round each).
  // Each round (a deal, or one cold quote) ends with a completion of the ok
  // quotes and the ELT lookups of the cold runs it finished.
  struct WindowRun {
    std::int64_t start_ns = 0;
    double seconds = 0.0;
    std::vector<Completion> quotes;
    std::vector<Completion> lookups;
  };
  const auto run_window = [&](double window, SpanRecorder* window_spans) {
    for (Client& client : client_state) client.set_traced(window_spans);
    std::vector<std::vector<Completion>> quote_ends(clients), lookup_ends(clients);
    const auto play = [&](std::size_t c, const auto& round) {
      std::vector<Exchange>& exchanges = client_state[c].exchanges();
      const std::size_t before = exchanges.size();
      round();
      const std::int64_t end = now_ns();
      double quotes_done = 0.0, colds_done = 0.0;
      for (std::size_t i = before; i < exchanges.size(); ++i) {
        if (!exchanges[i].ok || exchanges[i].is_update) continue;
        quotes_done += 1.0;
        if (exchanges[i].source == "cold") colds_done += 1.0;
      }
      quote_ends[c].push_back({end, quotes_done});
      lookup_ends[c].push_back({end, colds_done * lookups_per_cold});
    };
    WindowRun run;
    run.start_ns = now_ns();
    const std::int64_t start = run.start_ns;
    if (!concurrent) {
      do {
        play(0, [&] { deal(client_state[0], client_rngs[0], window_spans); });
      } while (seconds_since(start) < window);
    } else {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          do {
            play(c, [&] { cold_quote(client_state[c], c, client_rngs[c]); });
          } while (seconds_since(start) < window);
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    run.seconds = seconds_since(start);
    for (std::size_t c = 0; c < clients; ++c) {
      run.quotes.insert(run.quotes.end(), quote_ends[c].begin(), quote_ends[c].end());
      run.lookups.insert(run.lookups.end(), lookup_ends[c].begin(), lookup_ends[c].end());
    }
    return run;
  };

  // Every reply's status and source: a wrong source on an ok reply is a
  // wrong output; anything else not ok is a failed request.
  std::uint64_t rejected = 0;
  const auto tally = [&](const std::vector<Exchange>& exchanges) {
    for (const Exchange& e : exchanges) {
      ++result.attempted;
      if (e.rejected) ++rejected;
      if (e.ok) continue;
      if (e.status == "ok") {
        result.mismatch("quote came back as '" + e.source + "', expected '" + e.expected + "'");
      } else {
        ++result.failed;  // transport failure, error or refusal
      }
    }
  };

  // Warm-up (untimed): one deal / one quote per client.
  run_window(0.0, nullptr);
  for (Client& client : client_state) {
    tally(client.exchanges());
    client.exchanges().clear();
    client.checks().clear();
  }
  deal_register_ms.clear();

  const double untraced_window = options.trace ? options.seconds / 2.0 : options.seconds;
  const WindowRun untraced_run = run_window(untraced_window, nullptr);
  const double window_s = untraced_run.seconds;
  std::vector<Exchange> untraced;
  for (Client& client : client_state) {
    untraced.insert(untraced.end(), client.exchanges().begin(), client.exchanges().end());
    client.exchanges().clear();
  }

  auto& registry = are::obs::TelemetryRegistry::global();
  const are::obs::Snapshot before = registry.snapshot();
  std::vector<Exchange> traced;
  double traced_window_s = 0.0;
  if (options.trace) {
    traced_window_s = run_window(options.seconds / 2.0, spans).seconds;
    for (Client& client : client_state) {
      traced.insert(traced.end(), client.exchanges().begin(), client.exchanges().end());
    }
  }
  const are::obs::Snapshot diff = registry.snapshot().diff(before);

  // ---- checks: a seeded sample of ok quotes bit-exact ----
  tally(untraced);
  tally(traced);
  std::vector<Check> checks;
  for (Client& client : client_state) {
    checks.insert(checks.end(), client.checks().begin(), client.checks().end());
  }
  const CheckTimes check_times = verify(checks, yet, result);

  // ---- end-to-end metrics (untraced window) ----
  std::map<std::string, std::vector<double>> client_ms;
  std::size_t quotes = 0;
  for (const Exchange& e : untraced) {
    if (!e.ok) continue;
    if (e.is_update) {
      client_ms["update"].push_back(e.client_ms);
      continue;
    }
    ++quotes;
    client_ms[e.source].push_back(e.client_ms);
  }
  const LatencySummary cold = summarize(client_ms["cold"]);
  const LatencySummary delta = summarize(client_ms["delta"]);
  // Rates are medians over kRateGroups stretches of the window, so a burst
  // of host interference moves a few stretches and not the figure.
  const double quotes_per_s =
      median_group_rate(untraced_run.quotes, untraced_run.start_ns, kRateGroups);
  result.set("setup_s", median(setup_s));
  result.set("quotes_per_s", quotes_per_s);
  result.set("lookups_per_s",
             median_group_rate(untraced_run.lookups, untraced_run.start_ns, kRateGroups));
  result.set("cold_p50_ms", cold.p50);

  std::set<std::size_t> distinct_elts;
  for (const auto& picks : book_picks) distinct_elts.insert(picks.begin(), picks.end());
  const double footprint = concurrent ? static_cast<double>(distinct_elts.size()) /
                                            static_cast<double>(kPoolElts) * lookup_bytes
                                      : static_cast<double>(kLayers * kEltsPerLayer) /
                                            static_cast<double>(kPoolElts) * lookup_bytes;
  result.note("stamp " + host_stamp(options, footprint));
  result.note("workload " + options.workload + ": closed loop, " + std::to_string(clients) +
              " client(s); " + std::to_string(yet.num_trials()) + " trials x " +
              std::to_string(static_cast<int>(kEventsPerTrial)) + " events, " +
              std::to_string(kLayers) + " layers x " + std::to_string(kEltsPerLayer) +
              " ELTs per book over a " + std::to_string(kCatalog) + "-event catalog");
  result.note("setup_s " + std::to_string(median(setup_s)) + " s (median of " +
              std::to_string(kSetups) +
              " setups: read YET + ELTs, make_lookup, service, register, bind + PING)");
  result.note("quotes_per_s " + std::to_string(quotes_per_s) + " 1/s (median of " +
              std::to_string(kRateGroups) + " stretches of the window; " +
              std::to_string(quotes) + " ok quotes in " + std::to_string(window_s) + " s, " +
              std::to_string(static_cast<double>(quotes) / window_s) + " 1/s over all of it)");
  result.note(cold.describe("cold") + (concurrent ? " plain cold" : " cold + capture") +
              ", client round trip");
  result.note(client_ms["delta"].empty() ? std::string("delta_p50_ms/delta_p90_ms n/a (no delta quotes)")
                                         : delta.describe("delta"));
  if (!client_ms["cached"].empty()) {
    result.note(summarize(client_ms["cached"]).describe("cached"));
  }
  if (!client_ms["update"].empty()) {
    result.note(summarize(client_ms["update"]).describe("update"));
  }
  result.note("checked " + std::to_string(checks.size()) +
              " sampled quotes bit-exact against seq + price_layer");

  if (!options.trace) {
    result.set("peak_rss_mb", peak_rss_mb());
    result.note("peak_rss_mb " + std::to_string(peak_rss_mb()) + " MB");
    result.note("failed_share " + Ratio{static_cast<double>(result.failed),
                                        static_cast<double>(result.attempted),
                                        "requests attempted"}
                                      .describe());
    live.reset();
    return result;
  }

  // ---- per-layer metrics (traced window) ----
  std::map<std::string, std::vector<double>> server_ms;
  std::vector<double> wire_ms, queue_ms;
  core::PhaseBreakdown cold_phases;
  std::uint64_t cold_lookups = 0, delta_lookups = 0, captured = 0, replayed = 0;
  std::size_t traced_quotes = 0, traced_colds = 0, traced_deltas = 0, traced_cached = 0,
              captures = 0;
  std::vector<double> update_ms;
  for (const Exchange& e : traced) {
    if (!e.ok) continue;
    if (e.is_update) {
      update_ms.push_back(e.client_ms);
      continue;
    }
    ++traced_quotes;
    server_ms[e.source].push_back(e.server_ms);
    wire_ms.push_back(e.client_ms - e.server_ms);
    queue_ms.push_back(e.queue_wait_ms);
    if (e.source == "cold") {
      ++traced_colds;
      cold_lookups += e.lookups;
      if (e.captured > 0) {
        ++captures;
        captured += e.captured;
      }
      if (e.phases) {
        cold_phases.fetch_seconds += e.phases->fetch_seconds;
        cold_phases.lookup_seconds += e.phases->lookup_seconds;
        cold_phases.financial_seconds += e.phases->financial_seconds;
        cold_phases.layer_seconds += e.phases->layer_seconds;
        cold_phases.output_seconds += e.phases->output_seconds;
      }
    } else if (e.source == "delta") {
      ++traced_deltas;
      delta_lookups += e.lookups;
      replayed += e.replayed;
    } else if (e.source == "cached") {
      ++traced_cached;
    }
  }
  // Concurrent replies carry overlapping registry diffs; the window total
  // over the number of cold runs is exact when every cold run does the same
  // work.
  const double lookups_per_cold_run =
      concurrent ? (traced_colds ? static_cast<double>(diff.counter_value("elt.direct_access.lookups")) /
                                       static_cast<double>(traced_colds)
                                 : 0.0)
                 : (traced_colds ? static_cast<double>(cold_lookups) / static_cast<double>(traced_colds)
                                 : 0.0);
  const double launches = static_cast<double>(diff.counter_value("kernel.launches"));

  // In-process calls on the last book: the kernel as the service runs it
  // (fused, the session pool) against a 1-thread seq run on the same input.
  const core::Portfolio probe =
      concurrent ? make_portfolio(lookups, book_picks[0], book_terms[0])
                 : *live->service().session().snapshot("book0").portfolio;
  core::AnalysisConfig served;
  served.engine_name = "fused";
  served.pool = &live->service().session().pool();
  std::vector<double> served_s;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(spans, "core.run");
    const std::int64_t t0 = now_ns();
    (void)core::run({probe, yet, served});
    served_s.push_back(seconds_since(t0));
  }
  core::AnalysisConfig seq;
  seq.engine = core::EngineKind::kSequential;
  std::vector<double> seq_runs;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(spans, "core.run.seq");
    const std::int64_t t0 = now_ns();
    (void)core::run({probe, yet, seq});
    seq_runs.push_back(seconds_since(t0));
  }
  const double seq_s = median(seq_runs);
  const std::size_t pool_threads = live->service().session().pool().size();
  const Ratio scaling{seq_s, static_cast<double>(pool_threads) * median(served_s),
                      "(threads x fused seconds) vs seq seconds"};
  const Ratio idle{static_cast<double>(diff.counter_value("pool.idle_ns")) * 1e-9,
                   static_cast<double>(pool_threads) * traced_window_s,
                   "worker-seconds of the traced window"};
  const double untraced_per_quote = window_s / static_cast<double>(std::max<std::size_t>(1, quotes));
  const double traced_per_quote =
      traced_window_s / static_cast<double>(std::max<std::size_t>(1, traced_quotes));
  const Ratio overhead{traced_per_quote - untraced_per_quote, untraced_per_quote,
                       "untraced seconds per quote"};
  const Ratio hit_ratio{static_cast<double>(traced_cached),
                        concurrent ? 0.0 : static_cast<double>(traced_quotes),
                        "cache-enabled quotes"};
  const double bytes_computed = static_cast<double>(yet.total_events()) * 8.0 +
                                lookups_per_cold * 8.0 +
                                static_cast<double>(yet.num_trials() * kLayers) * 8.0;
  const std::size_t llc = llc_bytes();
  const std::vector<double>& registers = concurrent ? register_ms : deal_register_ms;

  result.set("io.read_yet_s", median(read_yet_s));
  result.set("io.read_elt_s", median(read_elt_s));
  result.set("elt.build_s", median(build_s));
  result.set("elt.lookups_per_cold_run", lookups_per_cold_run);
  result.set("elt.lookups_per_delta_run",
             traced_deltas ? static_cast<double>(delta_lookups) / static_cast<double>(traced_deltas)
                           : 0.0);
  const double traced_lookups = lookups_per_cold_run * static_cast<double>(traced_colds);
  result.set("elt.ns_per_lookup",
             traced_lookups > 0 ? cold_phases.lookup_seconds * 1e9 / traced_lookups : 0.0);
  result.set("elt.footprint_to_llc", llc ? footprint / static_cast<double>(llc) : 0.0);
  result.set("core.run_s", median(served_s));
  result.set("core.phase.fetch_share", cold_phases.fetch_fraction());
  result.set("core.phase.lookup_share", cold_phases.lookup_fraction());
  result.set("core.phase.financial_share", cold_phases.financial_fraction());
  result.set("core.phase.layer_share", cold_phases.layer_fraction());
  result.set("core.phase.output_share", cold_phases.output_fraction());
  result.set("core.events", launches ? static_cast<double>(diff.counter_value("kernel.events")) / launches : 0.0);
  result.set("core.blocks", launches ? static_cast<double>(diff.counter_value("kernel.blocks")) / launches : 0.0);
  result.set("core.lookups_per_byte_computed", lookups_per_cold / bytes_computed);
  result.set("core.ground_up.captured_events",
             captures ? static_cast<double>(captured) / static_cast<double>(captures) : 0.0);
  result.set("core.ground_up.replayed_events",
             traced_deltas ? static_cast<double>(replayed) / static_cast<double>(traced_deltas) : 0.0);
  result.set("parallel.scaling_efficiency", scaling.value());
  result.set("parallel.pool_idle_share", idle.value());
  result.set("metrics.reduce_s", median(check_times.reduce_s));
  result.set("pricing.price_s", median(check_times.price_s));
  result.set("server.wire_ms", median(wire_ms));
  result.set("service.quote_ms.cold", median(server_ms["cold"]));
  result.set("service.quote_ms.delta", median(server_ms["delta"]));
  result.set("service.quote_ms.cached", median(server_ms["cached"]));
  result.set("broker.queue_wait_p50_ms", median(queue_ms));
  result.set("broker.queue_wait_p90_ms", tail_percentile(queue_ms, 0.9).value_or(0.0));
  result.set("broker.rejected", static_cast<double>(rejected));
  result.set("cache.hit_ratio", hit_ratio.value());
  result.set("session.register_ms", median(registers));
  result.set("session.update_ms", median(update_ms));
  result.set("session.ground_up_bytes",
             static_cast<double>(registry.gauge("service.ground_up_bytes").value()));
  result.set("obs.trace_overhead", overhead.value());

  result.note("trace: QUOTE lines carry phases=1, which runs the kernel's instrumented path; "
              "server wall_seconds and admission.queue_wait_seconds are child records of each "
              "client round-trip span");
  result.note("elt.lookups_per_cold_run " + std::to_string(lookups_per_cold_run) +
              " (events x ELTs = " + std::to_string(lookups_per_cold) + ")" +
              (concurrent ? " from the window's registry diff over " : " from per-reply diffs over ") +
              std::to_string(traced_colds) + " cold runs");
  result.note("core.ground_up.replayed_events counts each replayed event once for all " +
              std::to_string(kLayers) + " layers (YET events = " +
              std::to_string(yet.total_events()) + ")");
  result.note("parallel.scaling_efficiency " + scaling.describe());
  result.note("parallel.pool_idle_share " + idle.describe());
  result.note("cache.hit_ratio " + hit_ratio.describe());
  result.note("obs.trace_overhead " + overhead.describe());
  result.note(summarize(queue_ms).describe("broker.queue_wait"));
  result.note(summarize(wire_ms).describe("server.wire"));
  for (const auto& [source, samples] : server_ms) {
    result.note(summarize(samples).describe("service.quote." + source));
  }
  result.note("peak_rss_mb " + std::to_string(peak_rss_mb()) + " MB (traced run)");
  live.reset();
  return result;
}

}  // namespace perfbench
