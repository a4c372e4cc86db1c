#include "fault/fault_injection.hpp"

#include <atomic>
#include <charconv>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace are::fault {
namespace {

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) text.remove_suffix(1);
  return text;
}

std::uint64_t parse_count(std::string_view text, std::string_view spec) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value == 0) {
    throw std::invalid_argument("bad fault trigger count in spec: " + std::string(spec));
  }
  return value;
}

}  // namespace

Trigger parse_trigger(std::string_view spec) {
  const std::string_view text = trim(spec);
  Trigger trigger;
  if (text == "never") return trigger;
  if (text == "always") {
    trigger.kind = Trigger::Kind::kAlways;
    return trigger;
  }
  if (text == "once") {
    trigger.kind = Trigger::Kind::kOnce;
    return trigger;
  }
  if (text.rfind("every:", 0) == 0) {
    trigger.kind = Trigger::Kind::kEveryNth;
    trigger.n = parse_count(text.substr(6), spec);
    return trigger;
  }
  if (text.rfind("after:", 0) == 0) {
    trigger.kind = Trigger::Kind::kAfterNth;
    trigger.n = parse_count(text.substr(6), spec);
    return trigger;
  }
  if (text.rfind("prob:", 0) == 0) {
    std::string_view rest = text.substr(5);
    std::string_view prob_text = rest;
    if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
      prob_text = rest.substr(0, colon);
      trigger.seed = parse_count(rest.substr(colon + 1), spec);
    }
    // from_chars for double is spotty across libstdc++ versions; stod is fine
    // on this cold path.
    try {
      std::size_t consumed = 0;
      trigger.probability = std::stod(std::string(prob_text), &consumed);
      if (consumed != prob_text.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::invalid_argument("bad fault probability in spec: " + std::string(spec));
    }
    if (trigger.probability < 0.0 || trigger.probability > 1.0) {
      throw std::invalid_argument("fault probability out of [0,1] in spec: " + std::string(spec));
    }
    trigger.kind = Trigger::Kind::kProbability;
    return trigger;
  }
  throw std::invalid_argument("unrecognised fault trigger spec: " + std::string(spec));
}

bool trigger_fires(const Trigger& trigger, std::uint64_t site_hash, std::uint64_t hit) noexcept {
  switch (trigger.kind) {
    case Trigger::Kind::kNever: return false;
    case Trigger::Kind::kAlways: return true;
    case Trigger::Kind::kOnce: return hit == 1;
    case Trigger::Kind::kEveryNth: return trigger.n != 0 && hit % trigger.n == 0;
    case Trigger::Kind::kAfterNth: return hit > trigger.n;
    case Trigger::Kind::kProbability: {
      // Deterministic per (seed, site, hit): same arm spec, same firing
      // pattern, regardless of thread interleaving.
      const std::uint64_t mixed =
          splitmix64(trigger.seed ^ splitmix64(site_hash ^ splitmix64(hit)));
      const double uniform =
          static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
      return uniform < trigger.probability;
    }
  }
  return false;
}

namespace detail {
std::atomic<std::uint64_t>& armed_count() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}
}  // namespace detail

FaultRegistry& FaultRegistry::global() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::arm(std::string_view site, std::string_view spec) {
  const Trigger trigger = parse_trigger(spec);
  if (trigger.kind == Trigger::Kind::kNever) {
    disarm(site);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    sites_.emplace(std::string(site), Site{trigger, 0, 0});
    detail::armed_count().fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second.trigger = trigger;
  }
}

std::vector<std::string> FaultRegistry::arm_from_list(std::string_view list) {
  std::vector<std::string> armed;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    const std::string_view entry = trim(list.substr(start, end - start));
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("fault entry is not SITE=SPEC: " + std::string(entry));
    }
    const std::string_view site = trim(entry.substr(0, eq));
    arm(site, trim(entry.substr(eq + 1)));
    armed.emplace_back(site);
  }
  return armed;
}

void FaultRegistry::disarm(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it != sites_.end()) {
    sites_.erase(it);
    detail::armed_count().fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  detail::armed_count().fetch_sub(sites_.size(), std::memory_order_relaxed);
  sites_.clear();
}

bool FaultRegistry::should_inject(std::string_view site) {
  std::string counter_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    Site& entry = it->second;
    ++entry.hits;
    if (!trigger_fires(entry.trigger, fnv1a(site), entry.hits)) return false;
    ++entry.injected;
    counter_name = "fault.injected." + std::string(site);
  }
  // Counter registration takes the registry's own lock; keep it outside ours.
  obs::TelemetryRegistry::global().counter(counter_name).add(1);
  return true;
}

std::uint64_t FaultRegistry::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultRegistry::injected(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

std::vector<std::string> FaultRegistry::armed_sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

ScopedArm::ScopedArm(std::string_view list)
    : armed_(FaultRegistry::global().arm_from_list(list)) {}

ScopedArm::~ScopedArm() {
  for (const std::string& site : armed_) FaultRegistry::global().disarm(site);
}

}  // namespace are::fault
