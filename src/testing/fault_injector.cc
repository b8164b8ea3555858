#include "testing/fault_injector.h"

#include <stdexcept>

namespace sqlts {
namespace fuzz {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector::FaultInjector(uint64_t seed, Options options)
    : options_(options), state_(seed ^ 0xfa017ed5eedULL) {}

FaultHook FaultInjector::Hook() {
  return [this](std::string_view site) { return OnSite(site); };
}

double FaultInjector::NextUniform() {
  return static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53;
}

Status FaultInjector::OnSite(std::string_view site) {
  ts::MutexLock lock(mu_);
  double prob = 0.0;
  Status fault = Status::OK();
  if (site == "stream.push") {
    prob = options_.push_error_prob;
    fault = Status::IoError("injected source error at stream.push");
  } else if (site == "matcher.append") {
    prob = options_.alloc_failure_prob;
    fault = Status::ResourceExhausted(
        "injected allocation failure at matcher.append");
  } else if (site == "shard.enqueue") {
    prob = options_.queue_failure_prob;
    fault = Status::IoError("injected queue failure at shard.enqueue");
  }
  // One draw per site visit keeps the fault schedule a pure function of
  // the seed and the visit sequence.
  const double err_draw = NextUniform();
  const double throw_draw = NextUniform();
  if (prob > 0.0 && err_draw < prob) {
    ++injected_;
    ++per_site_[std::string(site)];
    return fault;
  }
  if (options_.throw_prob > 0.0 && throw_draw < options_.throw_prob) {
    ++injected_;
    ++per_site_[std::string(site)];
    throw std::runtime_error("injected exception at " + std::string(site));
  }
  return Status::OK();
}

int64_t FaultInjector::injected() const {
  ts::MutexLock lock(mu_);
  return injected_;
}

int64_t FaultInjector::injected_at(std::string_view site) const {
  ts::MutexLock lock(mu_);
  auto it = per_site_.find(std::string(site));
  return it == per_site_.end() ? 0 : it->second;
}

}  // namespace fuzz
}  // namespace sqlts
