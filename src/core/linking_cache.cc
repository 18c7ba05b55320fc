#include "core/linking_cache.h"

#include "obs/trace.h"

namespace kgqan::core {

LinkingCache::LinkingCache(size_t capacity)
    : vertices_(capacity), descriptions_(capacity) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  metric_hits_ = &registry.GetCounter("linking_cache.hits");
  metric_misses_ = &registry.GetCounter("linking_cache.misses");
  metric_evictions_ = &registry.GetCounter("linking_cache.evictions");
}

void LinkingCache::RecordLookup(bool hit) const {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (hit ? metric_hits_ : metric_misses_)->Add(1);
  if (obs::Trace* trace = obs::CurrentTrace()) {
    trace->AddCounter(hit ? obs::TraceCounter::kLinkingCacheHits
                          : obs::TraceCounter::kLinkingCacheMisses,
                      1);
  }
}

void LinkingCache::RecordEvictions(size_t n) const {
  if (n == 0) return;
  evictions_.fetch_add(n, std::memory_order_relaxed);
  metric_evictions_->Add(n);
}

std::string LinkingCache::MakeKey(std::string_view phrase,
                                  std::string_view kg) {
  std::string key;
  key.reserve(phrase.size() + kg.size() + 1);
  key.append(phrase);
  key.push_back('\x1f');  // Unit separator: cannot occur in IRIs.
  key.append(kg);
  return key;
}

std::optional<std::vector<RelevantVertex>> LinkingCache::GetVertices(
    std::string_view phrase, std::string_view kg) const {
  auto result = vertices_.Get(MakeKey(phrase, kg));
  RecordLookup(result.has_value());
  return result;
}

void LinkingCache::PutVertices(std::string_view phrase, std::string_view kg,
                               const std::vector<RelevantVertex>& vertices) {
  size_t evictions = 0;
  vertices_.Put(MakeKey(phrase, kg), vertices, &evictions);
  RecordEvictions(evictions);
}

std::optional<std::string> LinkingCache::GetPredicateDescription(
    std::string_view iri, std::string_view kg) const {
  auto result = descriptions_.Get(MakeKey(iri, kg));
  RecordLookup(result.has_value());
  return result;
}

void LinkingCache::PutPredicateDescription(std::string_view iri,
                                           std::string_view kg,
                                           const std::string& description) {
  size_t evictions = 0;
  descriptions_.Put(MakeKey(iri, kg), description, &evictions);
  RecordEvictions(evictions);
}

LinkingCacheStats LinkingCache::stats() const {
  LinkingCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = vertices_.TotalEntries() + descriptions_.TotalEntries();
  return stats;
}

void LinkingCache::Clear() {
  vertices_.Clear();
  descriptions_.Clear();
}

}  // namespace kgqan::core
