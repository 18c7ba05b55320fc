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

bool LinkingCache::GetAnchorPredicates(
    const std::string& anchor, bool incoming, std::string_view kg,
    std::vector<std::string_view>* predicates) const {
  const bool hit = anchors_.Get(anchor, incoming, kg, predicates);
  RecordLookup(hit);
  return hit;
}

void LinkingCache::PutAnchorPredicates(
    const std::string& anchor, bool incoming, std::string_view kg,
    const std::vector<std::string_view>& predicates) {
  anchors_.Put(anchor, incoming, kg, predicates);
}

bool LinkingCache::AnchorTable::Get(const std::string& anchor, bool incoming,
                                    std::string_view kg,
                                    std::vector<std::string_view>* predicates) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (identity_ == kg) {
      auto it = lists_.find(anchor);
      if (it == lists_.end()) return false;
      const uint32_t begin = it->second.begin[incoming];
      if (begin == kAbsent) return false;
      const uint32_t count = it->second.count[incoming];
      predicates->clear();
      for (uint32_t i = begin; i < begin + count; ++i) {
        predicates->push_back(iris_[ids_[i]]);
      }
      return true;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (identity_ != kg) ResetTo(kg);
  return false;
}

void LinkingCache::AnchorTable::Put(
    const std::string& anchor, bool incoming, std::string_view kg,
    const std::vector<std::string_view>& predicates) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (identity_ != kg) ResetTo(kg);
  if (entries_ >= kAnchorTableCapacity) return;
  auto [it, inserted] = lists_.try_emplace(anchor);
  Lists& lists = it->second;
  // Already stored by a concurrent miss on the same pair.
  if (lists.begin[incoming] != kAbsent) return;
  const size_t begin = ids_.size();
  for (std::string_view iri : predicates) {
    auto found = iri_ids_.find(iri);
    if (found == iri_ids_.end()) {
      if (iris_.size() >= kInternedPredicateCapacity) {
        ids_.resize(begin);
        if (inserted) lists_.erase(it);
        return;
      }
      const std::string& interned = iris_.emplace_back(iri);
      found = iri_ids_.emplace(interned, uint32_t(iris_.size() - 1)).first;
    }
    ids_.push_back(found->second);
  }
  lists.begin[incoming] = static_cast<uint32_t>(begin);
  lists.count[incoming] = static_cast<uint32_t>(predicates.size());
  ++entries_;
}

size_t LinkingCache::AnchorTable::Entries() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_;
}

void LinkingCache::AnchorTable::Clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  ResetTo("");
}

void LinkingCache::AnchorTable::ResetTo(std::string_view kg) {
  identity_.assign(kg);
  lists_.clear();
  ids_.clear();
  entries_ = 0;
}

LinkingCacheStats LinkingCache::stats() const {
  LinkingCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = vertices_.TotalEntries() + descriptions_.TotalEntries() +
                  anchors_.Entries();
  return stats;
}

void LinkingCache::Clear() {
  vertices_.Clear();
  descriptions_.Clear();
  anchors_.Clear();
}

}  // namespace kgqan::core
