#include "embedding/affinity.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "text/tokenizer.h"

namespace kgqan::embed {

SemanticAffinity::SemanticAffinity(AffinityMode mode)
    : mode_(mode), sentences_(&words_) {}

SemanticAffinity::Phrase SemanticAffinity::Prepare(
    std::string_view phrase) const {
  Phrase out;
  if (mode_ == AffinityMode::kCoarseGrained) {
    out.pooled_ = std::make_unique<Vec>(sentences_.Embed(phrase));
    out.tokens_.push_back(
        {out.pooled_.get(), Norm(*out.pooled_), /*from_word_model=*/true});
  } else {
    for (const std::string& tok : text::ContentTokens(phrase)) {
      const bool known = Lexicon::IsKnownWord(tok);
      const Vec& vec = known ? words_.Embed(tok) : chars_.Embed(tok);
      out.tokens_.push_back({&vec, Norm(vec), known});
    }
  }
  out.self_score_ = Score(out, out);
  return out;
}

const SemanticAffinity::Phrase& SemanticAffinity::Prepared(
    std::string_view phrase, Phrase* scratch) const {
  MemoShard& shard = memo_[TextHash{}(phrase) % kMemoShards];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.phrases.find(phrase);
    if (it != shard.phrases.end()) return it->second;
  }
  // Prepare outside the lock: two threads may prepare the same phrase;
  // the first insert wins and both results are identical.
  *scratch = Prepare(phrase);
  if (memo_size() >= kPhraseMemoCapacity) return *scratch;  // Skip the lock.
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.phrases.find(phrase);
  if (it != shard.phrases.end()) return it->second;
  // Claim a slot; a full memo leaves the phrase in `*scratch`.
  size_t size = memo_size_.load();
  do {
    if (size >= kPhraseMemoCapacity) return *scratch;
  } while (!memo_size_.compare_exchange_weak(size, size + 1));
  return shard.phrases.emplace(std::string(phrase), std::move(*scratch))
      .first->second;
}

double SemanticAffinity::Score(const Phrase& a, const Phrase& b) const {
  const auto& xs = a.tokens_;
  const auto& ys = b.tokens_;
  if (xs.empty() || ys.empty()) return 0.0;

  // Eq. 1: mean over all cross pairs; cross-model pairs score 0.  Each
  // cosine is Cosine()'s own expression over the cached norms.
  double sum = 0.0;
  for (const Phrase::Token& x : xs) {
    for (const Phrase::Token& y : ys) {
      if (x.from_word_model != y.from_word_model) continue;
      if (x.norm < 1e-9 || y.norm < 1e-9) continue;
      sum += std::max(0.0, Dot(*x.vec, *y.vec) / (x.norm * y.norm));
    }
  }
  return sum / (static_cast<double>(xs.size()) * static_cast<double>(ys.size()));
}

double SemanticAffinity::NormalizedScore(const Phrase& a,
                                         const Phrase& b) const {
  double raw = Score(a, b);
  if (raw <= 0.0) return 0.0;
  if (a.self_score_ <= 0.0 || b.self_score_ <= 0.0) return 0.0;
  double norm = raw / std::sqrt(a.self_score_ * b.self_score_);
  return std::min(1.0, norm);
}

}  // namespace kgqan::embed
