#include "embedding/affinity.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
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

double SemanticAffinity::Normalize(double raw, double self_a,
                                   double self_b) {
  if (raw <= 0.0) return 0.0;
  if (self_a <= 0.0 || self_b <= 0.0) return 0.0;
  double norm = raw / std::sqrt(self_a * self_b);
  return std::min(1.0, norm);
}

double SemanticAffinity::NormalizedScore(const Phrase& a,
                                         const Phrase& b) const {
  return Normalize(Score(a, b), a.self_score_, b.self_score_);
}

namespace {

// out[j] = Dot(x, *ys[j]) for j < 4, bit for bit: each sum adds the double
// products in ascending index order, as Dot does, but the four sums are
// independent chains, so they overlap instead of waiting on one another.
// Pre-condition: every ys[j] has x's dimension.
void Dot4(const Vec& x, const Vec* const* ys, double* out) {
  const float* y0 = ys[0]->data();
  const float* y1 = ys[1]->data();
  const float* y2 = ys[2]->data();
  const float* y3 = ys[3]->data();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    s0 += xi * double(y0[i]);
    s1 += xi * double(y1[i]);
    s2 += xi * double(y2[i]);
    s3 += xi * double(y3[i]);
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// out[j] = Dot(x, *ys[j]) for j < n, bit for bit, four at a time.
void DotRow(const Vec& x, const Vec* const* ys, size_t n, double* out) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) Dot4(x, ys + j, out + j);
  for (; j < n; ++j) out[j] = Dot(x, *ys[j]);
}

}  // namespace

void SemanticAffinity::NormalizedScores(
    const Phrase& label, const std::vector<const Phrase*>& phrases,
    std::vector<double>* out) const {
  out->assign(phrases.size(), 0.0);
  const auto& xs = label.tokens_;
  if (xs.empty()) return;

  // The batch's distinct token vectors per model (by address: the
  // embedder caches hand out one vector per token), and for every batch
  // token, in phrase order, its index in its model's list.  Tokens with a
  // near-zero norm never contribute to Score and get no index.  Distinct
  // vectors are found through an open-addressing table of at most half
  // load, keyed by address.
  size_t num_tokens = 0;
  for (const Phrase* phrase : phrases) num_tokens += phrase->tokens_.size();
  size_t capacity = 16;
  while (capacity < 2 * num_tokens) capacity *= 2;
  struct Entry {
    const Vec* vec = nullptr;
    size_t index = 0;
  };
  std::vector<Entry> table(capacity);
  std::array<std::vector<const Vec*>, 2> vecs;  // [from_word_model]
  std::vector<size_t> token_index;
  token_index.reserve(num_tokens);
  for (const Phrase* phrase : phrases) {
    for (const Phrase::Token& y : phrase->tokens_) {
      if (y.norm < 1e-9) {
        token_index.push_back(0);  // Never read: Score skips the token.
        continue;
      }
      size_t slot = (reinterpret_cast<uintptr_t>(y.vec) >> 4) *
                    0x9E3779B97F4A7C15ull >> 32;
      while (true) {
        Entry& entry = table[slot & (capacity - 1)];
        if (entry.vec == nullptr) {
          std::vector<const Vec*>& list = vecs[y.from_word_model];
          entry = {y.vec, list.size()};
          list.push_back(y.vec);
        }
        if (entry.vec == y.vec) {
          token_index.push_back(entry.index);
          break;
        }
        ++slot;
      }
    }
  }

  // dots[m][x * vecs[m].size() + j] = Dot(*x.vec, *vecs[m][j]) for every
  // label token x of model m: each distinct pair once.
  std::array<std::vector<double>, 2> dots;
  for (size_t m = 0; m < 2; ++m) dots[m].resize(xs.size() * vecs[m].size());
  for (size_t xi = 0; xi < xs.size(); ++xi) {
    const Phrase::Token& x = xs[xi];
    if (x.norm < 1e-9) continue;
    const std::vector<const Vec*>& list = vecs[x.from_word_model];
    // data() + offset, not &v[offset]: the list may be empty.
    DotRow(*x.vec, list.data(), list.size(),
           dots[x.from_word_model].data() + xi * list.size());
  }

  // Each phrase's Eq. 1 sum in Score()'s order: x-major, then its tokens.
  const size_t* cursor = token_index.data();
  for (size_t i = 0; i < phrases.size(); ++i) {
    const auto& ys = phrases[i]->tokens_;
    const size_t* y_index = cursor;
    cursor += ys.size();
    if (ys.empty()) continue;
    double sum = 0.0;
    for (size_t xi = 0; xi < xs.size(); ++xi) {
      const Phrase::Token& x = xs[xi];
      if (x.norm < 1e-9) continue;
      const size_t m = x.from_word_model;
      const double* x_dots = dots[m].data() + xi * vecs[m].size();
      for (size_t yi = 0; yi < ys.size(); ++yi) {
        const Phrase::Token& y = ys[yi];
        if (x.from_word_model != y.from_word_model || y.norm < 1e-9) continue;
        sum += std::max(0.0, x_dots[y_index[yi]] / (x.norm * y.norm));
      }
    }
    const double raw =
        sum / (static_cast<double>(xs.size()) * static_cast<double>(ys.size()));
    (*out)[i] = Normalize(raw, label.self_score_, phrases[i]->self_score_);
  }
}

}  // namespace kgqan::embed
