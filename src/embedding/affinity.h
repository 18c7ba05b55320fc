// Semantic affinity between two phrases (Sec. 5.4, Eq. 1).
//
// Fine-grained mode (default): every pair of words across the two phrases
// is compared by cosine similarity; words known to the word model use
// subword embeddings, out-of-vocabulary words fall back to the character
// (spelling) model, and pairs mixing the two models score 0 — exactly the
// rules of Eq. 1.  Coarse-grained mode: one pooled vector per phrase
// (GPT-3 stand-in), Eq. 1 degenerates to a single cosine.
//
// Callers that score one phrase against many (the linker ranks up to
// maxVR descriptions against one node label) Prepare() it once: the
// phrase is tokenized and embedded once, its token norms and its Eq. 1
// self-score are kept, and each pair then costs only the cross-pair dot
// products.
//
// A probe scores one label against a batch of up to maxVR descriptions
// that share many tokens (the text probe matched them on the label's
// words).  NormalizedScores() scores the whole batch in one pass: it dots
// each distinct token vector of the batch with each label token once, four
// vectors at a time on independent accumulators, and sums the cross pairs
// in Score()'s own order, so every score equals NormalizedScore() exactly.
//
// KG literals recur across probes and questions, so Prepared() keeps a
// memo of prepared phrases keyed by their text, shared by every thread
// that uses this object.  A prepared phrase depends only on its text, so
// the memo never needs invalidating when the KG changes.  It holds at most
// kPhraseMemoCapacity phrases and never evicts one; once full, further
// phrases are prepared uncached.

#ifndef KGQAN_EMBEDDING_AFFINITY_H_
#define KGQAN_EMBEDDING_AFFINITY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "embedding/char_embedder.h"
#include "embedding/lexicon.h"
#include "embedding/sentence_embedder.h"
#include "embedding/subword_embedder.h"

namespace kgqan::embed {

enum class AffinityMode {
  kFineGrained,    // FastText + chars2vec, Eq. 1 (paper default).
  kCoarseGrained,  // Single sentence vector per phrase (GPT-3 variant).
};

class SemanticAffinity {
 public:
  // Upper bound on the phrases Prepared() keeps.  Full, it holds 11-17 MB
  // of fine-grained two- to four-word phrases.
  static constexpr size_t kPhraseMemoCapacity = size_t{1} << 16;

  // A phrase tokenized and embedded once, ready to be scored against many
  // others.  Its token vectors point into the embedder caches of the
  // SemanticAffinity that prepared it, so it must not outlive that object.
  // Move-only: coarse-grained mode owns its pooled vector.
  class Phrase {
   private:
    friend class SemanticAffinity;

    struct Token {
      const Vec* vec;
      double norm;  // std::sqrt(Dot(*vec, *vec)), as Cosine computes it.
      bool from_word_model;
    };

    std::vector<Token> tokens_;
    std::unique_ptr<Vec> pooled_;  // Coarse-grained mode's single token.
    double self_score_ = 0.0;      // Raw Eq. 1 Score(p, p).
  };

  explicit SemanticAffinity(AffinityMode mode = AffinityMode::kFineGrained);

  SemanticAffinity(const SemanticAffinity&) = delete;
  SemanticAffinity& operator=(const SemanticAffinity&) = delete;

  AffinityMode mode() const { return mode_; }

  // Tokenizes and embeds `phrase` once (fine-grained: one token per
  // content word; coarse-grained: the pooled phrase vector as its single
  // token) and computes its self-score.
  Phrase Prepare(std::string_view phrase) const;

  // Prepare(phrase), memoized: returns the memo's entry for `phrase`,
  // adding it on first use; the reference stays valid for the life of
  // this object.  When the memo is full and `phrase` is not in it, the
  // phrase is prepared into `*scratch` and `*scratch` is returned.  Safe to
  // call concurrently.
  const Phrase& Prepared(std::string_view phrase, Phrase* scratch) const;

  // Number of phrases in the memo; never above kPhraseMemoCapacity.
  size_t memo_size() const { return memo_size_.load(); }

  // Raw Eq. 1 score in [0, 1]; higher = semantically closer.  Negative
  // cosines are clamped to 0 so unrelated pairs do not drag multi-word
  // scores below zero.
  double Score(const Phrase& a, const Phrase& b) const;
  double Score(std::string_view a, std::string_view b) const {
    return Score(Prepare(a), Prepare(b));
  }

  // Length-normalized affinity: Score(a, b) / sqrt(Score(a,a)*Score(b,b)).
  // Raw Eq. 1 self-affinity of an n-word phrase is ~1/n (off-diagonal
  // pairs are unrelated), which compresses score differences for long
  // labels; normalization restores "identical phrase = 1.0", matching the
  // linker scores the paper reports in Figure 4 (Kaliningrad -> 1.00,
  // "Yantar, Kaliningrad" -> 0.83).  This is what the linker uses.
  double NormalizedScore(const Phrase& a, const Phrase& b) const;
  double NormalizedScore(std::string_view a, std::string_view b) const {
    return NormalizedScore(Prepare(a), Prepare(b));
  }

  // Batched NormalizedScore: sets (*out)[i] to
  // NormalizedScore(label, *phrases[i]), bit for bit, for every i.
  void NormalizedScores(const Phrase& label,
                        const std::vector<const Phrase*>& phrases,
                        std::vector<double>* out) const;

  const SubwordEmbedder& word_model() const { return words_; }

 private:
  // Eq. 1 length normalization of a raw score, given both self-scores.
  static double Normalize(double raw, double self_a, double self_b);

  // Heterogeneous hashing, so a lookup by string_view allocates nothing.
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  struct MemoShard {
    std::shared_mutex mutex;
    // Node-based: references to entries survive rehashing.
    std::unordered_map<std::string, Phrase, TextHash, std::equal_to<>>
        phrases;
  };
  static constexpr size_t kMemoShards = 16;

  AffinityMode mode_;
  SubwordEmbedder words_;
  CharEmbedder chars_;
  SentenceEmbedder sentences_;
  mutable std::array<MemoShard, kMemoShards> memo_;
  mutable std::atomic<size_t> memo_size_{0};
};

}  // namespace kgqan::embed

#endif  // KGQAN_EMBEDDING_AFFINITY_H_
