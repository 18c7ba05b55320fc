#include "baselines/label_index.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "nlp/pos_tagger.h"
#include "rdf/term.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace kgqan::baselines {

namespace {

size_t MapBytes(
    const std::unordered_map<std::string, std::vector<std::string>>& map) {
  size_t bytes = 0;
  for (const auto& [key, values] : map) {
    bytes += key.size() + 48;
    for (const std::string& v : values) bytes += v.size() + 16;
  }
  return bytes;
}

}  // namespace

void UriTokenIndex::Build(const sparql::Endpoint& endpoint) {
  std::unordered_set<std::string> seen;
  auto index_iri = [&](const rdf::Term& term) {
    if (!term.IsIri()) return;
    if (!seen.insert(term.value).second) return;
    std::vector<std::string> words =
        util::SplitIdentifierWords(rdf::IriLocalName(term.value));
    std::set<std::string> uniq(words.begin(), words.end());
    token_count_[term.value] = uniq.size();
    for (const std::string& w : uniq) {
      if (w.size() < 2) continue;
      postings_[w].push_back(term.value);
    }
  };
  const store::TripleStore& store = endpoint.store();
  auto index_triple = [&](const rdf::Triple& t) {
    const rdf::Term& s = store.dictionary().Get(t.s);
    const rdf::Term& p = store.dictionary().Get(t.p);
    const rdf::Term& o = store.dictionary().Get(t.o);
    index_iri(s);
    index_iri(o);
    // Forward + reverse adjacency entries of the subgraph-matching index
    // (strings + node overhead).
    graph_bytes_ += 2 * (s.value.size() + p.value.size() + o.value.size() +
                         o.datatype.size() + 48);
    return true;
  };
  // Baselines pre-process the whole KG (unlike KGQAn), so they scan every
  // triple of the endpoint's store.
  store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
              index_triple);
}

std::vector<std::string> UriTokenIndex::Lookup(const std::string& phrase,
                                               size_t limit) const {
  std::vector<std::string> tokens = text::ContentTokens(phrase);
  if (tokens.empty()) return {};
  // Intersect postings of all tokens.
  std::vector<std::string> candidates;
  for (size_t i = 0; i < tokens.size(); ++i) {
    auto it = postings_.find(tokens[i]);
    if (it == postings_.end()) return {};  // Unknown token: no match.
    if (i == 0) {
      candidates = it->second;
      std::sort(candidates.begin(), candidates.end());
      continue;
    }
    std::vector<std::string> posting = it->second;
    std::sort(posting.begin(), posting.end());
    std::vector<std::string> merged;
    std::set_intersection(candidates.begin(), candidates.end(),
                          posting.begin(), posting.end(),
                          std::back_inserter(merged));
    candidates = std::move(merged);
    if (candidates.empty()) return {};
  }
  // Rank: candidates whose URI has the fewest extra tokens first.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const std::string& a, const std::string& b) {
                     return token_count_.at(a) < token_count_.at(b);
                   });
  if (candidates.size() > limit) candidates.resize(limit);
  return candidates;
}

size_t UriTokenIndex::ApproxBytes() const {
  // Postings are replicated across the crossWikis synonym expansions
  // (~4 surface forms per entity in the dictionary).
  size_t bytes = 4 * MapBytes(postings_);
  for (const auto& [iri, n] : token_count_) {
    (void)n;
    bytes += iri.size() + 24;
  }
  return bytes + graph_bytes_;
}

void LabelEnsembleIndex::Build(
    const sparql::Endpoint& endpoint,
    const std::vector<std::string>& label_predicates) {
  nlp::PosTagger tagger;  // Falcon performs POS tagging on descriptions.
  const store::TripleStore& store = endpoint.store();
  auto index_label = [&](const rdf::Triple& t) {
    const rdf::Term& subject = store.dictionary().Get(t.s);
    const rdf::Term& object = store.dictionary().Get(t.o);
    if (!subject.IsIri() || !object.IsLiteral()) return true;
    std::string lower = util::ToLower(object.value);
    exact_[lower].push_back(subject.value);
    for (const std::string& tok : text::Tokenize(lower)) {
      // POS-tag each token (cost model of Falcon's linguistic pipeline;
      // the tag itself is not stored).
      (void)tagger.Tag(tok);
      tokens_[tok].push_back(subject.value);
      // Character trigrams for fuzzy lookup.
      std::string marked = "^" + tok + "$";
      for (size_t j = 0; j + 3 <= marked.size(); ++j) {
        trigrams_[marked.substr(j, 3)].push_back(subject.value);
      }
    }
    return true;
  };
  // Per-predicate scans over the store (the index is a pre-processing
  // artifact).
  for (const std::string& pred : label_predicates) {
    auto pid = store.dictionary().FindIri(pred);
    if (!pid.has_value()) continue;
    store.Match(rdf::kNullTermId, *pid, rdf::kNullTermId, index_label);
  }
}

std::vector<std::string> LabelEnsembleIndex::Lookup(const std::string& phrase,
                                                    size_t limit) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  auto push = [&](const std::string& iri) {
    if (out.size() < limit && seen.insert(iri).second) out.push_back(iri);
  };
  std::string lower = util::ToLower(phrase);
  // 1. Exact label.
  if (auto it = exact_.find(lower); it != exact_.end()) {
    for (const std::string& iri : it->second) push(iri);
  }
  // 2. Token-AND.
  std::vector<std::string> toks = text::ContentTokens(lower);
  if (!toks.empty()) {
    std::unordered_map<std::string, size_t> hits;
    for (const std::string& tok : toks) {
      if (auto it = tokens_.find(tok); it != tokens_.end()) {
        std::unordered_set<std::string> uniq(it->second.begin(),
                                             it->second.end());
        for (const std::string& iri : uniq) ++hits[iri];
      }
    }
    std::vector<std::string> all_match;
    for (const auto& [iri, n] : hits) {
      if (n == toks.size()) all_match.push_back(iri);
    }
    std::sort(all_match.begin(), all_match.end());
    for (const std::string& iri : all_match) push(iri);
  }
  // 3. Trigram fuzzy on the first token (typos, morphological noise).
  if (!toks.empty() && out.size() < limit) {
    std::string marked = "^" + toks[0] + "$";
    std::unordered_map<std::string, size_t> hits;
    for (size_t i = 0; i + 3 <= marked.size(); ++i) {
      auto it = trigrams_.find(marked.substr(i, 3));
      if (it == trigrams_.end()) continue;
      std::unordered_set<std::string> uniq(it->second.begin(),
                                           it->second.end());
      for (const std::string& iri : uniq) ++hits[iri];
    }
    std::vector<std::pair<size_t, std::string>> ranked;
    for (const auto& [iri, n] : hits) {
      if (n + 1 >= marked.size() - 2) ranked.emplace_back(n, iri);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (const auto& [n, iri] : ranked) {
      (void)n;
      push(iri);
    }
  }
  return out;
}

size_t LabelEnsembleIndex::ApproxBytes() const {
  // The ensemble's document stores keep compact postings (document ids +
  // term frequencies), not full IRI strings.
  auto posting_bytes = [](const std::unordered_map<
                           std::string, std::vector<std::string>>& map) {
    size_t bytes = 0;
    for (const auto& [key, values] : map) {
      bytes += key.size() + 48 + values.size() * 12;
    }
    return bytes;
  };
  return posting_bytes(exact_) + posting_bytes(tokens_) +
         posting_bytes(trigrams_);
}

}  // namespace kgqan::baselines
