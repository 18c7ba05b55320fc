#include "text/text_index.h"

#include <algorithm>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace kgqan::text {

using util::Status;
using util::StatusOr;

StatusOr<ContainsQuery> ParseContainsQuery(std::string_view expr) {
  // Tokenize on whitespace, honoring single quotes around words/phrases.
  std::vector<std::string> raw;
  std::string cur;
  bool in_quote = false;
  for (char c : expr) {
    if (c == '\'') {
      in_quote = !in_quote;
      continue;
    }
    if (!in_quote && (c == ' ' || c == '\t')) {
      if (!cur.empty()) {
        raw.push_back(cur);
        cur.clear();
      }
      continue;
    }
    cur.push_back(c);
  }
  if (in_quote) return Status::ParseError("unterminated quote in contains");
  if (!cur.empty()) raw.push_back(cur);
  if (raw.empty()) return Status::ParseError("empty contains expression");

  ContainsQuery out;
  out.or_groups.emplace_back();
  bool expect_word = true;
  for (const std::string& piece : raw) {
    std::string lower = util::ToLower(piece);
    if (lower == "or") {
      if (expect_word) return Status::ParseError("misplaced OR");
      out.or_groups.emplace_back();
      expect_word = true;
      continue;
    }
    if (lower == "and") {
      if (expect_word) return Status::ParseError("misplaced AND");
      expect_word = true;
      continue;
    }
    // A quoted phrase may contain several words; all are ANDed.
    for (std::string& tok : Tokenize(lower)) {
      out.or_groups.back().push_back(std::move(tok));
    }
    expect_word = false;
  }
  if (expect_word) return Status::ParseError("dangling operator in contains");
  for (auto& g : out.or_groups) {
    if (g.empty()) return Status::ParseError("empty AND group");
  }
  return out;
}

void TextIndex::IndexLiteral(const rdf::Term& term, rdf::TermId id) {
  if (!term.IsLiteral()) return;
  // Index plain/xsd:string and language-tagged literals only.
  if (!term.IsStringLiteral() && term.lang.empty()) return;
  std::vector<std::string> toks = Tokenize(term.value);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  for (std::string& tok : toks) {
    postings_[std::move(tok)].push_back(id);
    ++posting_count_;
  }
}

void TextIndex::SortPostings() {
  // Postings were appended in ascending literal id order already, but sort
  // defensively (cheap, once).
  for (auto& [tok, ids] : postings_) {
    (void)tok;
    std::sort(ids.begin(), ids.end());
  }
}

std::vector<rdf::TermId> TextIndex::MatchLiterals(const ContainsQuery& query,
                                                  size_t limit) const {
  // score = number of distinct query words contained in the literal.
  std::unordered_map<rdf::TermId, uint32_t> word_hits;

  // Collect all distinct query words for scoring.
  std::vector<std::string> words;
  for (const auto& group : query.or_groups) {
    for (const auto& w : group) words.push_back(w);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());

  auto posting = [&](const std::string& w) -> const std::vector<rdf::TermId>* {
    auto it = postings_.find(w);
    return it == postings_.end() ? nullptr : &it->second;
  };

  for (const std::string& w : words) {
    if (const auto* ids = posting(w)) {
      for (rdf::TermId id : *ids) ++word_hits[id];
    }
  }

  auto literal_has = [&](rdf::TermId id, const std::string& w) {
    const auto* ids = posting(w);
    return ids != nullptr && std::binary_search(ids->begin(), ids->end(), id);
  };

  std::vector<std::pair<uint32_t, rdf::TermId>> ranked;
  ranked.reserve(word_hits.size());
  for (const auto& [id, hits] : word_hits) {
    bool ok = false;
    for (const auto& group : query.or_groups) {
      bool all = true;
      for (const std::string& w : group) {
        if (!literal_has(id, w)) {
          all = false;
          break;
        }
      }
      if (all) {
        ok = true;
        break;
      }
    }
    if (ok) ranked.emplace_back(hits, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;  // More hits first.
    return a.second < b.second;                        // Stable tiebreak.
  });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<rdf::TermId> out;
  out.reserve(ranked.size());
  for (const auto& [hits, id] : ranked) {
    (void)hits;
    out.push_back(id);
  }
  return out;
}

size_t TextIndex::ApproxIndexBytes() const {
  size_t bytes = 0;
  for (const auto& [tok, ids] : postings_) {
    bytes += tok.size() + 32 + ids.capacity() * sizeof(rdf::TermId);
  }
  return bytes;
}

}  // namespace kgqan::text
