#include "text/text_index.h"

#include <algorithm>
#include <cstddef>

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

TextIndex::TextIndex(const store::TripleStore& store) {
  std::vector<rdf::TermId> literal_ids;
  store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
              [&](const rdf::Triple& t) {
                literal_ids.push_back(t.o);
                return true;
              });
  std::sort(literal_ids.begin(), literal_ids.end());
  literal_ids.erase(std::unique(literal_ids.begin(), literal_ids.end()),
                    literal_ids.end());
  // Ascending ids keep every posting list sorted by construction.
  for (rdf::TermId id : literal_ids) {
    IndexLiteral(store.dictionary().Get(id), id);
  }
}

size_t TextIndex::Add(const store::TripleStore& store,
                      const std::vector<rdf::Triple>& inserted) {
  // Objects of the batch in ascending id order, each with its number of
  // new triples.  An object is new to the index exactly when the store now
  // holds no other triple with it as object.
  std::vector<rdf::TermId> objects;
  objects.reserve(inserted.size());
  for (const rdf::Triple& t : inserted) objects.push_back(t.o);
  std::sort(objects.begin(), objects.end());
  size_t indexed = 0;
  for (auto run = objects.begin(); run != objects.end();) {
    auto end = std::upper_bound(run, objects.end(), *run);
    const size_t fresh = static_cast<size_t>(end - run);
    if (store.CountMatches(rdf::kNullTermId, rdf::kNullTermId, *run) ==
            fresh &&
        IndexLiteral(store.dictionary().Get(*run), *run)) {
      ++indexed;
    }
    run = end;
  }
  return indexed;
}

bool TextIndex::IndexLiteral(const rdf::Term& term, rdf::TermId id) {
  if (!term.IsLiteral()) return false;
  // Index plain/xsd:string and language-tagged literals only.
  if (!term.IsStringLiteral() && term.lang.empty()) return false;
  std::vector<std::string> toks = Tokenize(term.value);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  for (std::string& tok : toks) {
    std::vector<rdf::TermId>& ids = postings_[std::move(tok)];
    // Term ids are interned sequentially, so a new literal normally
    // extends the list at the tail; an older id (a literal interned before
    // it first became an object) takes a sorted insert.
    if (ids.empty() || ids.back() < id) {
      ids.push_back(id);
    } else {
      ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
    }
    ++posting_count_;
  }
  return true;
}

std::vector<rdf::TermId> TextIndex::MatchLiterals(const ContainsQuery& query,
                                                  size_t limit) const {
  // Distinct query words; a literal's score is how many of them it contains.
  std::vector<std::string> words;
  for (const auto& group : query.or_groups) {
    for (const auto& w : group) words.push_back(w);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  auto word_index = [&](const std::string& w) {
    return static_cast<size_t>(
        std::lower_bound(words.begin(), words.end(), w) - words.begin());
  };
  std::vector<std::vector<size_t>> groups;
  groups.reserve(query.or_groups.size());
  for (const auto& group : query.or_groups) {
    std::vector<size_t>& g = groups.emplace_back();
    for (const auto& w : group) g.push_back(word_index(w));
  }

  // Cursors over the words' sorted posting lists (empty if unindexed).
  struct Cursor {
    const rdf::TermId* it = nullptr;
    const rdf::TermId* end = nullptr;
  };
  std::vector<Cursor> cursors(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    auto found = postings_.find(words[i]);
    if (found == postings_.end()) continue;
    cursors[i] = {found->second.data(),
                  found->second.data() + found->second.size()};
  }

  // Merge: visit each matched literal once, in ascending id order, with the
  // set of query words whose postings contain it.
  std::vector<std::pair<uint32_t, rdf::TermId>> ranked;
  std::vector<char> has(words.size());
  while (true) {
    bool any = false;
    rdf::TermId id = 0;
    for (const Cursor& c : cursors) {
      if (c.it != c.end && (!any || *c.it < id)) {
        id = *c.it;
        any = true;
      }
    }
    if (!any) break;
    uint32_t hits = 0;
    for (size_t i = 0; i < cursors.size(); ++i) {
      Cursor& c = cursors[i];
      has[i] = c.it != c.end && *c.it == id;
      if (has[i]) {
        ++c.it;
        ++hits;
      }
    }
    bool ok = std::any_of(groups.begin(), groups.end(), [&](const auto& g) {
      return std::all_of(g.begin(), g.end(), [&](size_t w) { return has[w]; });
    });
    if (ok) ranked.emplace_back(hits, id);
  }

  // Top `limit` by hits (descending), ties by id (ascending).
  const size_t keep = std::min(limit, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<rdf::TermId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
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
