#include "rdf/term_dictionary.h"

namespace kgqan::rdf {

TermDictionary::TermDictionary() {
  terms_.emplace_back();  // Reserve slot 0 as the null term.
}

std::string TermDictionary::EncodeKey(const Term& term) {
  std::string key;
  key.reserve(term.value.size() + term.datatype.size() + term.lang.size() + 4);
  key.push_back(static_cast<char>(term.kind));
  key.append(term.value);
  key.push_back('\x1f');
  key.append(term.datatype);
  key.push_back('\x1f');
  key.append(term.lang);
  return key;
}

TermId TermDictionary::Intern(const Term& term) {
  std::string key = EncodeKey(term);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.push_back(term);
  // Hash-map nodes: key string + id + bucket overhead (rough but stable).
  string_bytes_ += term.value.size() + term.datatype.size() +
                   term.lang.size() + key.size() + sizeof(TermId) + 32;
  ids_.emplace(std::move(key), id);
  return id;
}

std::optional<TermId> TermDictionary::Find(const Term& term) const {
  auto it = ids_.find(EncodeKey(term));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::optional<TermId> TermDictionary::FindIri(std::string_view iri) const {
  return Find(Iri(std::string(iri)));
}

}  // namespace kgqan::rdf
