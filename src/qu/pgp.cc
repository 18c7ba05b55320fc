#include "qu/pgp.h"

namespace kgqan::qu {

size_t Pgp::InternNode(const PhraseEntity& entity) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (entity.is_variable) {
      if (n.is_unknown && n.var_id == entity.var_id) return i;
    } else {
      if (!n.is_unknown && n.label == entity.label) return i;
    }
  }
  Node n;
  n.label = entity.label;
  n.is_unknown = entity.is_variable;
  n.var_id = entity.var_id;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

Pgp Pgp::Build(const TriplePatterns& triples) {
  Pgp pgp;
  for (const PhraseTriple& tp : triples) {
    size_t a = pgp.InternNode(tp.a);
    size_t b = pgp.InternNode(tp.b);
    pgp.edges_.push_back(Edge{tp.relation, a, b});
  }
  return pgp;
}

std::optional<size_t> Pgp::MainUnknown() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_unknown && nodes_[i].var_id == 1) return i;
  }
  return std::nullopt;
}

bool Pgp::IsPath() const {
  for (const Edge& e : edges_) {
    if (nodes_[e.a].is_unknown && nodes_[e.b].is_unknown) return true;
  }
  return false;
}

std::string Pgp::DebugString() const {
  std::string out;
  for (const Edge& e : edges_) {
    auto node_str = [&](size_t i) {
      const Node& n = nodes_[i];
      if (n.is_unknown) return "?u" + std::to_string(n.var_id);
      return "\"" + n.label + "\"";
    };
    out += '(';
    out += node_str(e.a);
    out += " -[";
    out += e.label;
    out += "]- ";
    out += node_str(e.b);
    out += ") ";
  }
  return out;
}

}  // namespace kgqan::qu
