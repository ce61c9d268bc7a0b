#include "shapley/data/fact.h"

namespace shapley {

Fact::Fact(RelationId relation, std::vector<Constant> args)
    : relation_(relation), args_(std::move(args)) {}

Fact::Fact(RelationId relation, std::initializer_list<Constant> args)
    : relation_(relation), args_(args) {}

bool Fact::Mentions(Constant c) const {
  for (Constant arg : args_) {
    if (arg == c) return true;
  }
  return false;
}

std::string Fact::ToString(const Schema& schema) const {
  std::string out;
  AppendTo(schema, &out);
  return out;
}

void Fact::AppendTo(const Schema& schema, std::string* out) const {
  // Direct string building: this renders on hot serving paths (response
  // encoding, shard keys), where a per-call ostringstream dominates the
  // actual formatting work.
  *out += schema.name(relation_);
  *out += '(';
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) *out += ',';
    *out += args_[i].name();
  }
  *out += ')';
}

std::strong_ordering operator<=>(const Fact& a, const Fact& b) {
  if (a.relation_ != b.relation_) return a.relation_ <=> b.relation_;
  return a.args_ <=> b.args_;
}

size_t Fact::Hash() const {
  size_t h = relation_ * 0x9e3779b97f4a7c15ull + 1;
  for (Constant c : args_) {
    h ^= c.id() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace shapley
