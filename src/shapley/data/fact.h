#ifndef SHAPLEY_DATA_FACT_H_
#define SHAPLEY_DATA_FACT_H_

#include <compare>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "shapley/data/schema.h"
#include "shapley/data/symbol.h"

namespace shapley {

/// A ground atom R(c1, ..., ck): a relation id plus constant arguments.
class Fact {
 public:
  Fact() = default;
  Fact(RelationId relation, std::vector<Constant> args);
  Fact(RelationId relation, std::initializer_list<Constant> args);

  RelationId relation() const { return relation_; }
  const std::vector<Constant>& args() const { return args_; }
  size_t arity() const { return args_.size(); }

  /// True iff `c` occurs among the arguments.
  bool Mentions(Constant c) const;

  /// "R(a,b)" given the schema that owns the relation id.
  std::string ToString(const Schema& schema) const;
  /// Appends the same rendering to `out`.
  void AppendTo(const Schema& schema, std::string* out) const;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation_ == b.relation_ && a.args_ == b.args_;
  }
  friend std::strong_ordering operator<=>(const Fact& a, const Fact& b);

  size_t Hash() const;

 private:
  RelationId relation_ = 0;
  std::vector<Constant> args_;
};

}  // namespace shapley

template <>
struct std::hash<shapley::Fact> {
  size_t operator()(const shapley::Fact& f) const { return f.Hash(); }
};

#endif  // SHAPLEY_DATA_FACT_H_
