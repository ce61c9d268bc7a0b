#include "shapley/cluster/shard_map.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shapley::cluster {

uint64_t StableHash64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis.
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x00000100000001b3ull;  // FNV prime.
  }
  return h;
}

std::string ShardKeyFor(const SvcRequest& request) {
  if (request.query == nullptr) return "";
  // NOT OracleCache::Fingerprint: that key renders interner ids, which
  // depend on the ORDER a schema happened to intern symbols — stable
  // within one process's cache, but different between the client that
  // built a request and the router that decoded it (and between two
  // routers decoding permuted fact lists). The routing key must be a pure
  // function of the instance, so it renders fact TEXT through the
  // request's own schema and sorts it: any process holding a canonically
  // equal (query, database) computes the same key.
  // This runs per request on the always-on digest path as well as per
  // routed request, so every fact is rendered once into ONE text buffer,
  // each partition's renderings are sorted as spans of it, and the key is
  // built in one reserved buffer.
  // A database without facts may have no schema: it is read per fact.
  const Schema* schema = request.db.schema().get();
  const std::vector<Fact>& endogenous = request.db.endogenous().facts();
  const std::vector<Fact>& exogenous = request.db.exogenous().facts();
  std::string text;
  text.reserve(16 * (endogenous.size() + exogenous.size()));
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, length) in text.
  spans.reserve(endogenous.size() + exogenous.size());
  for (const std::vector<Fact>* facts : {&endogenous, &exogenous}) {
    for (const Fact& fact : *facts) {
      const size_t begin = text.size();
      fact.AppendTo(*schema, &text);
      spans.emplace_back(begin, text.size() - begin);
    }
  }
  const std::string_view all = text;
  const auto by_text = [all](const auto& a, const auto& b) {
    return all.substr(a.first, a.second) < all.substr(b.first, b.second);
  };
  const auto exogenous_begin = spans.begin() + endogenous.size();
  std::sort(spans.begin(), exogenous_begin, by_text);
  std::sort(exogenous_begin, spans.end(), by_text);

  const std::string query = request.query->ToString();
  std::string key;
  key.reserve(8 + query.size() + text.size() + spans.size());
  const auto append = [&](auto first, auto last) {
    for (; first != last; ++first) {
      key.append(text, first->first, first->second);
      key += '\x1e';
    }
  };
  key += "route\x1f";
  key += query;
  key += '\x1f';
  append(spans.begin(), exogenous_begin);
  key += '\x1f';
  append(exogenous_begin, spans.end());
  return key;
}

ShardMap::ShardMap(std::vector<std::string> backend_ids)
    : ids_(std::move(backend_ids)) {}

uint64_t ShardMap::Weight(const std::string& key, size_t backend) const {
  // One hash over key + unit separator + id: the separator keeps
  // ("a", "bc") and ("ab", "c") from colliding by concatenation.
  return StableHash64(key + '\x1f' + ids_[backend]);
}

std::vector<size_t> ShardMap::Rank(const std::string& key) const {
  std::vector<std::pair<uint64_t, size_t>> weighted;
  weighted.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    weighted.emplace_back(Weight(key, i), i);
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<size_t> order;
  order.reserve(weighted.size());
  for (const auto& [weight, index] : weighted) order.push_back(index);
  return order;
}

size_t ShardMap::Pick(const std::string& key,
                      const std::vector<bool>& eligible) const {
  size_t best = npos;
  uint64_t best_weight = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (!eligible[i]) continue;
    const uint64_t weight = Weight(key, i);
    if (best == npos || weight > best_weight) {
      best = i;
      best_weight = weight;
    }
  }
  return best;
}

}  // namespace shapley::cluster
