// The shard map's contract, pinned down without any network:
//
//  (a) StableHash64 IS FNV-1a 64 (reference vectors) — the hash is part
//      of the wire-level contract, since every router instance must
//      compute the same placement;
//  (b) rendezvous ranking: deterministic, a permutation of the backends,
//      and MINIMALLY DISRUPTIVE — deleting one backend remaps exactly the
//      keys that lived on it, every other key keeps its shard;
//  (c) Pick honors eligibility and falls through the ranking in order;
//  (d) ShardKeyFor is the canonical instance fingerprint: equal instances
//      (even textually different ones) share a key, distinct instances
//      get distinct keys, a query-less request yields "", and a query
//      over an empty database is keyed by the query alone.

#include "shapley/cluster/shard_map.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

using cluster::ShardKeyFor;
using cluster::ShardMap;
using cluster::StableHash64;

TEST(ShardMapTest, StableHash64MatchesFnv1a64ReferenceVectors) {
  // Offset basis and standard vectors — a regression here would silently
  // reshuffle every deployed fleet's placement.
  EXPECT_EQ(StableHash64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(StableHash64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(StableHash64("foobar"), 0x85944171f73967e8ull);
}

TEST(ShardMapTest, RankIsADeterministicPermutation) {
  const std::vector<std::string> ids = {"h0:1", "h1:1", "h2:1", "h3:1"};
  ShardMap map(ids);
  for (int k = 0; k < 50; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const std::vector<size_t> rank = map.Rank(key);
    ASSERT_EQ(rank.size(), ids.size());
    std::vector<bool> seen(ids.size(), false);
    for (size_t i : rank) {
      ASSERT_LT(i, ids.size());
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
    // Same key, same map → same ranking, call after call.
    EXPECT_EQ(map.Rank(key), rank);
    // And an independently constructed map agrees (no hidden state).
    EXPECT_EQ(ShardMap(ids).Rank(key), rank);
  }
}

TEST(ShardMapTest, RemovingABackendRemapsOnlyItsOwnKeys) {
  const std::vector<std::string> ids = {"h0:1", "h1:1", "h2:1", "h3:1"};
  ShardMap full(ids);
  // The survivor map drops h1 — the rendezvous property says every key
  // NOT homed on h1 keeps its placement, and h1's keys fall to their
  // second-ranked backend.
  ShardMap survivors({"h0:1", "h2:1", "h3:1"});
  const auto survivor_index = [](size_t full_index) {
    return full_index < 1 ? full_index : full_index - 1;
  };

  size_t remapped = 0;
  for (int k = 0; k < 200; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const std::vector<size_t> before = full.Rank(key);
    const size_t after = survivors.Rank(key)[0];
    if (before[0] == 1) {
      // A key that lived on the removed backend lands on its fallback.
      EXPECT_EQ(after, survivor_index(before[1]));
      ++remapped;
    } else {
      EXPECT_EQ(after, survivor_index(before[0]));
    }
  }
  // ~1/4 of 200 keys lived on h1; the property is vacuous if none did.
  EXPECT_GT(remapped, 0u);
}

TEST(ShardMapTest, PickHonorsEligibilityInRankOrder) {
  ShardMap map({"h0:1", "h1:1", "h2:1"});
  const std::string key = "some-key";
  const std::vector<size_t> rank = map.Rank(key);

  EXPECT_EQ(map.Pick(key, {true, true, true}), rank[0]);

  // Knock out the home shard: Pick falls to the next-ranked backend.
  std::vector<bool> eligible(3, true);
  eligible[rank[0]] = false;
  EXPECT_EQ(map.Pick(key, eligible), rank[1]);
  eligible[rank[1]] = false;
  EXPECT_EQ(map.Pick(key, eligible), rank[2]);
  EXPECT_EQ(map.Pick(key, {false, false, false}), ShardMap::npos);
}

TEST(ShardMapTest, ShardKeyIsTheCanonicalInstanceFingerprint) {
  auto schema = Schema::Create();
  const auto request_for = [&](const char* query_text, const char* db_text) {
    SvcRequest request;
    UcqPtr ucq = ParseUcq(schema, query_text);
    request.query =
        ucq->disjuncts().size() == 1 ? QueryPtr(ucq->disjuncts()[0]) : ucq;
    request.db = ParsePartitionedDatabase(schema, db_text);
    return request;
  };

  // Same instance, different surface text (fact order) → same key: the
  // fingerprint is canonical, so repeats warm the same backend cache.
  const SvcRequest a = request_for("R(x), S(x,y)", "R(a) S(a,b) | S(a,c)");
  const SvcRequest b = request_for("R(x), S(x,y)", "S(a,b) R(a) | S(a,c)");
  EXPECT_FALSE(ShardKeyFor(a).empty());
  EXPECT_EQ(ShardKeyFor(a), ShardKeyFor(b));

  // Any semantic difference — query, endogenous facts, or the
  // exogenous/endogenous split — moves the key.
  EXPECT_NE(ShardKeyFor(a),
            ShardKeyFor(request_for("R(x), S(x,y)", "R(a) S(a,b)")));
  EXPECT_NE(ShardKeyFor(a),
            ShardKeyFor(request_for("R(x)", "R(a) S(a,b) | S(a,c)")));
  EXPECT_NE(ShardKeyFor(a),
            ShardKeyFor(request_for("R(x), S(x,y)", "R(a) S(a,b) S(a,c)")));

  // No query → no fingerprint; the router falls back to hashing the body.
  SvcRequest empty;
  EXPECT_EQ(ShardKeyFor(empty), "");

  // A query over a default database (no facts, no schema) still has a key:
  // the query alone, with both partitions empty.
  SvcRequest no_facts;
  no_facts.query = a.query;
  EXPECT_EQ(ShardKeyFor(no_facts),
            "route\x1f" + a.query->ToString() + "\x1f\x1f");
}

}  // namespace
}  // namespace shapley
