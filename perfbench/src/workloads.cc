#include "workloads.h"

#include <cmath>
#include <map>

namespace perfbench {

namespace {

// Interactive-sized instances: |Dn| 3-12, every catalog class. Sizes are
// spread evenly and bases are used in turn, so runs with different seeds
// share one make-up and differ only in the facts drawn.
constexpr int kSmallMin = 3, kSmallMax = 12;
constexpr int kSmallPerClass = 40;
constexpr int kHotPerClass = 10;

// The i-th of `count` sizes spread evenly over [lo, hi].
int Spread(int i, int count, int lo, int hi) {
  return lo + (count <= 1 ? 0 : (i % count) * (hi - lo) / (count - 1));
}

// Mode pattern of fresh small operations, repeated in every round so each
// round has the same mix: 10 all-values, 4 max, 3 top-k, 3 classify-only.
Mode SmallMode(int k) {
  static const Mode pattern[20] = {
      Mode::kAllValues, Mode::kMaxValue,  Mode::kAllValues, Mode::kTopK,
      Mode::kAllValues, Mode::kClassifyOnly, Mode::kAllValues, Mode::kMaxValue,
      Mode::kAllValues, Mode::kTopK,      Mode::kAllValues, Mode::kClassifyOnly,
      Mode::kAllValues, Mode::kMaxValue,  Mode::kAllValues, Mode::kTopK,
      Mode::kAllValues, Mode::kClassifyOnly, Mode::kAllValues, Mode::kMaxValue};
  return pattern[k % 20];
}

class Builder {
 public:
  Builder(const WorkloadSpec& spec, uint64_t seed)
      : rng_(SubSeed(seed, 1)), seed_(seed) {
    plan_.spec = spec;
  }

  int AddBase(Instance instance) {
    plan_.bases.push_back(std::move(instance));
    return static_cast<int>(plan_.bases.size()) - 1;
  }

  /// kSmallPerClass small bases per catalog class; returns their indices
  /// grouped by class.
  std::vector<std::vector<int>> SmallPool() {
    std::vector<std::vector<int>> pool(kNumQueries);
    for (int q = 0; q < kNumQueries; ++q) {
      for (int i = 0; i < kSmallPerClass; ++i) {
        const int size = kSmallMin + i % (kSmallMax - kSmallMin + 1);
        pool[q].push_back(AddBase(GenerateInstance(q, size, 2, rng_)));
      }
    }
    return pool;
  }

  /// The next base of `bases`, in turn.
  int Next(const std::vector<int>& bases) {
    return bases[turn_[&bases]++ % bases.size()];
  }

  Op Fresh(int base, Mode mode) {
    Op op;
    op.base = base;
    op.suffix = (warmup_ ? "w" : "k") + std::to_string(counter_++);
    op.mode = mode;
    op.top_k = 2 + static_cast<int>(counter_ % 3);
    return op;
  }

  /// The k-th fresh small operation of a round: classes cycle, the base is
  /// drawn within the class.
  Op FreshSmall(const std::vector<std::vector<int>>& pool, int k) {
    return Fresh(Next(pool[static_cast<size_t>(k) % pool.size()]), SmallMode(k));
  }

  void Shuffle(std::vector<Post>* posts) {
    for (size_t i = posts->size(); i > 1; --i) {
      std::swap((*posts)[i - 1], (*posts)[rng_.Next() % i]);
    }
  }

  Rng& rng() { return rng_; }
  uint64_t seed() const { return seed_; }
  void set_warmup(bool warmup) { warmup_ = warmup; }
  Plan& plan() { return plan_; }

 private:
  Plan plan_;
  Rng rng_;
  uint64_t seed_;
  uint64_t counter_ = 0;
  bool warmup_ = false;
  std::map<const std::vector<int>*, size_t> turn_;
};

Post Single(Op op) {
  Post post;
  post.ops.push_back(std::move(op));
  return post;
}

// ------------------------------------------------------------ workloads --

// interactive / fleet: 20 hot + 20 fresh singles per round (fleet adds one
// 8-item batch). The hot set is 140 (instance, mode) pairs over 70 small
// instances (|Dn| 3-12) sent verbatim, so they hit the OracleCache and the
// verdict cache.
void BuildInteractive(Builder* b, int rounds, bool with_batch) {
  const auto pool = b->SmallPool();
  std::vector<Op> hot;
  for (int i = 0; i < kHotPerClass * kNumQueries; ++i) {
    const int q = i % kNumQueries;
    const int base = b->AddBase(GenerateInstance(q, kSmallMin + i / kNumQueries, 2, b->rng()));
    for (Mode mode : {Mode::kAllValues, i % 2 == 0 ? Mode::kTopK : Mode::kMaxValue}) {
      Op op;
      op.base = base;
      op.mode = mode;
      hot.push_back(op);
    }
  }
  size_t next_hot = 0;
  auto round = [&]() {
    std::vector<Post> posts;
    for (int k = 0; k < 20; ++k) posts.push_back(Single(hot[next_hot++ % hot.size()]));
    for (int k = 0; k < 20; ++k) posts.push_back(Single(b->FreshSmall(pool, k)));
    b->Shuffle(&posts);
    if (with_batch) {
      Post batch;
      batch.batch = true;
      for (int k = 0; k < 8; ++k) batch.ops.push_back(b->FreshSmall(pool, k * 3 + 1));
      posts.insert(posts.begin() + static_cast<long>(posts.size() / 2), batch);
    }
    return posts;
  };
  b->set_warmup(true);
  for (const Op& op : hot) b->plan().warmup.push_back(Single(op));
  for (Post& post : round()) b->plan().warmup.push_back(std::move(post));
  b->set_warmup(false);
  for (int r = 0; r < rounds; ++r) b->plan().rounds.push_back(round());
}

// batch: per round two posts; each starts with heavy exact items (brute
// force at |Dn| 14-17, lifted at 40-90, d-DNNF at 30-45) followed by 30
// fresh interactive-sized items.
void BuildBatch(Builder* b, int rounds) {
  const auto pool = b->SmallPool();
  std::vector<int> brute, lifted, ddnnf;
  const int brute_classes[] = {kRST, kNeg, kConst, kUcq, kSelfJoin};
  for (int i = 0; i < 20; ++i) {
    brute.push_back(b->AddBase(
        GenerateInstance(brute_classes[i % 5], 14 + i % 4, 2, b->rng())));
  }
  for (int i = 0; i < 12; ++i) {
    lifted.push_back(b->AddBase(GenerateInstance(i % 2 == 0 ? kHierRS : kHierRST,
                                                 Spread(i, 12, 40, 90), 3, b->rng())));
  }
  for (int i = 0; i < 12; ++i) {
    ddnnf.push_back(b->AddBase(
        GenerateInstance(i % 2 == 0 ? kRST : kUcq, Spread(i, 12, 30, 45), 3, b->rng())));
  }
  auto pick = [&](const std::vector<int>& bases) {
    Op op = b->Fresh(b->Next(bases), Mode::kAllValues);
    op.heavy = true;
    return op;
  };
  auto post = [&](bool three) {
    Post p;
    p.batch = true;
    p.ops.push_back(pick(brute));
    p.ops.push_back(pick(three ? lifted : ddnnf));
    if (three) p.ops.push_back(pick(ddnnf));
    for (int k = 0; k < 30; ++k) p.ops.push_back(b->FreshSmall(pool, k));
    return p;
  };
  b->set_warmup(true);
  b->plan().warmup = {post(true)};
  b->set_warmup(false);
  for (int r = 0; r < rounds; ++r) b->plan().rounds.push_back({post(true), post(false)});
}

// approx: /v1/compute singles beyond the brute-force guard (|Dn| 26-64).
// Monotone requests name the sampling engine; CQ¬ requests opt in with
// allow_approx. Each round of six runs every strategy twice. The 96 bases
// (24 per class) are each sent once in every 16 rounds, so a block of 16
// rounds holds every base once: the cost of a block averages over all the
// seed's instances.
constexpr int kApproxPerClass = 24;

void BuildApprox(Builder* b, int rounds) {
  std::vector<std::vector<int>> by_class;
  for (int q : {kHierRS, kRST, kUcq, kNeg}) {
    std::vector<int> bases;
    for (int i = 0; i < kApproxPerClass; ++i) {
      Instance instance;
      if (q == kNeg) {
        // A CQ¬ core small enough for the subset-formula reference, padded
        // with null players (which bernstein retires early).
        instance = GenerateInstance(q, 10 + i % 3, 2, b->rng());
        AddNullPadding(&instance, Spread(i, kApproxPerClass, 16, 28), b->rng());
      } else {
        instance = GenerateInstance(q, Spread(i, kApproxPerClass, 26, 64), 3, b->rng());
        // Every other sjf instance carries null players too: the
        // low-variance share.
        if (i % 2 == 1 && Catalog()[q].sjf_connected) {
          AddNullPadding(&instance, 8, b->rng());
        }
      }
      bases.push_back(b->AddBase(std::move(instance)));
    }
    by_class.push_back(bases);
  }
  static const char* strategies[] = {"hoeffding", "bernstein", "stratified"};
  static const double epsilons[] = {0.05, 0.04, 0.05, 0.03, 0.04, 0.05};
  int k = 0;
  auto round = [&]() {
    std::vector<Post> posts;
    for (int i = 0; i < 6; ++i, ++k) {
      Op op = b->Fresh(b->Next(by_class[static_cast<size_t>(k) % by_class.size()]),
                       Mode::kAllValues);
      op.sampled = true;
      if (Catalog()[b->plan().bases[static_cast<size_t>(op.base)].query].monotone) {
        op.engine = "sampling";
      } else {
        op.allow_approx = true;
      }
      op.approx.strategy = strategies[i % 3];
      op.approx.epsilon = epsilons[i];
      op.approx.delta = 0.05;
      op.approx.seed = SubSeed(b->seed(), 1000 + static_cast<uint64_t>(k));
      posts.push_back(Single(op));
    }
    return posts;
  };
  b->set_warmup(true);
  b->plan().warmup = round();
  b->set_warmup(false);
  for (int r = 0; r < rounds; ++r) b->plan().rounds.push_back(round());
}

}  // namespace

WorkloadSpec FindWorkload(const std::string& name) {
  // blocks_per_second makes a run last about --seconds on one CPU of a
  // loaded 4-vCPU host (about half that on a quiet one). A block holds whole
  // cycles of what makes its operations costly: interactive's hot set takes
  // 7 rounds, batch's 20 brute-force bases ten, approx's (class, base,
  // strategy) mix sixteen, which send each of its 96 bases once (so its tail
  // is over 96 operations); fleet's block is about a second's rounds. Blocks
  // then cost alike: 560, 650, 96 and 480 operations.
  if (name == "interactive") return {name, false, 14, 1.05};
  if (name == "batch") return {name, false, 10, 0.16};
  if (name == "approx") return {name, false, 16, 0.14};
  if (name == "fleet") return {name, true, 10, 1.0};
  return {};
}

Plan BuildPlan(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  Builder b(spec, seed);
  const int rounds = static_cast<int>(spec.block_rounds) *
                     std::max(1, static_cast<int>(std::lround(spec.blocks_per_second * seconds)));
  if (spec.name == "interactive") BuildInteractive(&b, rounds, false);
  if (spec.name == "fleet") BuildInteractive(&b, rounds, true);
  if (spec.name == "batch") BuildBatch(&b, rounds);
  if (spec.name == "approx") BuildApprox(&b, rounds);
  return std::move(b.plan());
}

void SetBodies(Plan* plan, bool trace) {
  auto set = [&](Post& post) {
    if (!post.batch) {
      post.body = RequestJson(post.ops[0], plan->bases[static_cast<size_t>(post.ops[0].base)],
                              trace);
      return;
    }
    post.body = "{\"requests\":[";
    for (size_t i = 0; i < post.ops.size(); ++i) {
      if (i > 0) post.body += ",";
      post.body += RequestJson(post.ops[i],
                               plan->bases[static_cast<size_t>(post.ops[i].base)], trace);
    }
    post.body += "]}";
  };
  for (Post& post : plan->warmup) set(post);
  for (auto& round : plan->rounds) {
    for (Post& post : round) set(post);
  }
}

}  // namespace perfbench
