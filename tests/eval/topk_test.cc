// TopKSelector property tests: both session modes — the bounded heap and
// the buffered partial_sort reference — fed whole or split at arbitrary
// block boundaries, through Push (contiguous spans) or PushIds (id lists),
// must return the *identical* ranked list as a full-sort oracle
// (tests/eval/topk_oracle.h). The ordering (score desc, id asc) is a strict
// total order over distinct ids, so the top-K list is unique; these tests
// pin that both modes realize it over randomized inputs with heavy ties,
// extreme magnitudes, masked prefixes and k ∈ {0, 1, ..., n, > n}.
#include "src/eval/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/util/rng.h"
#include "tests/eval/topk_oracle.h"

namespace hetefedrec {
namespace {

constexpr bool kModes[] = {false, true};  // heap, reference

const char* ModeName(bool reference) {
  return reference ? "reference" : "heap";
}

// One session over a whole catalogue score array.
std::vector<ItemId> SelectWhole(TopKSelector* sel, bool reference,
                                const std::vector<double>& scores,
                                const std::vector<bool>* masked, size_t k) {
  sel->Begin(k, masked, reference);
  sel->Push(0, scores.data(), scores.size());
  std::vector<ItemId> out = {99};  // Finish must overwrite stale contents
  sel->Finish(&out);
  return out;
}

// Runs the session over `scores` split at pseudo-random block boundaries
// (block layout must never affect the result).
std::vector<ItemId> StreamInBlocks(TopKSelector* sel, bool reference,
                                   const std::vector<double>& scores,
                                   const std::vector<bool>* masked, size_t k,
                                   Rng* rng) {
  sel->Begin(k, masked, reference);
  size_t first = 0;
  while (first < scores.size()) {
    size_t bs = 1 + rng->UniformInt(scores.size() - first);
    sel->Push(static_cast<ItemId>(first), scores.data() + first, bs);
    first += bs;
  }
  std::vector<ItemId> out;
  sel->Finish(&out);
  return out;
}

// One session over an explicit id list, pushed whole or in random blocks.
std::vector<ItemId> SelectIds(TopKSelector* sel, bool reference,
                              const std::vector<ItemId>& ids,
                              const std::vector<double>& scores, size_t k,
                              Rng* split = nullptr) {
  sel->Begin(k, nullptr, reference);
  size_t first = 0;
  while (first < ids.size()) {
    const size_t bs = split != nullptr
                          ? 1 + split->UniformInt(ids.size() - first)
                          : ids.size();
    sel->PushIds(ids.data() + first, scores.data() + first, bs);
    first += bs;
  }
  std::vector<ItemId> out;
  sel->Finish(&out);
  return out;
}

TEST(TopKSelectorTest, HandRankedCatalogues) {
  // Small hand-ranked cases, checked against both modes and the oracle:
  // score order, train-item masking, k beyond the unmasked items, and the
  // id tie-break.
  struct Case {
    std::vector<double> scores;
    std::vector<bool> mask;
    size_t k;
    std::vector<ItemId> expect;
  };
  const Case cases[] = {
      {{0.1, 0.9, 0.5, 0.7}, {false, false, false, false}, 3, {1, 3, 2}},
      {{0.9, 0.8, 0.7, 0.6}, {true, false, true, false}, 4, {1, 3}},
      {{0.5, 0.6}, {false, false}, 10, {1, 0}},
      {{0.5, 0.5, 0.5}, {false, false, false}, 2, {0, 1}},
  };
  TopKSelector sel;
  for (const Case& c : cases) {
    EXPECT_EQ(TopKItems(c.scores, c.mask, c.k), c.expect);
    for (bool reference : kModes) {
      EXPECT_EQ(SelectWhole(&sel, reference, c.scores, &c.mask, c.k),
                c.expect)
          << ModeName(reference);
    }
  }
}

TEST(TopKSelectorTest, BothModesMatchOracleOnRandomizedHeavyTies) {
  Rng rng(1234);
  TopKSelector sel;  // one instance across all cases: scratch must reset
  for (int rep = 0; rep < 200; ++rep) {
    const size_t n = 1 + rng.UniformInt(400);
    std::vector<double> scores(n);
    for (auto& s : scores) {
      // Quantized scores: ~8 distinct values over up to 400 items forces
      // long tie runs, so id tie-breaking decides most of the list.
      s = static_cast<double>(rng.UniformInt(8)) * 0.125;
    }
    std::vector<bool> masked(n, false);
    // Masked prefix (the shape train-item masking produces for the dense
    // front of a user's history) plus scattered masked items.
    const size_t prefix = rng.UniformInt(n);
    for (size_t i = 0; i < prefix; ++i) masked[i] = true;
    for (size_t i = prefix; i < n; ++i) masked[i] = rng.UniformInt(7) == 0;
    const std::vector<bool> none(n, false);

    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, n, n + 5}) {
      for (bool reference : kModes) {
        SCOPED_TRACE(testing::Message() << "rep " << rep << " n " << n
                                        << " k " << k << " "
                                        << ModeName(reference));
        const std::vector<ItemId> expect = TopKItems(scores, masked, k);
        EXPECT_EQ(SelectWhole(&sel, reference, scores, &masked, k), expect);
        EXPECT_EQ(StreamInBlocks(&sel, reference, scores, &masked, k, &rng),
                  expect);
        // No mask: every pushed entry ranks.
        const std::vector<ItemId> unmasked = TopKItems(scores, none, k);
        EXPECT_EQ(SelectWhole(&sel, reference, scores, nullptr, k), unmasked);
        EXPECT_EQ(StreamInBlocks(&sel, reference, scores, nullptr, k, &rng),
                  unmasked);
      }
    }
  }
}

TEST(TopKSelectorTest, CandidateListsMatchOracle) {
  Rng rng(977);
  TopKSelector sel;
  for (int rep = 0; rep < 100; ++rep) {
    // Pools of 256 to 1,055 ids: the candidate-slice shape, ranked up to
    // the whole pool.
    const size_t n = 256 + rng.UniformInt(800);
    std::vector<ItemId> ids(n);
    std::vector<double> scores(n);
    ItemId next = 0;
    for (size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<ItemId>(rng.UniformInt(3));
      ids[i] = next;
      scores[i] = static_cast<double>(rng.UniformInt(16)) * 0.0625;
    }
    // Shuffled ids: PushIds takes any order, and ties must still resolve
    // by id, not by position.
    if (rep % 2 == 1) {
      for (size_t i = n - 1; i > 0; --i) {
        const size_t j = rng.UniformInt(i + 1);
        std::swap(ids[i], ids[j]);
        std::swap(scores[i], scores[j]);
      }
    }
    for (size_t k : {size_t{1}, size_t{20}, n / 4, n / 2, n, n + 3}) {
      const std::vector<ItemId> expect = TopKFromCandidates(ids, scores, k);
      for (bool reference : kModes) {
        SCOPED_TRACE(testing::Message() << "rep " << rep << " n " << n
                                        << " k " << k << " "
                                        << ModeName(reference));
        EXPECT_EQ(SelectIds(&sel, reference, ids, scores, k), expect);
        EXPECT_EQ(SelectIds(&sel, reference, ids, scores, k, &rng), expect);
      }
    }
  }
}

TEST(TopKSelectorTest, ExtremeFiniteAndInfiniteScores) {
  // ±inf and extreme magnitudes: both modes order any NaN-free doubles.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ItemId> ids = {2, 3, 5, 7, 11, 13, 17};
  std::vector<double> scores = {-inf, 1e300, 0.0,  -0.0,
                                inf,  -1e300, 5e-324};
  TopKSelector sel;
  for (bool reference : kModes) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{7}, size_t{9}}) {
      EXPECT_EQ(SelectIds(&sel, reference, ids, scores, k),
                TopKFromCandidates(ids, scores, k))
          << ModeName(reference) << " k " << k;
    }
    EXPECT_EQ(SelectIds(&sel, reference, ids, scores, 3),
              (std::vector<ItemId>{11, 3, 17}))
        << ModeName(reference);

    // Same through a masked catalogue session.
    std::vector<bool> mask(scores.size(), false);
    mask[1] = true;
    for (size_t k : {size_t{1}, size_t{4}, size_t{10}}) {
      EXPECT_EQ(SelectWhole(&sel, reference, scores, &mask, k),
                TopKItems(scores, mask, k))
          << ModeName(reference) << " k " << k;
    }
  }
}

TEST(TopKSelectorTest, LargePoolsWithExtremeRanges) {
  // Pools of 320 ids whose score range is extreme: ±inf endpoints, and a
  // *finite* range whose width overflows to +inf (-1e308..1e308). Ranked
  // from n/8 up to the whole pool, both modes must match the oracle.
  Rng rng(431);
  const double inf = std::numeric_limits<double>::infinity();
  for (double extreme : {inf, 1e308}) {
    const size_t n = 320;
    std::vector<ItemId> ids(n);
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<ItemId>(2 * i + 1);
      scores[i] = rng.Uniform(-1.0, 1.0);
    }
    scores[17] = extreme;
    scores[251] = -extreme;
    TopKSelector sel;
    for (size_t k : {n / 8, n / 2, n}) {
      for (bool reference : kModes) {
        EXPECT_EQ(SelectIds(&sel, reference, ids, scores, k),
                  TopKFromCandidates(ids, scores, k))
            << "extreme " << extreme << " k " << k << " "
            << ModeName(reference);
      }
    }
  }
}

TEST(TopKSelectorTest, AllScoresEqualTieBreaksById) {
  // All scores equal over a 300-id pool pushed in descending id order:
  // the ranking is pure id order whatever k is.
  std::vector<ItemId> ids(300);
  std::vector<double> scores(300, 0.25);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ItemId>(ids.size() - i);  // descending ids
  }
  std::vector<ItemId> expect(60);
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<ItemId>(i + 1);
  }
  TopKSelector sel;
  for (bool reference : kModes) {
    EXPECT_EQ(SelectIds(&sel, reference, ids, scores, 60), expect)
        << ModeName(reference);
  }
}

TEST(TopKSelectorTest, EverythingMaskedOrKZero) {
  std::vector<double> scores = {0.4, 0.2, 0.9};
  std::vector<bool> all_masked(3, true);
  std::vector<bool> none_masked(3, false);
  TopKSelector sel;
  for (bool reference : kModes) {
    SCOPED_TRACE(ModeName(reference));
    EXPECT_TRUE(SelectWhole(&sel, reference, scores, &all_masked, 2).empty());
    EXPECT_TRUE(SelectWhole(&sel, reference, scores, &none_masked, 0).empty());
    EXPECT_TRUE(SelectIds(&sel, reference, {1, 2, 3}, scores, 0).empty());
  }
}

TEST(TopKSelectorTest, SessionsReset) {
  // A session must not leak entries, its mask or its mode into the next.
  std::vector<bool> mask(4, false);
  mask[0] = true;
  TopKSelector sel;
  const double a[] = {0.9, 0.8, 0.7, 0.6};
  const double b[] = {0.1, 0.5};
  std::vector<ItemId> out;
  for (bool reference : kModes) {
    sel.Begin(3, &mask, reference);
    sel.Push(0, a, 4);
    sel.Finish(&out);
    EXPECT_EQ(out, (std::vector<ItemId>{1, 2, 3})) << ModeName(reference);

    sel.Begin(2);
    sel.Push(0, b, 2);
    sel.Finish(&out);
    EXPECT_EQ(out, (std::vector<ItemId>{1, 0})) << ModeName(reference);
  }
}

}  // namespace
}  // namespace hetefedrec
