#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rcons::util {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(3);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 1000));
    EXPECT_TRUE(rng.chance(1000, 1000));
  }
}

TEST(HashTest, RangeHashSensitiveToOrderAndLength) {
  const std::int64_t a[] = {1, 2, 3};
  const std::int64_t b[] = {3, 2, 1};
  const std::int64_t c[] = {1, 2};
  EXPECT_NE(hash_range(a, 3), hash_range(b, 3));
  EXPECT_NE(hash_range(a, 3), hash_range(c, 2));
  EXPECT_EQ(hash_range(a, 3), hash_range(a, 3));
}

TEST(HashTest, VecHashUsableInSets) {
  std::unordered_set<std::vector<std::int64_t>, VecHash> set;
  set.insert({1, 2});
  set.insert({1, 2});
  set.insert({2, 1});
  set.insert(std::vector<std::int64_t>{});
  EXPECT_EQ(set.size(), 3u);
}

TEST(HashTest, U128HashSeparatesSymmetricFingerprints) {
  // An unmixed combine of the halves (plain XOR maps {lo, hi}, {hi, lo}, and
  // any lo == hi pair together; the pre-avalanche `lo ^ hi * K` let low-bit
  // structure leak straight into the bucket index). The mixed hash must
  // separate swapped halves and spread structured keys.
  const U128 a{0x1234'5678'9abc'def0ULL, 0x0fed'cba9'8765'4321ULL};
  const U128 swapped{a.hi, a.lo};
  U128Hash hash;
  EXPECT_NE(hash(a), hash(swapped));
  // All-equal-halves keys must spread across buckets instead of all hashing
  // to a constant region.
  std::unordered_set<std::size_t> buckets;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    buckets.insert(hash(U128{v, v}) & 1023);
  }
  EXPECT_GT(buckets.size(), 600u);
}

TEST(HashTest, U128UsableInSets) {
  std::unordered_set<U128, U128Hash> set;
  set.insert(U128{1, 2});
  set.insert(U128{1, 2});
  set.insert(U128{2, 1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(JsonTest, WritesNestedStructureWithCommas) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.key_value("name", "bench");
    json.key("rows");
    json.begin_array();
    json.begin_object();
    json.key_value("n", 3);
    json.key_value("clean", true);
    json.end_object();
    json.begin_object();
    json.key_value("n", 4);
    json.key_value("clean", false);
    json.end_object();
    json.end_array();
    json.end_object();
  }
  EXPECT_EQ(out.str(),
            "{\"name\":\"bench\",\"rows\":"
            "[{\"n\":3,\"clean\":true},{\"n\":4,\"clean\":false}]}");
}

TEST(JsonTest, EscapesStrings) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.key_value("s", "a\"b\\c\nd");
    json.end_object();
  }
  EXPECT_EQ(out.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "22"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_NE(text.find("| longer-name "), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|---"), std::string::npos);
}

}  // namespace
}  // namespace rcons::util
