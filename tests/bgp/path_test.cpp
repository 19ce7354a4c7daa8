#include "bgp/path.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

namespace quicksand::bgp {
namespace {

TEST(AsPath, EmptyPathBasics) {
  const AsPath path;
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.size(), 0u);
  EXPECT_EQ(path.ToString(), "");
  EXPECT_FALSE(path.Contains(1));
}

TEST(AsPath, FrontOriginAndContains) {
  const AsPath path = {701, 3356, 24940};
  EXPECT_EQ(path.front(), 701u);
  EXPECT_EQ(path.origin(), 24940u);
  EXPECT_TRUE(path.Contains(3356));
  EXPECT_FALSE(path.Contains(1234));
  EXPECT_EQ(path.Length(), 3u);
}

TEST(AsPath, PrependAddsAtFront) {
  const AsPath path = AsPath{3356, 24940}.Prepend(701);
  EXPECT_EQ(path, (AsPath{701, 3356, 24940}));
}

TEST(AsPath, LoopDetectionIgnoresContiguousPrepending) {
  EXPECT_FALSE((AsPath{701, 3356, 24940, 24940, 24940}).HasLoop());
  EXPECT_TRUE((AsPath{701, 3356, 701, 24940}).HasLoop());
  EXPECT_FALSE((AsPath{701}).HasLoop());
  EXPECT_FALSE(AsPath{}.HasLoop());
}

TEST(AsPath, DistinctAsesCollapsesPrepends) {
  const AsPath path = {701, 3356, 3356, 24940, 24940, 24940};
  EXPECT_EQ(path.DistinctAses(), (std::vector<AsNumber>{701, 3356, 24940}));
}

TEST(AsPath, ParseAndToStringRoundTrip) {
  const auto parsed = AsPath::Parse("701 3356 24940");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, (AsPath{701, 3356, 24940}));
  EXPECT_EQ(parsed->ToString(), "701 3356 24940");
}

TEST(AsPath, ParseToleratesExtraSpacesAndEmpty) {
  EXPECT_EQ(AsPath::Parse("  701   3356  ")->hops().size(), 2u);
  EXPECT_TRUE(AsPath::Parse("")->empty());
  EXPECT_TRUE(AsPath::Parse("   ")->empty());
}

TEST(AsPath, ParseRejectsGarbage) {
  EXPECT_FALSE(AsPath::Parse("701 abc").has_value());
  EXPECT_FALSE(AsPath::Parse("701,3356").has_value());
  EXPECT_FALSE(AsPath::Parse("-1").has_value());
  EXPECT_THROW((void)AsPath::MustParse("x"), std::invalid_argument);
}

TEST(AsPath, HashAndEquality) {
  std::unordered_set<AsPath> set;
  set.insert(AsPath{1, 2, 3});
  set.insert(AsPath{1, 2, 3});
  set.insert(AsPath{1, 2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(AsPath, StreamOperator) {
  std::ostringstream os;
  os << AsPath{65001, 65002};
  EXPECT_EQ(os.str(), "65001 65002");
}

}  // namespace
}  // namespace quicksand::bgp
