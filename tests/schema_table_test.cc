#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "data/table.h"

namespace power {
namespace {

Schema TwoAttrSchema() {
  return Schema({{"name", SimilarityFunction::kEditSimilarity},
                 {"city", SimilarityFunction::kJaccard}});
}

TEST(SchemaTest, BasicAccessors) {
  Schema s = TwoAttrSchema();
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.attribute(0).name, "name");
  EXPECT_EQ(s.attribute(1).sim, SimilarityFunction::kJaccard);
}

TEST(SchemaTest, FindAttribute) {
  Schema s = TwoAttrSchema();
  EXPECT_EQ(s.FindAttribute("city"), 1);
  EXPECT_EQ(s.FindAttribute("name"), 0);
  EXPECT_EQ(s.FindAttribute("nope"), -1);
}

TEST(SchemaTest, SetAllSimilarityFunctions) {
  Schema s = TwoAttrSchema();
  s.SetAllSimilarityFunctions(SimilarityFunction::kBigramJaccard);
  EXPECT_EQ(s.attribute(0).sim, SimilarityFunction::kBigramJaccard);
  EXPECT_EQ(s.attribute(1).sim, SimilarityFunction::kBigramJaccard);
}

TEST(SchemaTest, Prefix) {
  Schema s = TwoAttrSchema();
  Schema p = s.Prefix(1);
  EXPECT_EQ(p.num_attributes(), 1u);
  EXPECT_EQ(p.attribute(0).name, "name");
}

TEST(SchemaTest, SimilarityFunctionNames) {
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kJaccard),
               "jaccard");
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kEditSimilarity),
               "edit");
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kBigramJaccard),
               "bigram");
}

TEST(TableTest, AddAssignsSequentialIds) {
  Table t(TwoAttrSchema());
  t.Add({-1, 5, {"a", "x"}});
  t.Add({-1, 5, {"b", "y"}});
  EXPECT_EQ(t.num_records(), 2u);
  EXPECT_EQ(t.record(0).id, 0);
  EXPECT_EQ(t.record(1).id, 1);
  EXPECT_EQ(t.Value(1, 0), "b");
}

TEST(TableTest, CountEntitiesAndMatchingPairs) {
  Table t(TwoAttrSchema());
  t.Add({-1, 0, {"a", "x"}});
  t.Add({-1, 0, {"b", "y"}});
  t.Add({-1, 0, {"c", "z"}});
  t.Add({-1, 1, {"d", "w"}});
  EXPECT_EQ(t.CountEntities(), 2u);
  EXPECT_EQ(t.CountMatchingPairs(), 3u);  // C(3,2) within entity 0
}

TEST(TableTest, PaperExampleGroundTruth) {
  Table t = PaperExampleTable();
  EXPECT_EQ(t.num_records(), 11u);
  EXPECT_EQ(t.schema().num_attributes(), 4u);
  EXPECT_EQ(t.CountEntities(), 6u);
  // {r1,r2,r3} -> 3 pairs, {r4..r7} -> 6 pairs.
  EXPECT_EQ(t.CountMatchingPairs(), 9u);
}

TEST(TableTest, WithAttributePrefix) {
  Table t = PaperExampleTable();
  Table p = t.WithAttributePrefix(2);
  EXPECT_EQ(p.schema().num_attributes(), 2u);
  EXPECT_EQ(p.num_records(), 11u);
  EXPECT_EQ(p.Value(0, 0), t.Value(0, 0));
  EXPECT_EQ(p.record(3).entity_id, t.record(3).entity_id);
}

TEST(TableTest, CsvRoundTrip) {
  Table t = PaperExampleTable();
  Table back;
  ASSERT_TRUE(Table::FromCsv(t.ToCsv(), &back));
  ASSERT_EQ(back.num_records(), t.num_records());
  ASSERT_EQ(back.schema().num_attributes(), t.schema().num_attributes());
  for (size_t i = 0; i < t.num_records(); ++i) {
    EXPECT_EQ(back.record(i).entity_id, t.record(i).entity_id);
    for (size_t k = 0; k < t.schema().num_attributes(); ++k) {
      EXPECT_EQ(back.Value(i, k), t.Value(i, k));
    }
  }
}

TEST(TableTest, FromCsvRejectsMalformed) {
  Table t;
  EXPECT_FALSE(Table::FromCsv("", &t));
  EXPECT_FALSE(Table::FromCsv("foo,bar\n1,2\n", &t));
  // Arity mismatch on a data row.
  EXPECT_FALSE(Table::FromCsv("id,entity_id,name\n0,0\n", &t));
}

TEST(TableTest, FromCsvRejectsEntityIdOutsideIntRange) {
  // 4294967296 = 2^32 would wrap to entity 0 and merge the two records'
  // entities; the ends of int's range still parse.
  Table t;
  EXPECT_FALSE(
      Table::FromCsv("id,entity_id,name\n0,0,a\n1,4294967296,b\n", &t));
  EXPECT_FALSE(Table::FromCsv("id,entity_id,name\n0,2147483648,a\n", &t));
  EXPECT_FALSE(Table::FromCsv("id,entity_id,name\n0,-2147483649,a\n", &t));
  ASSERT_TRUE(Table::FromCsv(
      "id,entity_id,name\n0,2147483647,a\n1,-2147483648,b\n2,-1,c\n", &t));
  EXPECT_EQ(t.record(0).entity_id, 2147483647);
  EXPECT_EQ(t.record(1).entity_id, -2147483647 - 1);
  EXPECT_EQ(t.record(2).entity_id, -1);
}

}  // namespace
}  // namespace power
