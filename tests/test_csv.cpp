#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "temp_path.hpp"

namespace {

namespace csv = rrp::csv;

TEST(Csv, ParsesSimpleRows) {
  const auto doc = csv::parse("a,b,c\n1,2,3\n4,5,6\n", true);
  ASSERT_EQ(doc.header.size(), 3u);
  EXPECT_EQ(doc.header[0], "a");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][2], "6");
}

TEST(Csv, NoHeaderMode) {
  const auto doc = csv::parse("1,2\n3,4\n", false);
  EXPECT_TRUE(doc.header.empty());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "1");
}

TEST(Csv, HandlesQuotedFieldsWithCommas) {
  const auto doc = csv::parse("\"x,y\",plain\n", false);
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "x,y");
  EXPECT_EQ(doc.rows[0][1], "plain");
}

TEST(Csv, HandlesDoubledQuotes) {
  const auto doc = csv::parse("\"he said \"\"hi\"\"\"\n", false);
  EXPECT_EQ(doc.rows[0][0], "he said \"hi\"");
}

TEST(Csv, StripsCarriageReturns) {
  const auto doc = csv::parse("a,b\r\n1,2\r\n", true);
  EXPECT_EQ(doc.header[1], "b");
  EXPECT_EQ(doc.rows[0][1], "2");
}

TEST(Csv, SkipsEmptyLines) {
  const auto doc = csv::parse("1,2\n\n3,4\n", false);
  EXPECT_EQ(doc.rows.size(), 2u);
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto doc = csv::parse("1,,3\n", false);
  ASSERT_EQ(doc.rows[0].size(), 3u);
  EXPECT_EQ(doc.rows[0][1], "");
}

TEST(Csv, EscapeFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv::escape_field("plain"), "plain");
  EXPECT_EQ(csv::escape_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv::escape_field("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WriteRoundTrips) {
  csv::Document doc;
  doc.header = {"t", "price"};
  doc.rows = {{"0", "0.057"}, {"1", "0.06,3"}};
  std::ostringstream os;
  csv::write(os, doc);
  const auto parsed = csv::parse(os.str(), true);
  ASSERT_EQ(parsed.rows.size(), 2u);
  EXPECT_EQ(parsed.rows[1][1], "0.06,3");
}

TEST(Csv, ReadFileThrowsOnMissingPath) {
  EXPECT_THROW(csv::read_file("/nonexistent/nope.csv", true), rrp::Error);
}

TEST(Csv, ReadFileRoundTrips) {
  const std::string path = rrp::testing::temp_path("test.csv");
  {
    std::ofstream out(path);
    out << "t,v\n0,1.5\n1,2.5\n";
  }
  const auto doc = csv::read_file(path, true);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][1], "2.5");
  std::remove(path.c_str());
}

}  // namespace
