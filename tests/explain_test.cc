// EXPLAIN output tests.

#include <gtest/gtest.h>

#include "engine/explain.h"
#include "workload/generators.h"

namespace sqlts {
namespace {

TEST(Explain, Example10ReportContainsEverything) {
  auto report = ExplainQueryText(PaperExampleQuery(10), QuoteSchema());
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string& s = *report;
  EXPECT_NE(s.find("pattern (9 elements)"), std::string::npos) << s;
  EXPECT_NE(s.find("ratio atom"), std::string::npos);
  EXPECT_NE(s.find("shift"), std::string::npos);
  EXPECT_NE(s.find("next"), std::string::npos);
  EXPECT_NE(s.find("output:"), std::string::npos);
}

TEST(Explain, ShowsHoistedClusterFilter) {
  auto report = ExplainQueryText(PaperExampleQuery(4), QuoteSchema());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("cluster filter: X.name = 'IBM'"),
            std::string::npos)
      << *report;
}

TEST(Explain, ShowsIntervalViewAndOrGroups) {
  auto report = ExplainQueryText(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE (X.price < 40 OR X.price > 50) AND Y.price > 40 AND "
      "Y.price < 50",
      QuoteSchema());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("OR group"), std::string::npos) << *report;
  EXPECT_NE(report->find("interval view"), std::string::npos);
}

TEST(Explain, MarksResidue) {
  auto report = ExplainQueryText(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price + Y.previous.price > 100",
      QuoteSchema());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("incomplete"), std::string::npos) << *report;
}

TEST(Explain, ErrorsPropagate) {
  EXPECT_FALSE(ExplainQueryText("SELECT nonsense", QuoteSchema()).ok());
}

}  // namespace
}  // namespace sqlts
