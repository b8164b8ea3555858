// End-to-end smoke test: Example 1 against a tiny quote table.

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "workload/generators.h"

namespace sqlts {
namespace {

TEST(Smoke, Example1EndToEnd) {
  // INTC rises 20% then falls 25%: one hit.  IBM stays flat: no hit.
  Table t(QuoteSchema());
  Date d0 = Date::Parse("1999-01-25").value();
  ASSERT_TRUE(AppendInstrument(&t, "INTC", d0, {50, 60, 45, 46}).ok());
  ASSERT_TRUE(AppendInstrument(&t, "IBM", d0, {80, 81, 80, 82}).ok());

  auto result = QueryExecutor::Execute(t, PaperExampleQuery(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.num_rows(), 1);
  EXPECT_EQ(result->output.at(0, 0).string_value(), "INTC");

  ExecOptions naive_options;
  naive_options.algorithm = SearchAlgorithm::kNaive;
  auto naive =
      QueryExecutor::Execute(t, PaperExampleQuery(1), naive_options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(naive->output.num_rows(), 1);
}

}  // namespace
}  // namespace sqlts
