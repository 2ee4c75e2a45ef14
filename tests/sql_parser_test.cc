#include "sql/parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace screp::sql {
namespace {

StatementAst ParseOk(const std::string& text) {
  Result<StatementAst> result = Parse(text);
  EXPECT_TRUE(result.ok()) << text << " -> " << result.status().ToString();
  return std::move(result).value();
}

TEST(ParserTest, SimpleSelectStar) {
  StatementAst ast = ParseOk("SELECT * FROM item");
  EXPECT_EQ(ast.kind, StatementKind::kSelect);
  EXPECT_TRUE(ast.select_star);
  EXPECT_EQ(ast.table, "item");
  EXPECT_TRUE(ast.where.empty());
  EXPECT_EQ(ast.param_count, 0);
}

TEST(ParserTest, SelectColumnsWithWhere) {
  StatementAst ast =
      ParseOk("SELECT a, b FROM t WHERE id = ? AND b > 3");
  ASSERT_EQ(ast.select_items.size(), 2u);
  EXPECT_EQ(ast.select_items[0].column, "a");
  ASSERT_EQ(ast.where.conjuncts.size(), 2u);
  EXPECT_EQ(ast.where.conjuncts[0].op, CompareOp::kEq);
  EXPECT_EQ(ast.where.conjuncts[0].value.kind, Expr::Kind::kParam);
  EXPECT_EQ(ast.where.conjuncts[1].op, CompareOp::kGt);
  EXPECT_EQ(ast.param_count, 1);
}

TEST(ParserTest, SelectBetweenOrderLimit) {
  StatementAst ast = ParseOk(
      "SELECT i_id FROM item WHERE i_id BETWEEN ? AND ? ORDER BY i_cost "
      "DESC LIMIT 20");
  ASSERT_EQ(ast.where.conjuncts.size(), 1u);
  EXPECT_EQ(ast.where.conjuncts[0].op, CompareOp::kBetween);
  ASSERT_TRUE(ast.order_by.has_value());
  EXPECT_EQ(ast.order_by->column, "i_cost");
  EXPECT_TRUE(ast.order_by->descending);
  ASSERT_TRUE(ast.limit.has_value());
  EXPECT_EQ(ast.limit->literal.AsInt(), 20);
  EXPECT_EQ(ast.param_count, 2);
}

TEST(ParserTest, OrderByDefaultsAscending) {
  StatementAst ast = ParseOk("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(ast.order_by.has_value());
  EXPECT_FALSE(ast.order_by->descending);
}

TEST(ParserTest, Aggregates) {
  StatementAst ast =
      ParseOk("SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t");
  ASSERT_EQ(ast.select_items.size(), 5u);
  EXPECT_EQ(ast.select_items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(ast.select_items[0].column.empty());
  EXPECT_EQ(ast.select_items[1].agg, AggFunc::kSum);
  EXPECT_EQ(ast.select_items[1].column, "x");
  EXPECT_EQ(ast.select_items[4].agg, AggFunc::kMax);
}

TEST(ParserTest, UpdateWithArithmeticAssignments) {
  StatementAst ast = ParseOk(
      "UPDATE item SET i_stock = i_stock - ?, i_sold = i_sold + 1 WHERE "
      "i_id = ?");
  EXPECT_EQ(ast.kind, StatementKind::kUpdate);
  ASSERT_EQ(ast.assignments.size(), 2u);
  EXPECT_EQ(ast.assignments[0].first, "i_stock");
  EXPECT_EQ(ast.assignments[0].second.kind, Expr::Kind::kBinary);
  EXPECT_EQ(ast.assignments[0].second.op, '-');
  EXPECT_EQ(ast.param_count, 2);
}

TEST(ParserTest, ParamIndexesLeftToRight) {
  StatementAst ast =
      ParseOk("UPDATE t SET a = ?, b = ? WHERE id = ?");
  EXPECT_EQ(ast.assignments[0].second.param_index, 0);
  EXPECT_EQ(ast.assignments[1].second.param_index, 1);
  EXPECT_EQ(ast.where.conjuncts[0].value.param_index, 2);
}

TEST(ParserTest, InsertValues) {
  StatementAst ast =
      ParseOk("INSERT INTO t VALUES (?, 'abc', 2.5, -3, NULL)");
  EXPECT_EQ(ast.kind, StatementKind::kInsert);
  ASSERT_EQ(ast.insert_values.size(), 5u);
  EXPECT_EQ(ast.insert_values[0].kind, Expr::Kind::kParam);
  EXPECT_EQ(ast.insert_values[1].literal.AsString(), "abc");
  EXPECT_EQ(ast.insert_values[3].literal.AsInt(), -3);
  EXPECT_TRUE(ast.insert_values[4].literal.is_null());
}

TEST(ParserTest, DeleteWithRange) {
  StatementAst ast =
      ParseOk("DELETE FROM cart_line WHERE id BETWEEN ? AND ?");
  EXPECT_EQ(ast.kind, StatementKind::kDelete);
  EXPECT_EQ(ast.param_count, 2);
}

TEST(ParserTest, ParenthesizedExpression) {
  StatementAst ast = ParseOk("UPDATE t SET a = (b + 1) * 2 WHERE id = 1");
  EXPECT_EQ(ast.assignments[0].second.kind, Expr::Kind::kBinary);
  EXPECT_EQ(ast.assignments[0].second.op, '*');
}

TEST(ParserTest, ToStringRoundTripsThroughParser) {
  const char* statements[] = {
      "SELECT a, b FROM t WHERE id = ? AND b >= 3",
      "UPDATE t SET a = a + ? WHERE id = ?",
      "INSERT INTO t VALUES (1, 'x')",
      "DELETE FROM t WHERE id BETWEEN 1 AND 9",
      "SELECT COUNT(*) FROM t",
  };
  for (const char* text : statements) {
    StatementAst first = ParseOk(text);
    StatementAst second = ParseOk(first.ToString());
    EXPECT_EQ(first.ToString(), second.ToString()) << text;
  }
}

struct BadCase {
  const char* name;
  const char* sql;
};

// gtest names each case "<name> # GetParam() = <printed param>"; printing
// the SQL keeps those names stable (the default prints the pointers).
void PrintTo(const BadCase& c, std::ostream* os) { *os << '"' << c.sql << '"'; }

class ParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrorTest, RejectsMalformedStatement) {
  EXPECT_FALSE(Parse(GetParam().sql).ok()) << GetParam().sql;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadCase{"empty", ""},
        BadCase{"unknown_verb", "UPSERT t"},
        BadCase{"missing_from", "SELECT a WHERE id = 1"},
        BadCase{"missing_table", "SELECT a FROM WHERE id = 1"},
        BadCase{"trailing_garbage", "SELECT a FROM t extra"},
        BadCase{"bad_comparison", "SELECT a FROM t WHERE id ! 1"},
        BadCase{"update_without_set", "UPDATE t a = 1"},
        BadCase{"insert_without_values", "INSERT INTO t (1, 2)"},
        BadCase{"unclosed_paren", "INSERT INTO t VALUES (1, 2"},
        BadCase{"limit_column", "SELECT a FROM t LIMIT b"},
        BadCase{"between_missing_and", "SELECT a FROM t WHERE x BETWEEN 1 2"},
        BadCase{"lone_operator", "SELECT a FROM t WHERE x = "},
        BadCase{"insert_column_ref", "INSERT INTO t VALUES (a)"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace screp::sql
