// Constant folding — parameterized over operator/operand/result triples,
// plus identity simplifications and foldable math calls.
#include "ast/const_fold.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "ast/printer.hpp"

namespace hipacc::ast {
namespace {

// gtest prints (and CTest names) each case by the raw bytes of FoldCase, so
// the padding is spelled out as zeroed members: left implicit, it holds
// whatever the stack held and the test names change from run to run.
struct FoldCase {
  FoldCase(BinaryOp op, double lhs, double rhs, bool ints, double expected)
      : op(op), lhs(lhs), rhs(rhs), ints(ints), expected(expected) {}

  BinaryOp op;
  std::int32_t pad_after_op = 0;
  double lhs;
  double rhs;
  bool ints;
  std::array<std::uint8_t, 7> pad_after_ints = {};
  double expected;
};
static_assert(sizeof(FoldCase) == 40, "FoldCase must have no implicit padding");

class BinaryFoldTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(BinaryFoldTest, FoldsToLiteral) {
  const FoldCase c = GetParam();
  const ExprPtr lhs = c.ints ? IntLit(static_cast<long long>(c.lhs))
                             : FloatLit(c.lhs);
  const ExprPtr rhs = c.ints ? IntLit(static_cast<long long>(c.rhs))
                             : FloatLit(c.rhs);
  const ExprPtr folded = FoldConstants(Binary(c.op, lhs, rhs));
  double value = 0.0;
  ASSERT_TRUE(EvaluateConstant(folded, &value)) << PrintExpr(folded);
  EXPECT_DOUBLE_EQ(value, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryFoldTest,
    ::testing::Values(FoldCase{BinaryOp::kAdd, 2, 3, true, 5},
                      FoldCase{BinaryOp::kSub, 2, 3, true, -1},
                      FoldCase{BinaryOp::kMul, -4, 3, true, -12},
                      FoldCase{BinaryOp::kDiv, 7, 2, true, 3},    // int division
                      FoldCase{BinaryOp::kDiv, 7, 2, false, 3.5},
                      FoldCase{BinaryOp::kMod, 7, 3, true, 1},
                      FoldCase{BinaryOp::kAdd, 0.5, 0.25, false, 0.75},
                      FoldCase{BinaryOp::kLt, 1, 2, true, 1},
                      FoldCase{BinaryOp::kGe, 1, 2, true, 0},
                      FoldCase{BinaryOp::kEq, 3, 3, true, 1},
                      FoldCase{BinaryOp::kNe, 3, 3, true, 0},
                      FoldCase{BinaryOp::kAnd, 1, 0, true, 0},
                      FoldCase{BinaryOp::kOr, 1, 0, true, 1}));

TEST(ConstFoldTest, UnaryNegAndNot) {
  double v = 0.0;
  EXPECT_TRUE(EvaluateConstant(Unary(UnaryOp::kNeg, IntLit(5)), &v));
  EXPECT_EQ(v, -5.0);
  EXPECT_TRUE(EvaluateConstant(Unary(UnaryOp::kNot, BoolLit(false)), &v));
  EXPECT_EQ(v, 1.0);
}

TEST(ConstFoldTest, IdentitiesPreserveNonConstantOperand) {
  const ExprPtr x = VarRef("x", ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kAdd, x, FloatLit(0.0))), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kMul, x, FloatLit(1.0))), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kMul, FloatLit(1.0), x)), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kSub, x, FloatLit(0.0))), x);
  // x * 0 must NOT fold for floats (x could be NaN/inf).
  const ExprPtr folded = FoldConstants(Binary(BinaryOp::kMul, x, FloatLit(0.0)));
  EXPECT_EQ(folded->kind, ExprKind::kBinary);
  // ... but folds for ints.
  const ExprPtr xi = VarRef("i", ScalarType::kInt);
  double v = -1.0;
  EXPECT_TRUE(EvaluateConstant(Binary(BinaryOp::kMul, xi, IntLit(0)), &v));
  EXPECT_EQ(v, 0.0);
}

TEST(ConstFoldTest, DivisionByZeroLeftUnfolded) {
  const ExprPtr div = Binary(BinaryOp::kDiv, IntLit(1), IntLit(0));
  EXPECT_EQ(FoldConstants(div)->kind, ExprKind::kBinary);
}

TEST(ConstFoldTest, FoldsMathCallsOnLiterals) {
  double v = 0.0;
  ASSERT_TRUE(EvaluateConstant(Call("exp", {FloatLit(0.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 1.0f);
  ASSERT_TRUE(EvaluateConstant(Call("sqrt", {FloatLit(4.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 2.0f);
  ASSERT_TRUE(EvaluateConstant(
      Call("fmax", {FloatLit(1.0), FloatLit(2.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 2.0f);
  // CUDA-suffixed spellings fold too (folding runs before function mapping).
  ASSERT_TRUE(EvaluateConstant(Call("expf", {FloatLit(0.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 1.0f);
}

TEST(ConstFoldTest, CallWithVariableArgStaysUnfolded) {
  const ExprPtr call =
      Call("exp", {VarRef("x", ScalarType::kFloat)}, ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(call), call);
}

TEST(ConstFoldTest, ConditionalOnLiteralSelectsBranch) {
  const ExprPtr t = VarRef("t", ScalarType::kFloat);
  const ExprPtr f = VarRef("f", ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(Conditional(BoolLit(true), t, f)), t);
  EXPECT_EQ(FoldConstants(Conditional(BoolLit(false), t, f)), f);
}

TEST(ConstFoldTest, NestedExpressionFoldsBottomUp) {
  // (2 * sigma) with sigma = 3 folded in: -2*3 .. taken from the bilateral
  // loop bounds shape: -(2*3) -> -6.
  const ExprPtr e = Unary(UnaryOp::kNeg, Binary(BinaryOp::kMul, IntLit(2), IntLit(3)));
  double v = 0.0;
  ASSERT_TRUE(EvaluateConstant(e, &v));
  EXPECT_EQ(v, -6.0);
}

TEST(ConstFoldTest, FoldsInsideStatements) {
  const StmtPtr stmt = Decl(ScalarType::kFloat, "c",
                            Binary(BinaryOp::kMul, FloatLit(2.0), FloatLit(4.0)));
  const StmtPtr folded = FoldConstants(stmt);
  ASSERT_EQ(folded->kind, StmtKind::kDecl);
  EXPECT_EQ(folded->value->kind, ExprKind::kFloatLit);
  EXPECT_DOUBLE_EQ(folded->value->float_value, 8.0);
}

TEST(ConstFoldTest, SharesUnchangedSubtrees) {
  const ExprPtr x = VarRef("x", ScalarType::kFloat);
  const ExprPtr sum = Binary(BinaryOp::kAdd, x, VarRef("y", ScalarType::kFloat));
  EXPECT_EQ(FoldConstants(sum), sum);  // nothing to fold: same node returned
}

}  // namespace
}  // namespace hipacc::ast
