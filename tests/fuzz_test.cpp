//===- tests/fuzz_test.cpp - Randomized robustness tests ----------------------===//
///
/// \file
/// Failure injection: the parser and the deserializer face arbitrary
/// bytes (random garbage, bit-flipped valid inputs, truncations) and
/// must reject them gracefully -- library code never throws, crashes or
/// reads out of bounds (run under ASan in sanitizer builds). The
/// unique-binder decoder, which reads wire frames and corpora, must
/// accept exactly what the plain decoder accepts, with the same error.
///
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"
#include "ast/Printer.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace hma;

namespace {

std::string randomBytes(Rng &R, size_t Len) {
  std::string S;
  S.reserve(Len);
  for (size_t I = 0; I != Len; ++I)
    S.push_back(static_cast<char>(R.below(256)));
  return S;
}

std::string randomTokenSoup(Rng &R, size_t Tokens) {
  static const char *Pool[] = {"(",  ")",   "lam", "let", "x",  "y",
                               "42", "-7",  "(x",  "))",  "((", "f",
                               " ",  "\n",  ";c\n", "-"};
  std::string S;
  for (size_t I = 0; I != Tokens; ++I) {
    S += Pool[R.below(std::size(Pool))];
    S.push_back(' ');
  }
  return S;
}

/// deserializeUniqueExpr accepts \p Bytes exactly when deserializeExpr
/// does, with the same error text, and otherwise builds what
/// uniquifyBinders makes of the plain decode. Returns whether it decoded.
bool expectDecoderParity(std::string_view Bytes) {
  ExprContext Plain, Unique;
  DeserializeResult P = deserializeExpr(Plain, Bytes);
  DeserializeResult U = deserializeUniqueExpr(Unique, Bytes);
  EXPECT_EQ(P.ok(), U.ok());
  EXPECT_EQ(P.Error, U.Error);
  if (P.ok() && U.ok()) {
    EXPECT_EQ(serializeExpr(Plain, uniquifyBinders(Plain, P.E)),
              serializeExpr(Unique, U.E));
  }
  return U.ok();
}

} // namespace

TEST(Fuzz, ParserSurvivesRandomBytes) {
  Rng R(0xF00D);
  for (int Rep = 0; Rep != 500; ++Rep) {
    ExprContext Ctx;
    ParseResult Result = parseExpr(Ctx, randomBytes(R, 1 + R.below(200)));
    if (Result.ok())
      EXPECT_GE(Result.E->treeSize(), 1u);
    else
      EXPECT_FALSE(Result.Error.empty());
  }
}

TEST(Fuzz, ParserSurvivesTokenSoup) {
  Rng R(0xBEEF);
  for (int Rep = 0; Rep != 500; ++Rep) {
    ExprContext Ctx;
    ParseResult Result = parseExpr(Ctx, randomTokenSoup(R, 1 + R.below(60)));
    if (Result.ok()) {
      // Whatever parsed must round-trip through the printer.
      std::string Printed = printExpr(Ctx, Result.E);
      ParseResult Again = parseExpr(Ctx, Printed);
      ASSERT_TRUE(Again.ok()) << Printed;
      EXPECT_EQ(Printed, printExpr(Ctx, Again.E));
    }
  }
}

TEST(Fuzz, PrinterParserRoundTripOnRandomExpressions) {
  ExprContext Ctx;
  Rng R(0xCAFE);
  for (int Rep = 0; Rep != 60; ++Rep) {
    const Expr *E = (Rep % 3 == 0)   ? genBalanced(Ctx, R, 1 + Rep * 3)
                    : (Rep % 3 == 1) ? genUnbalanced(Ctx, R, 1 + Rep * 3)
                                     : genArithmetic(Ctx, R, 1 + Rep * 3);
    for (bool Multiline : {false, true}) {
      PrintOptions Opts;
      Opts.Multiline = Multiline;
      std::string Printed = printExpr(Ctx, E, Opts);
      ParseResult Back = parseExpr(Ctx, Printed);
      ASSERT_TRUE(Back.ok())
          << "failed to reparse: " << Back.Error << "\n" << Printed;
      EXPECT_EQ(printExpr(Ctx, Back.E), printExpr(Ctx, E));
    }
  }
}

TEST(Fuzz, DeserializerSurvivesRandomBytes) {
  Rng R(0xD15EA5E);
  for (int Rep = 0; Rep != 500; ++Rep) {
    ExprContext Ctx;
    const std::string Bytes = randomBytes(R, R.below(150));
    DeserializeResult Result = deserializeExpr(Ctx, Bytes);
    if (!Result.ok()) {
      EXPECT_FALSE(Result.Error.empty());
    }
    expectDecoderParity(Bytes);
    // Past the magic, so the name table and body parsers see garbage too.
    expectDecoderParity("HMA1" + Bytes);
  }
}

TEST(Fuzz, DeserializerSurvivesMutatedValidInput) {
  ExprContext Source;
  Rng R(0x5EED);
  const Expr *E = genArithmetic(Source, R, 120);
  const std::string Good = serializeExpr(Source, E);

  int StillValid = 0;
  for (int Rep = 0; Rep != 400; ++Rep) {
    std::string Bad = Good;
    switch (R.below(3)) {
    case 0: // flip a random bit
      Bad[R.below(Bad.size())] ^= char(1 << R.below(8));
      break;
    case 1: // truncate
      Bad.resize(R.below(Bad.size()));
      break;
    default: // duplicate a tail chunk
      Bad += Bad.substr(Bad.size() / 2);
      break;
    }
    ExprContext Ctx;
    DeserializeResult Result = deserializeExpr(Ctx, Bad);
    if (Result.ok()) {
      ++StillValid; // some mutations are benign (e.g. a constant bit)
      EXPECT_GE(Result.E->treeSize(), 1u);
    }
    expectDecoderParity(Bad);
  }
  // Most mutations must be caught.
  EXPECT_LT(StillValid, 200);
}

TEST(Fuzz, UniqueDecoderParityOnEveryFlipAndTruncation) {
  // Exhaustive over one small let-heavy blob whose binders repeat:
  // every single-bit flip and every prefix. Flips that land in the name
  // table or on a binder id reshape scopes, so accepted mutants exercise
  // renaming as well as rejection.
  ExprContext Source;
  const std::string Good = serializeExpr(
      Source, parseT(Source, "(let (x (lam (x) (add x y))) "
                             "(let (y (x 3)) (lam (x) (x (let (x y) x)))))"));
  int Accepted = 0;
  for (size_t Bit = 0; Bit != Good.size() * 8; ++Bit) {
    std::string Bad = Good;
    Bad[Bit / 8] ^= char(1 << (Bit % 8));
    Accepted += expectDecoderParity(Bad);
  }
  for (size_t Len = 0; Len <= Good.size(); ++Len)
    Accepted += expectDecoderParity(Good.substr(0, Len));
  EXPECT_GT(Accepted, 1); // the whole blob plus some benign flips
}

TEST(Fuzz, SerializeRoundTripUnderReinterning) {
  // Chained: generate -> serialize -> load into context B -> serialize
  // from B -> load into C: all renderings identical.
  Rng R(0xABCD);
  for (int Rep = 0; Rep != 20; ++Rep) {
    ExprContext A;
    const Expr *E = genBalanced(A, R, 64);
    std::string B1 = serializeExpr(A, E);
    ExprContext B;
    B.name("skew1");
    DeserializeResult RB = deserializeExpr(B, B1);
    ASSERT_TRUE(RB.ok());
    std::string B2 = serializeExpr(B, RB.E);
    ExprContext C;
    C.name("skew2");
    C.name("skew3");
    DeserializeResult RC = deserializeExpr(C, B2);
    ASSERT_TRUE(RC.ok());
    EXPECT_EQ(printExpr(A, E), printExpr(C, RC.E));
  }
}
