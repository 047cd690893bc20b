//===- tests/serialize_test.cpp - Serialization tests ------------------------===//
///
/// \file
/// Round-trips, cross-context hash stability, defensive decoding of
/// corrupt input, and the differential contract of the unique-binder
/// decoder: `deserializeUniqueExpr` builds exactly the tree
/// `uniquifyBinders(deserializeExpr(...))` builds.
///
//===----------------------------------------------------------------------===//

#include "ast/Serialize.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "gen/MLModels.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace hma;

namespace {

void expectRoundTrip(ExprContext &Ctx, const Expr *E) {
  std::string Bytes = serializeExpr(Ctx, E);
  ExprContext Fresh;
  Fresh.name("skew_the_intern_order");
  DeserializeResult R = deserializeExpr(Fresh, Bytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  // Spelling-exact round trip: identical rendering, identical hash.
  EXPECT_EQ(printExpr(Ctx, E), printExpr(Fresh, R.E));
  EXPECT_EQ(E->treeSize(), R.E->treeSize());
  EXPECT_TRUE(alphaEquivalent(Ctx, E, Fresh, R.E));
}

} // namespace

TEST(Serialize, HandPickedRoundTrips) {
  ExprContext Ctx;
  const char *Sources[] = {
      "x",
      "0",
      "-9223372036854775808", // INT64_MIN survives zigzag
      "9223372036854775807",
      "(lam (x) (add x 7))",
      "(let (w (add v 7)) (mul (add a w) w))",
      "(f (lam (p q) (p (q zebra))) -42)",
  };
  for (const char *Src : Sources)
    expectRoundTrip(Ctx, parseT(Ctx, Src));
}

TEST(Serialize, RandomRoundTrips) {
  ExprContext Ctx;
  Rng R(64128);
  for (uint32_t Size : {1u, 2u, 17u, 100u, 1000u}) {
    expectRoundTrip(Ctx, genBalanced(Ctx, R, Size));
    expectRoundTrip(Ctx, genUnbalanced(Ctx, R, Size));
    expectRoundTrip(Ctx, genArithmetic(Ctx, R, Size));
  }
}

TEST(Serialize, DeepSpineIterative) {
  ExprContext Ctx;
  Rng R(3);
  expectRoundTrip(Ctx, genUnbalanced(Ctx, R, 200001));
}

TEST(Serialize, HashStableAcrossSerialization) {
  // The whole point: persist, reload elsewhere, same fingerprint.
  ExprContext A;
  const Expr *E = buildGmm(A);
  std::string Bytes = serializeExpr(A, E);
  ExprContext B;
  DeserializeResult R = deserializeExpr(B, Bytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  Hash128 HA = AlphaHasher<Hash128>(A).hashRoot(E);
  Hash128 HB = AlphaHasher<Hash128>(B).hashRoot(R.E);
  EXPECT_EQ(HA, HB);
}

TEST(Serialize, FormatIsCompact) {
  ExprContext Ctx;
  const Expr *E = buildBert(Ctx, 2);
  std::string Bytes = serializeExpr(Ctx, E);
  // Sanity envelope: a handful of bytes per node (tag + small varints),
  // plus the name table.
  EXPECT_LT(Bytes.size(), size_t(E->treeSize()) * 8);
  EXPECT_GT(Bytes.size(), size_t(E->treeSize()));
}

TEST(Serialize, RejectsCorruptInput) {
  ExprContext Ctx;
  const Expr *E = parseT(Ctx, "(lam (x) (add x 7))");
  std::string Good = serializeExpr(Ctx, E);

  struct Case {
    const char *What;
    std::string Bytes;
  };
  std::vector<Case> Cases;
  Cases.push_back({"empty", ""});
  Cases.push_back({"bad magic", "XXXX"});
  Cases.push_back({"truncated header", Good.substr(0, 3)});
  Cases.push_back({"truncated name table", Good.substr(0, 6)});
  Cases.push_back({"truncated body", Good.substr(0, Good.size() - 1)});
  Cases.push_back({"trailing bytes", Good + "!"});
  std::string BadTag = Good;
  BadTag[BadTag.size() - 4] = 0x7F; // clobber a node tag
  Cases.push_back({"invalid tag", BadTag});

  for (const Case &C : Cases) {
    ExprContext Fresh;
    DeserializeResult R = deserializeExpr(Fresh, C.Bytes);
    EXPECT_FALSE(R.ok()) << C.What << " should be rejected";
    EXPECT_FALSE(R.Error.empty()) << C.What;
  }
}

TEST(Serialize, BadNameReferenceRejected) {
  // Hand-build: magic, 0 names, then a Var referencing name 5.
  std::string Bytes = "HMA1";
  Bytes.push_back(0); // zero names
  Bytes.push_back(0); // tag Var
  Bytes.push_back(5); // name id 5 (out of range)
  ExprContext Ctx;
  DeserializeResult R = deserializeExpr(Ctx, Bytes);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("name"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// deserializeUniqueExpr == uniquifyBinders(deserializeExpr(...))
//===----------------------------------------------------------------------===//

namespace {

uint64_t readVarint(std::string_view B, size_t &Pos) {
  uint64_t V = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    uint8_t Byte = static_cast<uint8_t>(B[Pos++]);
    V |= uint64_t(Byte & 0x7F) << Shift;
    if (!(Byte & 0x80))
      return V;
  }
}

void writeVarint(std::string &Out, uint64_t V) {
  for (; V >= 0x80; V >>= 7)
    Out.push_back(static_cast<char>(V | 0x80));
  Out.push_back(static_cast<char>(V));
}

/// Replace every spelling in a valid blob's name table with one drawn
/// from a small pool, keeping the body. Binders then repeat, shadow each
/// other and collide with free names, a table may spell one name twice,
/// and `x$0`-style spellings meet the ones freshName would pick.
std::string respell(std::string_view Blob, Rng &R) {
  static const char *Pool[] = {"x", "y", "z", "f", "add", "x$0", "x$1", "y$0"};
  size_t Pos = 4;
  uint64_t Count = readVarint(Blob, Pos);
  std::string Out(Blob.substr(0, 4));
  writeVarint(Out, Count);
  for (uint64_t I = 0; I != Count; ++I) {
    Pos += readVarint(Blob, Pos);
    std::string_view S = Pool[R.below(std::size(Pool))];
    writeVarint(Out, S.size());
    Out.append(S);
  }
  Out.append(Blob.substr(Pos));
  return Out;
}

/// Both decoders over one blob stream, each into its own long-lived
/// context, so name tables and freshName counters evolve in lockstep
/// across blobs as they do in a batch chunk.
struct DecoderPair {
  ExprContext Old, New;
  size_t Checked = 0, Renamed = 0;
  // Long-lived hashers per width, as a batch worker keeps them.
  AlphaHasher<Hash16> Old16{Old}, New16{New};
  AlphaHasher<Hash32> Old32{Old}, New32{New};
  AlphaHasher<Hash64> Old64{Old}, New64{New};
  AlphaHasher<Hash128> Old128{Old}, New128{New};

  template <typename Hash>
  void expectSameHash(AlphaHasher<Hash> &HOld, AlphaHasher<Hash> &HNew,
                      const Expr *A, const Expr *B) {
    EXPECT_EQ(HOld.hashRoot(A), HNew.hashRoot(B));
  }

  void check(std::string_view Blob) {
    DeserializeResult D = deserializeExpr(Old, Blob);
    ASSERT_TRUE(D.ok()) << D.Error;
    const Expr *Want = uniquifyBinders(Old, D.E);
    DeserializeResult U = deserializeUniqueExpr(New, Blob);
    ASSERT_TRUE(U.ok()) << U.Error;
    ASSERT_EQ(serializeExpr(Old, Want), serializeExpr(New, U.E))
        << printExpr(Old, D.E);
    EXPECT_TRUE(hasDistinctBinders(New, U.E));
    EXPECT_EQ(Old.names().size(), New.names().size());
    expectSameHash(Old16, New16, Want, U.E);
    expectSameHash(Old32, New32, Want, U.E);
    expectSameHash(Old64, New64, Want, U.E);
    expectSameHash(Old128, New128, Want, U.E);
    ++Checked;
    Renamed += Want != D.E;
  }
};

/// One generated tree as three blobs: as generated (distinct binders),
/// respelled with a raw table, and respelled then re-serialized (the
/// canonical table serializeExpr writes).
void checkFamilyMember(DecoderPair &P, Rng &R, ExprContext &Src,
                       const Expr *E) {
  std::string Blob = serializeExpr(Src, E);
  P.check(Blob);
  std::string Raw = respell(Blob, R);
  P.check(Raw);
  ExprContext Side;
  P.check(serializeExpr(Side, deserializeExpr(Side, Raw).E));
}

} // namespace

TEST(UniqueDecode, MatchesUniquifyAcrossGeneratorFamilies) {
  Rng R(0x0DEC0DE);
  DecoderPair P; // one shared pair: freshName counters keep advancing
  ExprContext Src;
  for (int Rep = 0; Rep != 40; ++Rep) {
    for (uint32_t Size : {1u, 3u, 16u, 41u, 80u, 200u}) {
      checkFamilyMember(P, R, Src, genBalanced(Src, R, Size));
      checkFamilyMember(P, R, Src, genUnbalanced(Src, R, Size));
      checkFamilyMember(P, R, Src, genArithmetic(Src, R, Size)); // let-heavy
      checkFamilyMember(P, R, Src,
                        alphaRename(Src, R, genBalanced(Src, R, Size)));
      if (Size >= 8) {
        auto [A, B] = genAdversarialPair(Src, R, Size);
        checkFamilyMember(P, R, Src, A);
        checkFamilyMember(P, R, Src, B);
      }
    }
  }
  // The sweep must exercise the rename path, not just the no-op one.
  EXPECT_GT(P.Renamed, P.Checked / 4);
  // Same fresh-name counter on both sides after thousands of blobs.
  EXPECT_EQ(P.Old.names().spelling(P.Old.names().freshName("x")),
            P.New.names().spelling(P.New.names().freshName("x")));
}

TEST(UniqueDecode, HandPickedScopes) {
  const char *Sources[] = {
      "(lam (x) (lam (x) x))",                     // shadowing
      "(lam (x) (lam (y) (lam (x) (x y))))",       // shadowing across
      "(x (lam (x) x))",                           // binder spelled free
      "(lam (x) (x x$0))",                         // free x$0 blocks it
      "(let (x x) x)",                             // bound sees outer x
      "(let (x (add x 1)) (let (x (mul x x)) x))", // let chain
      "(lam (x) (let (x (lam (x) x)) (x x)))",     // let under lam
      "(let (y (let (y 1) y)) (let (y y) y))",     // let in bound
      "(f (lam (x) x) (lam (x) x) (let (x 2) x))", // sibling reuse
      "(lam (x$0) (lam (x) (lam (x) (x x$0))))",   // x$0 as a binder
  };
  DecoderPair P;
  for (const char *Src : Sources) {
    ExprContext Ctx;
    P.check(serializeExpr(Ctx, parseT(Ctx, Src)));
  }
  EXPECT_EQ(P.Checked, std::size(Sources));
  EXPECT_EQ(P.Renamed, std::size(Sources) - 1); // all but "(lam (x) (x x$0))"
}

TEST(UniqueDecode, ChunkedContextsMatch) {
  // The batch shape: a fresh context per chunk of 16 blobs, each chunk
  // decoded by both paths.
  Rng R(1616);
  ExprContext Src;
  std::vector<std::string> Blobs;
  for (int I = 0; I != 400; ++I)
    Blobs.push_back(respell(
        serializeExpr(Src, genArithmetic(Src, R, 16 + R.below(64))), R));
  for (size_t Begin = 0; Begin < Blobs.size(); Begin += 16) {
    DecoderPair P;
    for (size_t I = Begin; I != std::min(Begin + 16, Blobs.size()); ++I)
      P.check(Blobs[I]);
  }
}

TEST(UniqueDecode, SameErrorsAsPlainDecoder) {
  ExprContext Ctx;
  std::string Good = serializeExpr(Ctx, parseT(Ctx, "(lam (x) (add x 7))"));
  std::string BadTag = Good;
  BadTag[BadTag.size() - 4] = 0x7F;
  for (const std::string &Bad :
       {std::string(), std::string("XXXX"), Good.substr(0, 3),
        Good.substr(0, 6), Good.substr(0, Good.size() - 1), Good + "!",
        BadTag}) {
    ExprContext A, B;
    DeserializeResult Plain = deserializeExpr(A, Bad);
    DeserializeResult Unique = deserializeUniqueExpr(B, Bad);
    EXPECT_FALSE(Unique.ok());
    EXPECT_EQ(Plain.Error, Unique.Error);
  }
}
