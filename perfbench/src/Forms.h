//===- perfbench/src/Forms.h - Seeded generator and de Bruijn oracle --------===//
///
/// \file
/// The benchmark's own inputs and its own notion of "the same class".
///
/// Generator: every expression is a pure function of a 64-bit seed and a
/// \ref Spelling. The seed fixes the shape, the binder *slots* and which
/// slot each variable refers to; the spelling only decides how binder
/// slots are written. Two spellings of one seed are alpha-equivalent by
/// construction: a spelling is a bijection from slots to binder names,
/// and binder names never collide with free-variable names.
///
/// Oracle: a de Bruijn canonical form written as a byte string. Bound
/// variables become the number of binders between occurrence and
/// binder; free variables keep their spelling. It is computed straight
/// from the generated trees, or straight from `HMA1` blob bytes with a
/// decoder of its own, and uses neither `ast/DeBruijn` nor
/// `alphaEquivalent`, so a bug shared with the program's verify path
/// cannot hide.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FORMS_H
#define PERFBENCH_FORMS_H

#include "Common.h"

#include "ast/Expr.h"

#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// How binder slots are spelled: slot k is written Prefix + Perm[k].
struct Spelling {
  std::string Prefix = "x";
  std::vector<uint32_t> Perm; ///< Empty: identity.

  std::string name(uint32_t Slot) const {
    return Prefix + std::to_string(Perm.empty() ? Slot : Perm[Slot]);
  }
  /// A fresh random bijection over \p Slots slots.
  static Spelling random(const std::string &Prefix, uint32_t Slots, Rng &R);
};

/// The three `subexpr-hash` trees (see README.md for their make-up).
/// The deep ones are built iteratively, so their depth is not limited
/// by the C++ stack.
const hma::Expr *genBalanced(hma::ExprContext &Ctx, uint64_t Seed,
                             uint32_t Size, const Spelling &Sp);
const hma::Expr *genDeepBinders(hma::ExprContext &Ctx, uint64_t Seed,
                                uint32_t Size, const Spelling &Sp);
const hma::Expr *genLetProgram(hma::ExprContext &Ctx, uint64_t Seed,
                               uint32_t Size, const Spelling &Sp);

/// Binder-slot pool sizes of the generators above.
constexpr uint32_t BalancedSlots = 16;
constexpr uint32_t DeepSlots = 4096;
constexpr uint32_t LetSlots = 32;

/// De Bruijn form of \p Root (recursive: for the small and check-sized
/// trees only).
std::string formOfExpr(const hma::ExprContext &Ctx, const hma::Expr *Root);

/// De Bruijn form of an `HMA1` blob, decoded by the benchmark's own
/// reader. False if the bytes do not decode.
bool formOfBlob(std::string_view Bytes, std::string &Form);

/// Oracle partition of every subtree of \p Root, as preorder class
/// labels numbered by first occurrence. Variables bound outside a
/// subtree are identified by their binding site, truly free ones by
/// spelling -- the paper's semantics on a binder-unique tree, computed
/// without uniquifying. O(sum of subtree sizes): check-sized trees only.
std::vector<uint32_t> oracleSubtreePartition(const hma::ExprContext &Ctx,
                                             const hma::Expr *Root);

/// Relabel \p Labels by first occurrence (a canonical partition value).
std::vector<uint32_t> canonicalLabels(const std::vector<uint32_t> &Labels);

/// A corpus of generated terms: blobs for the program, forms for
/// the oracle, index-aligned.
struct Corpus {
  std::vector<std::string> Blobs;
  std::vector<std::string> Forms;
};

/// One spelled expression to generate.
struct TermSpec {
  uint64_t ClassSeed;
  uint64_t SpellSeed; ///< Drives the binder permutation.
  char Prefix;        ///< Binder spelling prefix.
};

/// Append one spec to \p Specs: with \p Copy (and some class known), an
/// alpha-renamed copy (prefix `y`) of a random class of \p Classes;
/// otherwise a new class (prefix `x`), added to \p Classes.
void addSpec(std::vector<TermSpec> &Specs, std::vector<uint64_t> &Classes,
             Rng &R, bool Copy);

/// Generate \p Specs into \p Out (appending) on \p Threads threads; the
/// result depends only on the specs. A term's size is drawn from its
/// class seed in [MinSize, MaxSize], so every copy of a class has it.
void generateCorpus(const std::vector<TermSpec> &Specs, uint32_t MinSize,
                    uint32_t MaxSize, unsigned Threads, Corpus &Out);

} // namespace pb

#endif // PERFBENCH_FORMS_H
