//===- ast/Serialize.h - Compact expression serialization -------------------===//
///
/// \file
/// A compact, versioned binary format for expressions.
///
/// A library whose whole point is stable fingerprints needs a way to
/// persist expressions and reload them elsewhere with identical hashes
/// (compiler caches, distributed build systems, cHash-style rebuild
/// avoidance -- see Section 8's discussion of Dietrich et al.). The
/// format is a preorder byte stream:
///
///   header   "HMA1"
///   names    varint count, then length-prefixed spellings (local ids)
///   body     per node: 1-byte kind tag, then payload
///              Var:   varint local-name
///              Lam:   varint binder, body
///              App:   fun, arg
///              Let:   varint binder, bound, body
///              Const: zigzag-varint value
///
/// Deserialisation re-interns names, so ids differ across contexts while
/// spellings -- and therefore alpha-hashes -- are preserved (tested).
/// Decoding is defensive: truncated or corrupt input yields an error,
/// never UB.
///
/// Two decoders read the format. \ref deserializeExpr rebuilds the tree
/// exactly as spelled. \ref deserializeUniqueExpr rebuilds it with the
/// binders renamed as \ref uniquifyBinders would rename them (the
/// paper's Section 2.2 precondition), without a second tree pass. Every
/// path that hashes serialized bytes uses the latter: the index's
/// insertSerialized / insertBatch / lookupSerialized / lookupBatch, the
/// segment compactor's reconcile loop and the daemon's lookups.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_AST_SERIALIZE_H
#define HMA_AST_SERIALIZE_H

#include "ast/Expr.h"

#include <string>

namespace hma {

/// Serialise \p Root to the binary format.
std::string serializeExpr(const ExprContext &Ctx, const Expr *Root);

/// Outcome of deserialisation.
struct DeserializeResult {
  const Expr *E = nullptr;
  std::string Error; ///< Empty on success.

  bool ok() const { return E != nullptr; }
};

/// Reconstruct an expression from \p Bytes into \p Ctx.
DeserializeResult deserializeExpr(ExprContext &Ctx, std::string_view Bytes);

/// Reconstruct \p Bytes into \p Ctx with every binder distinct from every
/// other binder and from every free variable: exactly the tree
/// `uniquifyBinders(Ctx, deserializeExpr(Ctx, Bytes).E)` returns, with the
/// same names (so \ref serializeExpr gives the same bytes) and the same
/// \ref StringInterner::freshName calls in the same order. A cheap
/// pre-pass over the body finds the free names; the building pass then
/// renames binders as it goes. Accepts exactly the blobs \ref
/// deserializeExpr accepts, with the same error for the others.
DeserializeResult deserializeUniqueExpr(ExprContext &Ctx,
                                        std::string_view Bytes);

} // namespace hma

#endif // HMA_AST_SERIALIZE_H
