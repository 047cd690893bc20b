//===- ast/Serialize.cpp - Compact expression serialization ------------------===//
///
/// \file
/// LEB128-based encoder and a defensive, iterative decoder. Both decoders
/// share one bounds-checked \c Reader and one body walker (\c walkBody),
/// so a bad blob gets the same error text and position from either.
///
//===----------------------------------------------------------------------===//

#include "ast/Serialize.h"

#include "ast/Traversal.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace hma;

namespace {

constexpr char Magic[4] = {'H', 'M', 'A', '1'};

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putZigzag(std::string &Out, int64_t V) {
  putVarint(Out, (static_cast<uint64_t>(V) << 1) ^
                     static_cast<uint64_t>(V >> 63));
}

/// Bounds-checked reader over the input bytes.
class Reader {
public:
  explicit Reader(std::string_view Bytes) : Bytes(Bytes) {}

  bool atEnd() const { return Pos == Bytes.size(); }
  size_t position() const { return Pos; }

  bool getByte(uint8_t &B) {
    if (Pos >= Bytes.size())
      return false;
    B = static_cast<uint8_t>(Bytes[Pos++]);
    return true;
  }

  bool getVarint(uint64_t &V) {
    V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B;
      if (!getByte(B))
        return false;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return false; // over-long varint
  }

  bool getZigzag(int64_t &V) {
    uint64_t U;
    if (!getVarint(U))
      return false;
    V = static_cast<int64_t>((U >> 1) ^ (0 - (U & 1)));
    return true;
  }

  bool getBytes(size_t Len, std::string_view &Out) {
    if (Bytes.size() - Pos < Len)
      return false;
    Out = Bytes.substr(Pos, Len);
    Pos += Len;
    return true;
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
};

} // namespace

std::string hma::serializeExpr(const ExprContext &Ctx, const Expr *Root) {
  assert(Root && "nothing to serialize");

  // Local name table: dense ids in first-use (preorder) order.
  std::unordered_map<Name, uint64_t> LocalId;
  std::vector<Name> Names;
  preorder(Root, [&](const Expr *E) {
    Name N = InvalidName;
    if (E->kind() == ExprKind::Var)
      N = E->varName();
    else
      N = E->binder();
    if (N == InvalidName)
      return;
    if (LocalId.emplace(N, Names.size()).second)
      Names.push_back(N);
  });

  std::string Out;
  Out.append(Magic, sizeof(Magic));
  putVarint(Out, Names.size());
  for (Name N : Names) {
    std::string_view S = Ctx.names().spelling(N);
    putVarint(Out, S.size());
    Out.append(S);
  }

  preorder(Root, [&](const Expr *E) {
    Out.push_back(static_cast<char>(E->kind()));
    switch (E->kind()) {
    case ExprKind::Var:
      putVarint(Out, LocalId.at(E->varName()));
      break;
    case ExprKind::Lam:
      putVarint(Out, LocalId.at(E->lamBinder()));
      break;
    case ExprKind::Let:
      putVarint(Out, LocalId.at(E->letBinder()));
      break;
    case ExprKind::Const:
      putZigzag(Out, E->constValue());
      break;
    case ExprKind::App:
      break;
    }
  });
  return Out;
}

namespace {

/// Why a blob did not decode: the message and byte position that
/// \ref DeserializeResult::Error reports.
struct DecodeError {
  const char *Message;
  size_t Pos;
};

DeserializeResult failure(const DecodeError &E) {
  DeserializeResult R;
  R.Error = std::string(E.Message) + " at byte " + std::to_string(E.Pos);
  return R;
}

/// Read the header and name table, interning every spelling into \p Ctx
/// in table order; leaves \p In at the first body byte.
std::optional<DecodeError> readNameTable(Reader &In, size_t TotalBytes,
                                         ExprContext &Ctx,
                                         std::vector<Name> &Names) {
  std::string_view Header;
  if (!In.getBytes(sizeof(Magic), Header) ||
      Header != std::string_view(Magic, sizeof(Magic)))
    return DecodeError{"bad magic", 0};

  uint64_t NameCount;
  if (!In.getVarint(NameCount) || NameCount > TotalBytes)
    return DecodeError{"corrupt name table", In.position()};
  Names.reserve(NameCount);
  for (uint64_t I = 0; I != NameCount; ++I) {
    uint64_t Len;
    std::string_view Spelling;
    if (!In.getVarint(Len) || !In.getBytes(Len, Spelling))
      return DecodeError{"truncated name table", In.position()};
    Names.push_back(Ctx.name(Spelling));
  }
  return std::nullopt;
}

/// Walk one preorder body iteratively, the single definition of the body
/// grammar and its error reports. \p P sees the tree bottom-up:
///
///   Value var(size_t Id), constant(int64_t)      leaves
///   void  bind(size_t Id)                        a binder's scope opens:
///                                                Lam before its body, Let
///                                                after its bound expression
///   Value lam(Id, Body), app(Fun, Arg),          a node is complete; Lam and
///         let(Id, Bound, Body)                   Let close their scope
///
/// where Id indexes the name table.
template <typename Pass>
std::optional<DecodeError> walkBody(Reader &In, size_t NameCount, Pass &P,
                                    typename Pass::Value &Result) {
  using Value = typename Pass::Value;
  struct Frame {
    ExprKind K;
    size_t Id;
    unsigned Got;
    Value Child[2];
  };
  std::vector<Frame> Stack;

  auto readName = [&](size_t &Id) {
    uint64_t V;
    if (!In.getVarint(V) || V >= NameCount)
      return false;
    Id = static_cast<size_t>(V);
    return true;
  };

  for (;;) {
    uint8_t Tag;
    if (!In.getByte(Tag))
      return DecodeError{"truncated body", In.position()};
    if (Tag > static_cast<uint8_t>(ExprKind::Const))
      return DecodeError{"invalid node tag", In.position() - 1};

    const ExprKind K = static_cast<ExprKind>(Tag);
    size_t Id = 0;
    Value Node;
    switch (K) {
    case ExprKind::Var:
      if (!readName(Id))
        return DecodeError{"bad name reference", In.position()};
      Node = P.var(Id);
      break;
    case ExprKind::Const: {
      int64_t C;
      if (!In.getZigzag(C))
        return DecodeError{"truncated constant", In.position()};
      Node = P.constant(C);
      break;
    }
    case ExprKind::Lam:
    case ExprKind::Let:
      if (!readName(Id))
        return DecodeError{"bad binder reference", In.position()};
      if (K == ExprKind::Lam)
        P.bind(Id);
      Stack.push_back(Frame{K, Id, 0, {}});
      continue;
    case ExprKind::App:
      Stack.push_back(Frame{K, 0, 0, {}});
      continue;
    }

    // Leaf: fold it into the pending frames.
    for (;;) {
      if (Stack.empty()) {
        Result = Node;
        if (!In.atEnd())
          return DecodeError{"trailing bytes after expression",
                             In.position()};
        return std::nullopt;
      }
      Frame &Top = Stack.back();
      Top.Child[Top.Got++] = Node;
      if (Top.K == ExprKind::Lam) {
        Node = P.lam(Top.Id, Top.Child[0]);
      } else if (Top.Got == 1) {
        if (Top.K == ExprKind::Let)
          P.bind(Top.Id);
        break;
      } else if (Top.K == ExprKind::App) {
        Node = P.app(Top.Child[0], Top.Child[1]);
      } else {
        Node = P.let(Top.Id, Top.Child[0], Top.Child[1]);
      }
      Stack.pop_back();
    }
  }
}

/// Builds the tree exactly as spelled.
struct BuildPass {
  using Value = const Expr *;
  ExprContext &Ctx;
  const std::vector<Name> &Names;

  Value var(size_t Id) { return Ctx.var(Names[Id]); }
  Value constant(int64_t C) { return Ctx.intConst(C); }
  void bind(size_t) {}
  Value lam(size_t Id, Value Body) { return Ctx.lam(Names[Id], Body); }
  Value app(Value Fun, Value Arg) { return Ctx.app(Fun, Arg); }
  Value let(size_t Id, Value Bound, Value Body) {
    return Ctx.let(Names[Id], Bound, Body);
  }
};

/// Dense per-name state of \ref deserializeUniqueExpr, indexed by the
/// canonical table index of an interned name.
struct NameSlot {
  uint32_t Depth = 0;      ///< Enclosing binders of this name (pre-pass).
  bool Claimed = false;    ///< Free somewhere, or kept by a binder already.
  Name Cur = InvalidName;  ///< Output name of the innermost binder in scope.
};

/// Map every table index to the first index holding the same interned
/// name, so per-name state stays dense even when a table spells a name
/// twice (serializeExpr never does; a crafted blob may).
std::vector<uint32_t> canonicalIds(const std::vector<Name> &Names) {
  std::vector<uint32_t> Order(Names.size());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Names[A] != Names[B] ? Names[A] < Names[B] : A < B;
  });
  std::vector<uint32_t> Canon(Names.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Canon[Order[I]] = I != 0 && Names[Order[I]] == Names[Order[I - 1]]
                          ? Canon[Order[I - 1]]
                          : Order[I];
  return Canon;
}

/// Pre-pass: marks every name that occurs free as claimed, the reserved
/// set uniquifyBinders starts from.
struct FreeNamesPass {
  struct Value {};
  const std::vector<uint32_t> &Canon;
  std::vector<NameSlot> &Slots;

  Value var(size_t Id) {
    NameSlot &S = Slots[Canon[Id]];
    if (S.Depth == 0)
      S.Claimed = true;
    return {};
  }
  Value constant(int64_t) { return {}; }
  void bind(size_t Id) { ++Slots[Canon[Id]].Depth; }
  Value lam(size_t Id, Value) {
    --Slots[Canon[Id]].Depth;
    return {};
  }
  Value app(Value, Value) { return {}; }
  Value let(size_t Id, Value, Value) {
    --Slots[Canon[Id]].Depth;
    return {};
  }
};

/// Builds the tree with binders renamed as uniquifyBinders renames them:
/// binders claim output names in the order its traversal does, keeping
/// their spelling while it is unclaimed and otherwise taking the
/// context's next fresh name.
struct UniqueBuildPass {
  using Value = const Expr *;
  ExprContext &Ctx;
  const std::vector<Name> &Names;
  const std::vector<uint32_t> &Canon;
  std::vector<NameSlot> &Slots;
  std::vector<Name> Shadowed; ///< Outer Cur of every open scope.

  Value var(size_t Id) {
    Name Cur = Slots[Canon[Id]].Cur;
    return Ctx.var(Cur != InvalidName ? Cur : Names[Id]);
  }
  Value constant(int64_t C) { return Ctx.intConst(C); }
  void bind(size_t Id) {
    NameSlot &S = Slots[Canon[Id]];
    Shadowed.push_back(S.Cur);
    if (!S.Claimed) {
      S.Claimed = true;
      S.Cur = Names[Id];
    } else {
      S.Cur = Ctx.names().freshName(Ctx.names().spelling(Names[Id]));
    }
  }
  Name unbind(size_t Id) {
    NameSlot &S = Slots[Canon[Id]];
    Name Out = S.Cur;
    S.Cur = Shadowed.back();
    Shadowed.pop_back();
    return Out;
  }
  Value lam(size_t Id, Value Body) { return Ctx.lam(unbind(Id), Body); }
  Value app(Value Fun, Value Arg) { return Ctx.app(Fun, Arg); }
  Value let(size_t Id, Value Bound, Value Body) {
    return Ctx.let(unbind(Id), Bound, Body);
  }
};

} // namespace

DeserializeResult hma::deserializeExpr(ExprContext &Ctx,
                                       std::string_view Bytes) {
  Reader In(Bytes);
  std::vector<Name> Names;
  if (auto Err = readNameTable(In, Bytes.size(), Ctx, Names))
    return failure(*Err);
  BuildPass P{Ctx, Names};
  DeserializeResult R;
  if (auto Err = walkBody(In, Names.size(), P, R.E))
    return failure(*Err);
  return R;
}

DeserializeResult hma::deserializeUniqueExpr(ExprContext &Ctx,
                                             std::string_view Bytes) {
  Reader In(Bytes);
  std::vector<Name> Names;
  if (auto Err = readNameTable(In, Bytes.size(), Ctx, Names))
    return failure(*Err);
  Reader BodyIn = In; // the second pass re-reads the body from here
  std::vector<uint32_t> Canon = canonicalIds(Names);
  std::vector<NameSlot> Slots(Names.size());

  // Pass one validates the whole body (so errors match deserializeExpr
  // and nothing is built or renamed for a bad blob) and finds the free
  // names; pass two builds the renamed tree over the same bytes.
  FreeNamesPass Free{Canon, Slots};
  FreeNamesPass::Value Ignored;
  if (auto Err = walkBody(In, Names.size(), Free, Ignored))
    return failure(*Err);

  UniqueBuildPass P{Ctx, Names, Canon, Slots, {}};
  DeserializeResult R;
  if (auto Err = walkBody(BodyIn, Names.size(), P, R.E))
    return failure(*Err);
  return R;
}
