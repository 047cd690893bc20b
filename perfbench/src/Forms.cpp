//===- perfbench/src/Forms.cpp - Seeded generator and de Bruijn oracle ------===//

#include "Forms.h"

#include "ast/Serialize.h"

#include <thread>
#include <unordered_map>

using namespace hma;

namespace pb {

Spelling Spelling::random(const std::string &Prefix, uint32_t Slots, Rng &R) {
  Spelling S;
  S.Prefix = Prefix;
  S.Perm.resize(Slots);
  for (uint32_t I = 0; I != Slots; ++I)
    S.Perm[I] = I;
  for (uint32_t I = Slots; I > 1; --I)
    std::swap(S.Perm[I - 1], S.Perm[R.below(I)]);
  return S;
}

namespace {

/// Interns slot and free-variable names on first use.
class Names {
public:
  Names(ExprContext &Ctx, const Spelling &Sp, uint32_t Slots)
      : Ctx(Ctx), Sp(Sp), Slot(Slots, InvalidName) {}
  Name binder(uint32_t S) {
    if (Slot[S] == InvalidName)
      Slot[S] = Ctx.name(Sp.name(S));
    return Slot[S];
  }
  Name free(const char *Spell) { return Ctx.name(Spell); }

private:
  ExprContext &Ctx;
  const Spelling &Sp;
  std::vector<Name> Slot;
};

constexpr uint32_t TermSlots = 6; ///< Binder-slot pool of corpus terms.
const char *const FreeNames[] = {"f0", "f1", "f2", "f3"};
const char *const Ops[] = {"add", "mul", "sub"};

class TermGen {
public:
  TermGen(ExprContext &Ctx, uint64_t Seed, uint32_t Slots, const Spelling &Sp)
      : Ctx(Ctx), R(Seed), Slots(Slots), N(Ctx, Sp, Slots) {}

  const Expr *leaf(unsigned ConstPct, unsigned FreePct) {
    const uint64_t P = R.below(100);
    if (P < ConstPct)
      return Ctx.intConst(static_cast<int64_t>(R.below(8)));
    if (P < ConstPct + FreePct || Scope.empty())
      return Ctx.var(N.free(FreeNames[R.below(4)]));
    return Ctx.var(N.binder(Scope[R.below(Scope.size())]));
  }

  /// Random lambda/let/app term of exactly \p Size nodes, binders from
  /// the slot pool (reuse and shadowing included, so uniquification
  /// does real work).
  const Expr *term(uint32_t Size) {
    if (Size <= 1)
      return leaf(10, 15);
    const uint64_t P = R.below(10);
    if (Size == 2 || P < 3) {
      const uint32_t S = static_cast<uint32_t>(R.below(Slots));
      Scope.push_back(S);
      const Expr *Body = term(Size - 1);
      Scope.pop_back();
      return Ctx.lam(N.binder(S), Body);
    }
    const uint32_t Left = 1 + static_cast<uint32_t>(R.below(Size - 2));
    if (P < 5) {
      const uint32_t S = static_cast<uint32_t>(R.below(Slots));
      const Expr *Bound = term(Left);
      Scope.push_back(S);
      const Expr *Body = term(Size - 1 - Left);
      Scope.pop_back();
      return Ctx.let(N.binder(S), Bound, Body);
    }
    const Expr *Fun = term(Left);
    const Expr *Arg = term(Size - 1 - Left);
    return Ctx.app(Fun, Arg);
  }

  /// Even splits; a lambda on about a quarter of the inner nodes.
  const Expr *balanced(uint32_t Size) {
    if (Size <= 1)
      return leaf(5, 15);
    if (Size == 2 || R.below(4) == 0) {
      const uint32_t S = static_cast<uint32_t>(R.below(Slots));
      Scope.push_back(S);
      const Expr *Body = balanced(Size - 1);
      Scope.pop_back();
      return Ctx.lam(N.binder(S), Body);
    }
    const uint32_t Left = (Size - 1) / 2;
    const Expr *Fun = balanced(Left);
    const Expr *Arg = balanced(Size - 1 - Left);
    return Ctx.app(Fun, Arg);
  }

  ExprContext &Ctx;
  Rng R;
  uint32_t Slots;
  Names N;
  std::vector<uint32_t> Scope;
};

} // namespace

const Expr *genBalanced(ExprContext &Ctx, uint64_t Seed, uint32_t Size,
                        const Spelling &Sp) {
  TermGen G(Ctx, Seed, BalancedSlots, Sp);
  return G.balanced(Size);
}

const Expr *genDeepBinders(ExprContext &Ctx, uint64_t Seed, uint32_t Size,
                           const Spelling &Sp) {
  // A spine of K levels, each `\x_i. (v_a v_b) <rest>` (5 nodes), where
  // v_a, v_b are drawn uniformly from every binder above: the variable
  // maps of the lower spine hold thousands of entries.
  Rng R(Seed);
  Names N(Ctx, Sp, DeepSlots);
  const uint32_t K = Size > 5 ? (Size - 1) / 5 : 1;
  std::vector<uint32_t> Slot(K), RefA(K), RefB(K);
  for (uint32_t I = 0; I != K; ++I) {
    Slot[I] = static_cast<uint32_t>(R.below(DeepSlots));
    RefA[I] = static_cast<uint32_t>(R.below(I + 1));
    RefB[I] = static_cast<uint32_t>(R.below(I + 1));
  }
  const Expr *Rest = Ctx.var(N.binder(Slot[K - 1]));
  for (uint32_t I = K; I-- != 0;) {
    const Expr *Pair = Ctx.app(Ctx.var(N.binder(Slot[RefA[I]])),
                               Ctx.var(N.binder(Slot[RefB[I]])));
    Rest = Ctx.lam(N.binder(Slot[I]), Ctx.app(Pair, Rest));
  }
  return Rest;
}

const Expr *genLetProgram(ExprContext &Ctx, uint64_t Seed, uint32_t Size,
                          const Spelling &Sp) {
  // `let v_i = <arith over v_{i-8..i-1} and small constants> in ...`,
  // with a quarter of the bound expressions a one-argument lambda whose
  // binder comes from a small pool: many repeated subterms, both
  // syntactically equal and equal only modulo alpha.
  constexpr uint32_t LetVars = 32; // let binders cycle through slots 0..31
  Rng R(Seed);
  Names N(Ctx, Sp, LetSlots + 4);
  auto atom = [&](uint32_t I) -> const Expr * {
    if (I > 0 && R.below(10) < 6)
      return Ctx.var(N.binder((I - 1 - static_cast<uint32_t>(
                                           R.below(std::min(I, 8u)))) %
                              LetVars));
    return Ctx.intConst(static_cast<int64_t>(R.below(4)));
  };
  struct Arith {
    ExprContext &Ctx;
    Rng &R;
    Names &N;
    decltype(atom) &Atom;
    const Expr *operator()(uint32_t I, unsigned Depth) {
      if (Depth == 0 || R.below(3) == 0)
        return Atom(I);
      const Expr *Op = Ctx.var(N.free(Ops[R.below(3)]));
      const Expr *A = (*this)(I, Depth - 1);
      const Expr *B = (*this)(I, Depth - 1);
      return Ctx.app(Ctx.app(Op, A), B);
    }
  } Arith{Ctx, R, N, atom};

  std::vector<const Expr *> Bound;
  uint32_t Nodes = 1;
  for (uint32_t I = 0; Nodes < Size; ++I) {
    const Expr *B;
    if (R.below(4) == 0) {
      const Name Y = N.binder(LetSlots + static_cast<uint32_t>(R.below(4)));
      const Expr *Op = Ctx.var(N.free(Ops[R.below(3)]));
      const Expr *A = atom(I);
      B = Ctx.lam(Y, Ctx.app(Ctx.app(Op, Ctx.var(Y)), A));
    } else {
      B = Arith(I, 3);
    }
    Bound.push_back(B);
    Nodes += 1 + B->treeSize();
  }
  const uint32_t L = static_cast<uint32_t>(Bound.size());
  const Expr *Body = Ctx.var(N.binder((L - 1) % LetVars));
  for (uint32_t I = L; I-- != 0;)
    Body = Ctx.let(N.binder(I % LetVars), Bound[I], Body);
  return Body;
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

namespace {

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putFree(std::string &Out, std::string_view Spell) {
  Out.push_back('F');
  putVarint(Out, Spell.size());
  Out.append(Spell);
}

void putConst(std::string &Out, int64_t V) {
  Out.push_back('C');
  putVarint(Out, (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63));
}

void putBound(std::string &Out, size_t Scope, size_t Pos) {
  Out.push_back('V');
  putVarint(Out, Scope - 1 - Pos);
}

void exprForm(const ExprContext &Ctx, const Expr *E, std::vector<Name> &Scope,
              std::string &Out) {
  switch (E->kind()) {
  case ExprKind::Var: {
    for (size_t I = Scope.size(); I-- != 0;)
      if (Scope[I] == E->varName()) {
        putBound(Out, Scope.size(), I);
        return;
      }
    putFree(Out, Ctx.names().spelling(E->varName()));
    return;
  }
  case ExprKind::Const:
    putConst(Out, E->constValue());
    return;
  case ExprKind::Lam:
    Out.push_back('L');
    Scope.push_back(E->lamBinder());
    exprForm(Ctx, E->lamBody(), Scope, Out);
    Scope.pop_back();
    return;
  case ExprKind::App:
    Out.push_back('A');
    exprForm(Ctx, E->appFun(), Scope, Out);
    exprForm(Ctx, E->appArg(), Scope, Out);
    return;
  case ExprKind::Let:
    Out.push_back('E');
    exprForm(Ctx, E->letBound(), Scope, Out);
    Scope.push_back(E->letBinder());
    exprForm(Ctx, E->letBody(), Scope, Out);
    Scope.pop_back();
    return;
  }
}

/// Reader for the `HMA1` layout: magic, varint name count, length-
/// prefixed spellings, then a preorder stream of (kind byte, payload).
class BlobReader {
public:
  explicit BlobReader(std::string_view B) : B(B) {}

  bool varint(uint64_t &V) {
    V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (P >= B.size())
        return false;
      const uint8_t C = static_cast<uint8_t>(B[P++]);
      V |= static_cast<uint64_t>(C & 0x7f) << Shift;
      if (!(C & 0x80))
        return true;
    }
    return false;
  }

  bool header() {
    if (B.substr(0, 4) != "HMA1")
      return false;
    P = 4;
    uint64_t Count;
    if (!varint(Count) || Count > B.size())
      return false;
    Spell.reserve(static_cast<size_t>(Count));
    for (uint64_t I = 0; I != Count; ++I) {
      uint64_t Len;
      if (!varint(Len) || Len > B.size() - P)
        return false;
      Spell.push_back(B.substr(P, static_cast<size_t>(Len)));
      P += static_cast<size_t>(Len);
    }
    return true;
  }

  bool node(std::string &Out, unsigned Depth) {
    if (P >= B.size() || Depth > 100000)
      return false;
    const uint8_t Kind = static_cast<uint8_t>(B[P++]);
    uint64_t Id;
    switch (Kind) {
    case 0: // Var
      if (!varint(Id) || Id >= Spell.size())
        return false;
      for (size_t I = Scope.size(); I-- != 0;)
        if (Scope[I] == Id) {
          putBound(Out, Scope.size(), I);
          return true;
        }
      putFree(Out, Spell[static_cast<size_t>(Id)]);
      return true;
    case 1: // Lam
      if (!varint(Id) || Id >= Spell.size())
        return false;
      Out.push_back('L');
      Scope.push_back(Id);
      if (!node(Out, Depth + 1))
        return false;
      Scope.pop_back();
      return true;
    case 2: // App
      Out.push_back('A');
      return node(Out, Depth + 1) && node(Out, Depth + 1);
    case 3: // Let
      if (!varint(Id) || Id >= Spell.size())
        return false;
      Out.push_back('E');
      if (!node(Out, Depth + 1))
        return false;
      Scope.push_back(Id);
      if (!node(Out, Depth + 1))
        return false;
      Scope.pop_back();
      return true;
    case 4: { // Const
      uint64_t U;
      if (!varint(U))
        return false;
      putConst(Out, static_cast<int64_t>((U >> 1) ^ (0 - (U & 1))));
      return true;
    }
    default:
      return false;
    }
  }

  bool atEnd() const { return P == B.size(); }

private:
  std::string_view B;
  size_t P = 0;
  std::vector<std::string_view> Spell;
  std::vector<uint64_t> Scope;
};

} // namespace

std::string formOfExpr(const ExprContext &Ctx, const Expr *Root) {
  std::string Out;
  std::vector<Name> Scope;
  exprForm(Ctx, Root, Scope, Out);
  return Out;
}

bool formOfBlob(std::string_view Bytes, std::string &Form) {
  Form.clear();
  BlobReader R(Bytes);
  return R.header() && R.node(Form, 0) && R.atEnd();
}

namespace {

class SubtreeOracle {
public:
  SubtreeOracle(const ExprContext &Ctx, const Expr *Root)
      : Ctx(Ctx), PreOf(Ctx.numNodes(), 0), SiteOf(Ctx.numNodes(), -1) {
    number(Root);
    Local.assign(Order.size(), -1);
  }

  std::vector<uint32_t> partition() {
    std::unordered_map<std::string, uint32_t> Classes;
    std::vector<uint32_t> Labels;
    Labels.reserve(Order.size());
    std::string Form;
    for (const Expr *E : Order) {
      Form.clear();
      emit(E, 0, Form);
      auto It = Classes.try_emplace(Form, static_cast<uint32_t>(Classes.size()));
      Labels.push_back(It.first->second);
    }
    return Labels;
  }

private:
  /// Preorder numbering; each Var's binding site (binder preorder index,
  /// or -1 if free in the whole tree).
  void number(const Expr *E) {
    PreOf[E->id()] = static_cast<uint32_t>(Order.size());
    Order.push_back(E);
    switch (E->kind()) {
    case ExprKind::Var:
      for (size_t I = Scope.size(); I-- != 0;)
        if (Scope[I].first == E->varName()) {
          SiteOf[E->id()] = Scope[I].second;
          break;
        }
      return;
    case ExprKind::Const:
      return;
    case ExprKind::Lam:
      Scope.emplace_back(E->lamBinder(), PreOf[E->id()]);
      number(E->lamBody());
      Scope.pop_back();
      return;
    case ExprKind::App:
      number(E->appFun());
      number(E->appArg());
      return;
    case ExprKind::Let:
      number(E->letBound());
      Scope.emplace_back(E->letBinder(), PreOf[E->id()]);
      number(E->letBody());
      Scope.pop_back();
      return;
    }
  }

  void emit(const Expr *E, int32_t Depth, std::string &Out) {
    switch (E->kind()) {
    case ExprKind::Var: {
      const int64_t Site = SiteOf[E->id()];
      if (Site < 0) {
        putFree(Out, Ctx.names().spelling(E->varName()));
      } else if (Local[static_cast<size_t>(Site)] >= 0) {
        putBound(Out, static_cast<size_t>(Depth),
                 static_cast<size_t>(Local[static_cast<size_t>(Site)]));
      } else {
        Out.push_back('B');
        putVarint(Out, static_cast<uint64_t>(Site));
      }
      return;
    }
    case ExprKind::Const:
      putConst(Out, E->constValue());
      return;
    case ExprKind::Lam:
      Out.push_back('L');
      Local[PreOf[E->id()]] = Depth;
      emit(E->lamBody(), Depth + 1, Out);
      Local[PreOf[E->id()]] = -1;
      return;
    case ExprKind::App:
      Out.push_back('A');
      emit(E->appFun(), Depth, Out);
      emit(E->appArg(), Depth, Out);
      return;
    case ExprKind::Let:
      Out.push_back('E');
      emit(E->letBound(), Depth, Out);
      Local[PreOf[E->id()]] = Depth;
      emit(E->letBody(), Depth + 1, Out);
      Local[PreOf[E->id()]] = -1;
      return;
    }
  }

  const ExprContext &Ctx;
  std::vector<uint32_t> PreOf;
  std::vector<int64_t> SiteOf;
  std::vector<const Expr *> Order;
  std::vector<std::pair<Name, int64_t>> Scope;
  std::vector<int32_t> Local; ///< Binder preorder index -> local depth.
};

} // namespace

std::vector<uint32_t> oracleSubtreePartition(const ExprContext &Ctx,
                                             const Expr *Root) {
  return SubtreeOracle(Ctx, Root).partition();
}

std::vector<uint32_t> canonicalLabels(const std::vector<uint32_t> &Labels) {
  std::unordered_map<uint32_t, uint32_t> Map;
  std::vector<uint32_t> Out;
  Out.reserve(Labels.size());
  for (uint32_t L : Labels)
    Out.push_back(Map.try_emplace(L, static_cast<uint32_t>(Map.size()))
                      .first->second);
  return Out;
}

void addSpec(std::vector<TermSpec> &Specs, std::vector<uint64_t> &Classes,
             Rng &R, bool Copy) {
  if (Copy && !Classes.empty()) {
    Specs.push_back({Classes[R.below(Classes.size())], R.next(), 'y'});
    return;
  }
  Classes.push_back(R.next());
  Specs.push_back({Classes.back(), R.next(), 'x'});
}

void generateCorpus(const std::vector<TermSpec> &Specs, uint32_t MinSize,
                    uint32_t MaxSize, unsigned Threads, Corpus &Out) {
  const size_t Base = Out.Blobs.size();
  Out.Blobs.resize(Base + Specs.size());
  Out.Forms.resize(Base + Specs.size());
  auto Work = [&](size_t Begin, size_t End) {
    std::unique_ptr<ExprContext> Ctx;
    for (size_t I = Begin; I != End; ++I) {
      if (!Ctx || Ctx->numNodes() > (1u << 16))
        Ctx = std::make_unique<ExprContext>();
      const TermSpec &S = Specs[I];
      Rng SizeR(S.ClassSeed);
      const uint32_t Size = static_cast<uint32_t>(SizeR.range(MinSize, MaxSize));
      Rng SpellR(S.SpellSeed);
      const Spelling Sp = Spelling::random(std::string(1, S.Prefix), TermSlots, SpellR);
      const Expr *E = TermGen(*Ctx, S.ClassSeed ^ 0x5bd1e995u, TermSlots, Sp).term(Size);
      Out.Blobs[Base + I] = serializeExpr(*Ctx, E);
      Out.Forms[Base + I] = formOfExpr(*Ctx, E);
    }
  };
  Threads = std::max(1u, std::min<unsigned>(Threads, Specs.size() / 256 + 1));
  std::vector<std::thread> Pool;
  const size_t Step = (Specs.size() + Threads - 1) / Threads;
  for (unsigned T = 0; T != Threads; ++T) {
    const size_t B = std::min(Specs.size(), T * Step);
    const size_t E = std::min(Specs.size(), B + Step);
    Pool.emplace_back(Work, B, E);
  }
  for (std::thread &Th : Pool)
    Th.join();
}

} // namespace pb
