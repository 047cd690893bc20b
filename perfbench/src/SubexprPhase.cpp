//===- perfbench/src/SubexprPhase.cpp - subexpr-hash -----------------------===//
///
/// \file
/// The paper's own task: hash every subexpression of a few large trees
/// (`AlphaHasher::hashAllInto`) and group them by hash
/// (`groupSubexpressionsByHash`), after `uniquifyBinders`. The trees: a
/// balanced one of ~10^6 nodes, a deep-binder spine of ~10^5 nodes whose
/// variable maps spill out of the inline small map, and a let-heavy
/// arithmetic program with many repeated subterms.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Phases.h"

#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "eqclass/EquivClasses.h"

using namespace hma;

namespace pb {
namespace {

constexpr const char *Cat = "subexpr";

using GenFn = const Expr *(*)(ExprContext &, uint64_t, uint32_t, const Spelling &);

struct Family {
  const char *Name;
  GenFn Gen;
  uint32_t Slots;
  uint32_t FullSize, CheckSize;
};

const Family Families[] = {
    {"balanced", genBalanced, BalancedSlots, 1u << 20, 8192},
    {"deep-binders", genDeepBinders, DeepSlots, 100000, 1500},
    {"let-program", genLetProgram, LetSlots + 4, 200000, 3000},
};

/// Program partition of \p Root as preorder labels.
std::vector<uint32_t> programLabels(const Expr *Root,
                                    const std::vector<std::vector<const Expr *>> &Groups,
                                    uint32_t NumIds) {
  std::vector<uint32_t> ClassOf(NumIds, 0);
  for (size_t G = 0; G != Groups.size(); ++G)
    for (const Expr *E : Groups[G])
      ClassOf[E->id()] = static_cast<uint32_t>(G);
  std::vector<uint32_t> Labels;
  Labels.reserve(Root->treeSize());
  preorder(Root, [&](const Expr *E) { Labels.push_back(ClassOf[E->id()]); });
  return Labels;
}

class SubexprPhase : public Phase {
public:
  SubexprPhase(const RunOptions &O, bool Full, Tracer &T)
      : O(O), T(T), Scale(Full ? 1 : 8) {}

  void setup(Checker &) override {}

  /// One tree through uniquify + hashAllInto + group; returns the
  /// program's preorder labels when \p Labels is set.
  double runTree(Tracer &Tr, const Family &F, uint32_t Size,
                 const Spelling &Sp, uint64_t Seed,
                 std::vector<uint32_t> *Labels, uint64_t *NodesOut,
                 uint32_t Op) {
    ExprContext Ctx;
    const Expr *Root = F.Gen(Ctx, Seed, Size, Sp);
    const uint64_t T0 = nowNs();
    const Expr *U;
    std::vector<Hash128> Hashes;
    std::vector<std::vector<const Expr *>> Groups;
    {
      SpanScope S0(Tr, Cat, "subexpr.tree", Op);
      {
        SpanScope S(Tr, Cat, "ast.uniquify", Op);
        U = uniquifyBinders(Ctx, Root);
      }
      AlphaHasher<Hash128> H(Ctx);
      {
        SpanScope S(Tr, Cat, "core.hashall", Op);
        H.hashAllInto(U, Hashes);
      }
      {
        SpanScope S(Tr, Cat, "eqclass.group", Op);
        Groups = groupSubexpressionsByHash(U, Hashes);
      }
      if (Tr.enabled() && NodesOut)
        PoolNodes += H.poolAllocatedNodes();
    }
    const double Secs = (nowNs() - T0) / 1e9;
    if (NodesOut)
      *NodesOut += U->treeSize();
    if (Labels)
      *Labels = programLabels(U, Groups, Ctx.numNodes());
    return Secs;
  }

  void round(Checker &C, bool First) override {
    uint64_t Nodes = 0;
    for (uint32_t I = 0; I != 3; ++I) {
      const Family &F = Families[I];
      const uint32_t Size = F.FullSize / Scale;
      const uint64_t Seed = subSeed(O.Seed, 3, I);
      Rng R(Seed);
      const Spelling Sp = Spelling::random("x", F.Slots, R);
      Tracer Off(false);
      if (!First) {
        Secs[I].push_back(runTree(T, F, Size, Sp, Seed, nullptr, &Nodes, I));
      } else {
        std::vector<uint32_t> Labels, Renamed;
        runTree(Off, F, Size, Sp, Seed, &Labels, &Nodes, I);
        // Renaming every binder leaves the partition unchanged.
        const Spelling Other = Spelling::random("r", F.Slots, R);
        runTree(Off, F, Size, Other, Seed, &Renamed, nullptr, I);
        checkPartition(Labels, Renamed, C,
                       (std::string("subexpr: renaming ") + F.Name).c_str());
      }
    }
    TreeNodes = Nodes;
  }

  uint64_t opsPerRound() const override { return 3; }

  /// The partition of check-sized trees equals the oracle's.
  void finish(Checker &C) override {
    for (uint32_t I = 0; I != 3; ++I) {
      const Family &F = Families[I];
      const uint64_t Seed = subSeed(O.Seed, 4, I);
      Rng R(Seed);
      const Spelling Sp = Spelling::random("x", F.Slots, R);
      ExprContext Ctx;
      const Expr *Root = F.Gen(Ctx, Seed, F.CheckSize, Sp);
      const std::vector<uint32_t> Want = oracleSubtreePartition(Ctx, Root);
      std::vector<uint32_t> Got;
      Tracer Off(false);
      runTree(Off, F, F.CheckSize, Sp, Seed, &Got, nullptr, I);
      checkPartition(Want, Got, C, (std::string("subexpr: oracle ") + F.Name).c_str());
    }
  }

  void report(MetricSink &E, MetricSink &L) override {
    // All three trees' nodes over the sum of each tree's median time.
    double Secs3 = 0;
    for (const auto &S : Secs)
      Secs3 += median(S);
    E.set("subexpr_nodes_per_s", TreeNodes / Secs3, "nodes/s");
    if (!T.enabled())
      return;
    uint64_t Trees = 0;
    const double Uniq = T.meanNs(Cat, "ast.uniquify", &Trees);
    const double Nodes = double(TreeNodes) / 3;
    L.offer("ast.uniquify_ns", Uniq, "ns");
    L.offer("core.hashall_ns_per_node", T.meanNs(Cat, "core.hashall") / Nodes, "ns");
    L.offer("eqclass.group_ns_per_node", T.meanNs(Cat, "eqclass.group") / Nodes, "ns");
    L.offer("adt.pool_nodes_per_node", Trees ? PoolNodes / (Nodes * Trees) : 0, "count");
  }

private:
  const RunOptions &O;
  Tracer &T;
  uint32_t Scale;
  std::vector<double> Secs[3]; ///< Per tree, one time per round.
  uint64_t TreeNodes = 0;
  double PoolNodes = 0;
};

} // namespace

std::unique_ptr<Phase> makeSubexprPhase(const RunOptions &O, bool Full, Tracer &T) {
  return std::make_unique<SubexprPhase>(O, Full, T);
}

} // namespace pb
