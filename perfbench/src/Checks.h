//===- perfbench/src/Checks.h - Output checks against the oracle ------------===//
///
/// \file
/// The checks every workload applies, as pure functions over answers so
/// the self-test can feed them deliberately wrong ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Common.h"
#include "Forms.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pb {

/// Oracle multiset: de Bruijn form -> number of ingested expressions.
using Multiset = std::unordered_map<std::string, uint64_t>;

/// One lookup answer, whatever backend gave it.
struct Answer {
  bool Present = false;
  uint64_t Count = 0;
  std::string_view Rep; ///< Canonical representative bytes (HMA1).
};

/// Present flag and count equal the oracle multiset's; the returned
/// representative has the query's form.
inline void checkAnswers(const std::vector<std::string> &QueryForms,
                         const Multiset &M, const std::vector<Answer> &A,
                         Checker &C, const char *What) {
  C.expect(A.size() == QueryForms.size(), std::string(What) + ": answer count");
  std::string Form;
  for (size_t I = 0; I != A.size() && I != QueryForms.size(); ++I) {
    auto It = M.find(QueryForms[I]);
    const bool Want = It != M.end();
    if (A[I].Present != Want) {
      C.expect(false, std::string(What) + ": query " + std::to_string(I) +
                          (Want ? " missed a stored class" : " hit an absent class"));
      continue;
    }
    if (!Want)
      continue;
    C.expect(A[I].Count == It->second,
             std::string(What) + ": query " + std::to_string(I) + " count " +
                 std::to_string(A[I].Count) + " != " + std::to_string(It->second));
    C.expect(formOfBlob(A[I].Rep, Form) && Form == QueryForms[I],
             std::string(What) + ": query " + std::to_string(I) +
                 " representative is not of the query's class");
  }
}

/// A class table (representative bytes, count) equals the multiset:
/// one class per distinct form, each with its multiplicity.
inline void checkClassTable(const std::vector<std::pair<std::string_view, uint64_t>> &Classes,
                            const Multiset &M, Checker &C, const char *What) {
  C.expect(Classes.size() == M.size(),
           std::string(What) + ": " + std::to_string(Classes.size()) +
               " classes, oracle has " + std::to_string(M.size()));
  std::unordered_map<std::string, uint64_t> Seen;
  std::string Form;
  for (const auto &[Bytes, Count] : Classes) {
    if (!formOfBlob(Bytes, Form)) {
      C.expect(false, std::string(What) + ": undecodable representative");
      continue;
    }
    auto It = M.find(Form);
    C.expect(It != M.end() && It->second == Count,
             std::string(What) + ": class count differs from its multiplicity");
    C.expect(Seen.emplace(Form, Count).second,
             std::string(What) + ": two classes share one form");
  }
}

/// Two partitions given as preorder labels are the same partition.
inline void checkPartition(const std::vector<uint32_t> &Want,
                           const std::vector<uint32_t> &Got, Checker &C,
                           const char *What) {
  C.expect(canonicalLabels(Want) == canonicalLabels(Got),
           std::string(What) + ": subexpression partition differs");
}

} // namespace pb

#endif // PERFBENCH_CHECKS_H
