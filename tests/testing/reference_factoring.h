// Differential oracle for exact factoring: the pointer-graph recursion
// the flat production kernel (core/reliability_exact.cc) replaced. It
// copies a whole QueryGraph per conditioning call and runs the pointer
// reduction rules of testing/reference_canonical.h on it. Production
// values and call counts must be identical to these, bit for bit.

#ifndef BIORANK_TESTS_TESTING_REFERENCE_FACTORING_H_
#define BIORANK_TESTS_TESTING_REFERENCE_FACTORING_H_

#include <cstdint>

#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "util/status.h"

namespace biorank::testing {

/// ExactReliabilityFactoring on the pointer graph: same prologue
/// (validate, single-target restriction, reification), same rule order,
/// pivot choice and combination order. `calls` (optional) receives the
/// conditioning calls spent, counted like FactoringStats::calls.
Result<double> ReferenceFactoring(const QueryGraph& query_graph,
                                  NodeId target,
                                  const FactoringOptions& options = {},
                                  int64_t* calls = nullptr);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_REFERENCE_FACTORING_H_
