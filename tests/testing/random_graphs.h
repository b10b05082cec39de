#ifndef BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_
#define BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_

#include <vector>

#include "core/query_graph.h"
#include "util/rng.h"

namespace biorank::testing {

/// Parameters for random layered DAGs. The shape mimics the paper's
/// scientific-workflow query graphs: a source, several layers of records,
/// and a final layer of answers, with forward edges between consecutive
/// (and occasionally skipping) layers.
struct RandomDagOptions {
  int layers = 3;               ///< Interior layers between source and answers.
  int nodes_per_layer = 4;
  int answers = 3;
  double edge_density = 0.5;    ///< Probability of each candidate edge.
  double skip_density = 0.1;    ///< Probability of layer-skipping edges.
  double min_node_p = 0.3;      ///< Node probabilities drawn from [min, 1].
  double min_edge_q = 0.2;      ///< Edge probabilities drawn from [min, 1].
  bool certain_nodes = false;   ///< Force all node probabilities to 1.
};

/// Builds a random layered DAG query graph. Every answer is guaranteed at
/// least one incoming edge, and the source at least one outgoing edge, so
/// query graphs are never trivially disconnected.
QueryGraph MakeRandomLayeredDag(Rng& rng, const RandomDagOptions& options);

/// Builds a random out-tree rooted at the source with `depth` levels and
/// `branching` children per node; answers are the leaves. Used to test
/// Proposition 3.1 (reliability == propagation on trees).
QueryGraph MakeRandomTree(Rng& rng, int depth, int branching,
                          bool certain_nodes);

/// Builds a small random digraph (possibly cyclic) over `num_nodes` nodes
/// with uniform edge probability `edge_density`; answers are `num_answers`
/// distinct non-source nodes. Used for cycle handling tests.
QueryGraph MakeRandomDigraph(Rng& rng, int num_nodes, double edge_density,
                             int num_answers);

/// The differential harness's graph for `round`: the rounds cycle
/// through the three generators above, so a sweep covers layered DAGs,
/// out-trees and cyclic digraphs, with sizes and densities varying by
/// round.
QueryGraph MakeHarnessGraph(Rng& rng, int round);

/// A layered DAG of the serving workload's shape (31 nodes): a source,
/// three layers of six nodes, twelve answers, layer-to-layer edges at
/// density 0.45, skip edges at 0.15, and one guaranteed in-edge per
/// node. Its per-answer residues are the irreducible ones exact
/// factoring and Monte Carlo meet in serving.
QueryGraph MakeServingShapedDag(Rng& rng);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_
