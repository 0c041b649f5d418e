// Property-style sweeps: randomized inputs over parameter grids, checking
// invariants rather than point values. Complements the example-based suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/rng.h"
#include "datasets/synthetic.h"
#include "eval/metrics.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "graph/graph_ops.h"
#include "graph/sampling.h"
#include "injection/injection.h"
#include "tensor/kernels.h"

namespace vgod {
namespace {

// --- random graph construction fuzz: CSR invariants ---

class GraphBuilderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphBuilderFuzzTest, CsrInvariantsHold) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(200));
  const int m = static_cast<int>(rng.UniformInt(4 * n + 1));
  GraphBuilder builder(n);
  for (int e = 0; e < m; ++e) {
    builder.AddEdge(static_cast<int>(rng.UniformInt(n)),
                    static_cast<int>(rng.UniformInt(n)));
  }
  builder.SetAttributes(Tensor::Zeros(n, 3));
  AttributedGraph g = std::move(builder.Build()).value();

  // row_ptr monotone, covering col_idx exactly.
  ASSERT_EQ(static_cast<int>(g.row_ptr().size()), n + 1);
  EXPECT_EQ(g.row_ptr().front(), 0);
  EXPECT_EQ(g.row_ptr().back(), g.num_directed_edges());
  for (int i = 0; i < n; ++i) {
    EXPECT_LE(g.row_ptr()[i], g.row_ptr()[i + 1]);
    auto neighbors = g.Neighbors(i);
    // Sorted, unique, in range, no self loops.
    for (size_t j = 0; j < neighbors.size(); ++j) {
      EXPECT_GE(neighbors[j], 0);
      EXPECT_LT(neighbors[j], n);
      EXPECT_NE(neighbors[j], i);
      if (j > 0) {
        EXPECT_LT(neighbors[j - 1], neighbors[j]);
      }
    }
    // Symmetry: every (i, v) has (v, i).
    for (int32_t v : neighbors) EXPECT_TRUE(g.HasEdge(v, i));
  }
  // Degree sum equals directed edge count.
  int64_t degree_sum = 0;
  for (int i = 0; i < n; ++i) degree_sum += g.Degree(i);
  EXPECT_EQ(degree_sum, g.num_directed_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphBuilderFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- matmul algebraic properties on random matrices ---

class MatMulPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatMulPropertyTest, AssociativityAndDistributivity) {
  Rng rng(GetParam());
  const int a = 2 + static_cast<int>(rng.UniformInt(6));
  const int b = 2 + static_cast<int>(rng.UniformInt(6));
  const int c = 2 + static_cast<int>(rng.UniformInt(6));
  const int d = 2 + static_cast<int>(rng.UniformInt(6));
  Tensor x = Tensor::RandomNormal(a, b, 0, 1, &rng);
  Tensor y = Tensor::RandomNormal(b, c, 0, 1, &rng);
  Tensor z = Tensor::RandomNormal(c, d, 0, 1, &rng);
  Tensor y2 = Tensor::RandomNormal(b, c, 0, 1, &rng);
  // (xy)z == x(yz)
  EXPECT_LT(kernels::MaxAbsDiff(
                kernels::MatMul(kernels::MatMul(x, y), z),
                kernels::MatMul(x, kernels::MatMul(y, z))),
            1e-3f);
  // x(y + y2) == xy + xy2
  EXPECT_LT(kernels::MaxAbsDiff(
                kernels::MatMul(x, kernels::Add(y, y2)),
                kernels::Add(kernels::MatMul(x, y), kernels::MatMul(x, y2))),
            1e-3f);
  // (xy)^T == y^T x^T
  EXPECT_LT(kernels::MaxAbsDiff(
                kernels::Transpose(kernels::MatMul(x, y)),
                kernels::MatMul(kernels::Transpose(y),
                                kernels::Transpose(x))),
            1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulPropertyTest,
                         ::testing::Range<uint64_t>(20, 30));

// --- injection invariants across a parameter grid ---

struct InjectionGridCase {
  int num_cliques;
  int clique_size;
  int candidate_set;
};

class InjectionGridTest
    : public ::testing::TestWithParam<InjectionGridCase> {};

TEST_P(InjectionGridTest, StandardInjectionInvariants) {
  const InjectionGridCase& param = GetParam();
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = 500;
  spec.avg_degree = 5.0;
  spec.attribute_dim = 24;
  Rng gen_rng(101);
  AttributedGraph g = datasets::GeneratePlantedPartition(spec, &gen_rng);
  Rng rng(param.num_cliques * 1000 + param.clique_size);
  injection::InjectionResult result =
      std::move(injection::InjectStandard(g, param.num_cliques,
                                          param.clique_size,
                                          param.candidate_set, &rng))
          .value();

  const int expected = param.num_cliques * param.clique_size;
  int structural = 0, contextual = 0, both = 0;
  for (int i = 0; i < g.num_nodes(); ++i) {
    structural += result.structural[i];
    contextual += result.contextual[i];
    both += result.structural[i] && result.contextual[i];
  }
  EXPECT_EQ(structural, expected);
  EXPECT_EQ(contextual, expected);
  EXPECT_EQ(both, 0);

  // Non-victims keep degree and attributes.
  for (int i = 0; i < g.num_nodes(); ++i) {
    if (!result.combined[i]) {
      EXPECT_EQ(result.graph.Degree(i), g.Degree(i));
    }
    if (result.structural[i]) {
      EXPECT_GE(result.graph.Degree(i), param.clique_size - 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InjectionGridTest,
    ::testing::Values(InjectionGridCase{1, 3, 5}, InjectionGridCase{2, 5, 10},
                      InjectionGridCase{3, 10, 50},
                      InjectionGridCase{2, 15, 50},
                      InjectionGridCase{5, 4, 20},
                      InjectionGridCase{1, 25, 2}),
    [](const ::testing::TestParamInfo<InjectionGridCase>& param_info) {
      std::string name = "p";
      name += std::to_string(param_info.param.num_cliques);
      name += "q";
      name += std::to_string(param_info.param.clique_size);
      name += "k";
      name += std::to_string(param_info.param.candidate_set);
      return name;
    });

// --- AUC properties on random score vectors ---

class AucPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AucPropertyTest, ComplementAndShiftInvariance) {
  Rng rng(GetParam());
  const int n = 50 + static_cast<int>(rng.UniformInt(200));
  std::vector<double> scores(n);
  std::vector<uint8_t> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Normal();
    labels[i] = rng.Bernoulli(0.2);
  }
  labels[0] = 1;
  labels[1] = 0;
  const double auc = eval::Auc(scores, labels);

  // Negating scores flips the AUC.
  std::vector<double> negated(n);
  for (int i = 0; i < n; ++i) negated[i] = -scores[i];
  EXPECT_NEAR(eval::Auc(negated, labels), 1.0 - auc, 1e-9);

  // Affine positive transform preserves it.
  std::vector<double> shifted(n);
  for (int i = 0; i < n; ++i) shifted[i] = 3.0 * scores[i] + 17.0;
  EXPECT_NEAR(eval::Auc(shifted, labels), auc, 1e-9);

  // Mean-std normalization preserves it too.
  EXPECT_NEAR(eval::Auc(eval::MeanStdNormalize(scores), labels), auc, 1e-9);

  // Rank normalization preserves it.
  EXPECT_NEAR(eval::Auc(eval::RankNormalize(scores), labels), auc, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertyTest,
                         ::testing::Range<uint64_t>(40, 52));

// --- negative sampling across densities ---

class NegativeSamplingDensityTest
    : public ::testing::TestWithParam<double> {};

TEST_P(NegativeSamplingDensityTest, InvariantsAcrossDensity) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = 150;
  spec.avg_degree = GetParam();
  spec.attribute_dim = 4;
  Rng gen_rng(3);
  AttributedGraph g = datasets::GeneratePlantedPartition(spec, &gen_rng);
  Rng rng(9);
  AttributedGraph neg = BuildNegativeGraph(g, &rng);
  for (int u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(neg.Degree(u), g.Degree(u));
    for (int32_t v : neg.Neighbors(u)) {
      EXPECT_FALSE(g.HasEdge(u, v));
      EXPECT_NE(u, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, NegativeSamplingDensityTest,
                         ::testing::Values(1.0, 4.0, 12.0, 40.0));

// --- graph algorithm cross-checks on random graphs ---

class AlgorithmCrossCheckTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgorithmCrossCheckTest, TriangleSumConsistency) {
  Rng rng(GetParam());
  const int n = 30 + static_cast<int>(rng.UniformInt(80));
  std::vector<std::pair<int, int>> edges;
  const int m = static_cast<int>(rng.UniformInt(5 * n));
  for (int e = 0; e < m; ++e) {
    int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u != v) edges.emplace_back(u, v);
  }
  AttributedGraph g =
      std::move(AttributedGraph::FromEdgeList(n, edges, Tensor::Ones(n, 1)))
          .value();

  // Brute-force triangle count vs the sorted-intersection kernel.
  const std::vector<int64_t> fast = graph_algorithms::TriangleCounts(g);
  std::vector<int64_t> brute(n, 0);
  for (int u = 0; u < n; ++u) {
    for (int32_t v : g.Neighbors(u)) {
      if (v <= u) continue;
      for (int32_t w : g.Neighbors(v)) {
        if (w <= v) continue;
        if (g.HasEdge(u, w)) {
          ++brute[u];
          ++brute[v];
          ++brute[w];
        }
      }
    }
  }
  EXPECT_EQ(fast, brute);

  // Core numbers: every node's core <= degree, and the k-core subgraph
  // induced by {core >= k} has min degree >= k within itself for k = 2.
  const std::vector<int> core = graph_algorithms::CoreNumbers(g);
  for (int i = 0; i < n; ++i) EXPECT_LE(core[i], g.Degree(i));
  for (int i = 0; i < n; ++i) {
    if (core[i] < 2) continue;
    int internal_degree = 0;
    for (int32_t v : g.Neighbors(i)) internal_degree += core[v] >= 2;
    EXPECT_GE(internal_degree, 2) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmCrossCheckTest,
                         ::testing::Range<uint64_t>(60, 70));

}  // namespace
}  // namespace vgod
