// Locks down the vgod::par determinism contract (docs/PARALLELISM.md):
// every parallelized kernel must produce bit-identical outputs — and every
// parallelized backward bit-identical gradients — for ANY pool width,
// including widths that do not divide the problem size. The assertions are
// exact (MaxAbsDiff == 0), not tolerance-based: a single reassociated
// float addition is a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "datasets/synthetic.h"
#include "detectors/registry.h"
#include "gnn/graph_autograd.h"
#include "graph/graph.h"
#include "graph/graph_ops.h"
#include "tensor/functional.h"
#include "tensor/kernels.h"

namespace vgod {
namespace {

// Thread counts the suite sweeps: serial, even split, a prime that does
// not divide anything, and more threads than this container has cores.
const int kSweep[] = {1, 2, 7, 16};

/// Restores the default pool width when a test ends, so suites do not
/// leak thread-count state into each other.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { par::SetNumThreads(par::DefaultNumThreads()); }
};

using ParallelKernelsTest = ParallelTest;
using ParallelGraphOpsTest = ParallelTest;
using ParallelBackwardTest = ParallelTest;
using ParallelEndToEndTest = ParallelTest;

AttributedGraph SmallCommunityGraph(int n, int attribute_dim) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = n;
  spec.num_communities = 4;
  spec.avg_degree = 6.0;
  spec.attribute_dim = attribute_dim;
  Rng rng(77);
  return datasets::GeneratePlantedPartition(spec, &rng);
}

// --- ParallelFor mechanics ---

TEST_F(ParallelTest, CoversRangeExactlyOnce) {
  par::SetNumThreads(7);
  const int64_t n = 997;  // Prime: no clean split at any width.
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  par::ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, EmptyRangeNeverCallsBody) {
  par::SetNumThreads(4);
  std::atomic<int> calls{0};
  par::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  par::ParallelFor(9, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, SingleElementRange) {
  par::SetNumThreads(16);
  std::atomic<int64_t> sum{0};
  par::ParallelFor(41, 42, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 41);
}

TEST_F(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  par::SetNumThreads(4);
  std::atomic<int64_t> total{0};
  par::ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // A kernel calling a kernel: must run inline, not re-enter the pool.
      par::ParallelFor(0, 10, 1, [&](int64_t nlo, int64_t nhi) {
        total.fetch_add(nhi - nlo, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST_F(ParallelTest, GrainLimitsSplitting) {
  // range 10 with grain 8 can support at most ceil(10/8) = 2 chunks.
  par::SetNumThreads(16);
  std::atomic<int> chunks{0};
  par::ParallelFor(0, 10, 8, [&](int64_t, int64_t) { ++chunks; });
  EXPECT_LE(chunks.load(), 2);
}

TEST_F(ParallelTest, SetNumThreadsIsObserved) {
  par::SetNumThreads(7);
  EXPECT_EQ(par::NumThreads(), 7);
  par::SetNumThreads(1);
  EXPECT_EQ(par::NumThreads(), 1);
}

TEST_F(ParallelTest, StatsCountRegions) {
  par::SetNumThreads(4);
  const par::PoolStats before = par::Stats();
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(300, 300, 0, 1, &rng);
  kernels::Relu(a);  // Large enough to dispatch on the pool.
  const par::PoolStats after = par::Stats();
  EXPECT_EQ(after.threads, 4);
  EXPECT_GT(after.regions + after.serial_regions,
            before.regions + before.serial_regions);
}

// --- dense kernels: bit-identity across pool widths ---

/// Runs `op` at 1 thread and at every sweep width; all results must be
/// bit-identical to the serial one.
template <typename Op>
void ExpectThreadInvariant(const char* what, const Op& op) {
  par::SetNumThreads(1);
  const Tensor reference = op();
  for (int threads : kSweep) {
    par::SetNumThreads(threads);
    const Tensor got = op();
    ASSERT_EQ(got.rows(), reference.rows()) << what;
    ASSERT_EQ(got.cols(), reference.cols()) << what;
    EXPECT_EQ(kernels::MaxAbsDiff(got, reference), 0.0f)
        << what << " diverged at " << threads << " threads";
  }
}

TEST_F(ParallelKernelsTest, DenseKernelsAreThreadCountInvariant) {
  Rng rng(11);
  // Awkward shapes: empty, single row, prime dims that divide nothing,
  // and rows >> any per-chunk grain. {70, 33} and {40, 64} give the
  // matmuls full 32-wide column panels of the GEMM core plus tail panels.
  const std::pair<int, int> shapes[] = {{0, 5},   {1, 7},   {17, 13},
                                        {1000, 3}, {70, 33}, {40, 64}};
  for (const auto& [rows, cols] : shapes) {
    const Tensor a = Tensor::RandomNormal(rows, cols, 0, 1, &rng);
    const Tensor b = Tensor::RandomNormal(rows, cols, 0, 1, &rng);
    const Tensor c = Tensor::RandomNormal(cols, rows, 0, 1, &rng);
    const Tensor row = Tensor::RandomNormal(1, cols, 0, 1, &rng);
    ExpectThreadInvariant("MatMul", [&] { return kernels::MatMul(a, c); });
    // Mostly-zero rows: the GEMM core gathers each row's nonzeros.
    Tensor sparse_a = a.Clone();
    for (int64_t i = 0; i < sparse_a.size(); ++i) {
      if (i % 4 != 0) sparse_a.data()[i] = 0.0f;
    }
    ExpectThreadInvariant("MatMul sparse A",
                          [&] { return kernels::MatMul(sparse_a, c); });
    ExpectThreadInvariant("MatMulNT", [&] { return kernels::MatMulNT(a, b); });
    ExpectThreadInvariant("MatMulTN", [&] { return kernels::MatMulTN(a, b); });
    ExpectThreadInvariant("Transpose", [&] { return kernels::Transpose(a); });
    ExpectThreadInvariant("Relu", [&] { return kernels::Relu(a); });
    ExpectThreadInvariant("Sigmoid", [&] { return kernels::Sigmoid(a); });
    ExpectThreadInvariant("Tanh", [&] { return kernels::Tanh(a); });
    ExpectThreadInvariant("Add", [&] { return kernels::Add(a, b); });
    ExpectThreadInvariant("Mul", [&] { return kernels::Mul(a, b); });
    ExpectThreadInvariant("AddRowVector",
                          [&] { return kernels::AddRowVector(a, row); });
    ExpectThreadInvariant("RowSums", [&] { return kernels::RowSums(a); });
    ExpectThreadInvariant("ColSums", [&] { return kernels::ColSums(a); });
    ExpectThreadInvariant("RowNorms", [&] { return kernels::RowNorms(a); });
    ExpectThreadInvariant("RowL2Normalize",
                          [&] { return kernels::RowL2Normalize(a, 1e-12f); });
    ExpectThreadInvariant("RowSquaredDistance", [&] {
      return kernels::RowSquaredDistance(a, b);
    });
  }
}

TEST_F(ParallelKernelsTest, InPlaceKernelsAreThreadCountInvariant) {
  Rng rng(13);
  const Tensor base = Tensor::RandomNormal(211, 19, 0, 1, &rng);
  const Tensor other = Tensor::RandomNormal(211, 19, 0, 1, &rng);
  ExpectThreadInvariant("AddInPlace", [&] {
    Tensor t = base.Clone();
    kernels::AddInPlace(&t, other);
    return t;
  });
  ExpectThreadInvariant("AxpyInPlace", [&] {
    Tensor t = base.Clone();
    kernels::AxpyInPlace(&t, 0.37f, other);
    return t;
  });
  ExpectThreadInvariant("ScaleInPlace", [&] {
    Tensor t = base.Clone();
    kernels::ScaleInPlace(&t, -1.25f);
    return t;
  });
}

TEST_F(ParallelKernelsTest, RowsFarExceedingGrainSplitAndStayIdentical) {
  // 20000 x 2: the flat elementwise grain (16k) forces multiple chunks
  // whose boundaries land mid-row for row-based ops.
  Rng rng(17);
  const Tensor a = Tensor::RandomNormal(20000, 2, 0, 1, &rng);
  ExpectThreadInvariant("Relu/tall", [&] { return kernels::Relu(a); });
  ExpectThreadInvariant("RowSums/tall", [&] { return kernels::RowSums(a); });
}

// --- graph ops: bit-identity across pool widths ---

TEST_F(ParallelGraphOpsTest, CsrOpsAreThreadCountInvariant) {
  const AttributedGraph g = SmallCommunityGraph(193, 9);  // Prime n.
  Rng rng(19);
  const Tensor h = Tensor::RandomNormal(g.num_nodes(), 9, 0, 1, &rng);
  const std::vector<float> weights = graph_ops::GcnNormWeights(g);
  ExpectThreadInvariant("Spmm",
                        [&] { return graph_ops::Spmm(g, weights, h); });
  ExpectThreadInvariant("Spmm/unweighted",
                        [&] { return graph_ops::Spmm(g, {}, h); });
  ExpectThreadInvariant("NeighborMean",
                        [&] { return graph_ops::NeighborMean(g, h); });
  ExpectThreadInvariant("NeighborVarianceScore", [&] {
    return graph_ops::NeighborVarianceScore(g, h);
  });
}

TEST_F(ParallelGraphOpsTest, TransposeIndexListsIncomingEdgesInForwardOrder) {
  const AttributedGraph g = SmallCommunityGraph(97, 4);
  const graph_ops::CsrTranspose t = graph_ops::BuildCsrTranspose(g);
  ASSERT_EQ(static_cast<int64_t>(t.src.size()), g.num_directed_edges());
  const auto& row_ptr = g.row_ptr();
  const auto& col_idx = g.col_idx();
  for (int j = 0; j < g.num_nodes(); ++j) {
    for (int64_t s = t.row_ptr[j]; s < t.row_ptr[j + 1]; ++s) {
      // Every transpose slot points back at a forward edge src -> j...
      EXPECT_EQ(col_idx[t.edge[s]], j);
      EXPECT_GE(t.edge[s], row_ptr[t.src[s]]);
      EXPECT_LT(t.edge[s], row_ptr[t.src[s] + 1]);
      // ...and slots are ascending in forward-edge order (the property the
      // deterministic backward gathers rely on).
      if (s > t.row_ptr[j]) EXPECT_GT(t.edge[s], t.edge[s - 1]);
    }
  }
}

// --- autograd backwards: bit-identical gradients across pool widths ---

/// Evaluates loss_fn over fresh parameter clones at 1 thread and at each
/// sweep width; every parameter gradient must match the serial gradients
/// bit for bit.
template <typename LossFn>
void ExpectGradThreadInvariant(const char* what, const LossFn& loss_fn,
                               const std::vector<Tensor>& param_values) {
  auto eval = [&]() {
    std::vector<Variable> params;
    params.reserve(param_values.size());
    for (const Tensor& value : param_values) {
      params.push_back(Variable::Parameter(value.Clone()));
    }
    Variable loss = loss_fn(params);
    loss.Backward();
    std::vector<Tensor> grads;
    grads.reserve(params.size());
    for (Variable& p : params) grads.push_back(p.grad().Clone());
    return grads;
  };

  par::SetNumThreads(1);
  const std::vector<Tensor> reference = eval();
  for (int threads : kSweep) {
    par::SetNumThreads(threads);
    const std::vector<Tensor> got = eval();
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(kernels::MaxAbsDiff(got[i], reference[i]), 0.0f)
          << what << " grad " << i << " diverged at " << threads
          << " threads";
    }
  }
}

TEST_F(ParallelBackwardTest, CsrBackwardsAreThreadCountInvariant) {
  auto g = std::make_shared<const AttributedGraph>(
      SmallCommunityGraph(149, 6));
  Rng rng(23);
  std::vector<float> weights(g->num_directed_edges());
  for (float& w : weights) w = static_cast<float>(rng.Uniform(0.1, 1.0));
  const std::vector<Tensor> params = {
      Tensor::RandomNormal(g->num_nodes(), 6, 0, 1, &rng)};

  ExpectGradThreadInvariant(
      "Spmm",
      [&](const std::vector<Variable>& p) {
        return ag::MeanAll(ag::Square(ag::Spmm(g, weights, p[0])));
      },
      params);
  ExpectGradThreadInvariant(
      "NeighborMean",
      [&](const std::vector<Variable>& p) {
        return ag::MeanAll(ag::Square(ag::NeighborMean(g, p[0])));
      },
      params);
  ExpectGradThreadInvariant(
      "NeighborVarianceScore",
      [&](const std::vector<Variable>& p) {
        return ag::MeanAll(ag::NeighborVarianceScore(g, p[0]));
      },
      params);
}

TEST_F(ParallelBackwardTest, GatAggregateBackwardIsThreadCountInvariant) {
  auto g = std::make_shared<const AttributedGraph>(
      SmallCommunityGraph(101, 5).WithSelfLoops());
  Rng rng(29);
  const std::vector<Tensor> params = {
      Tensor::RandomNormal(g->num_nodes(), 5, 0, 1, &rng),
      Tensor::RandomNormal(g->num_nodes(), 1, 0, 1, &rng),
      Tensor::RandomNormal(g->num_nodes(), 1, 0, 1, &rng)};
  ExpectGradThreadInvariant(
      "GatAggregate",
      [&](const std::vector<Variable>& p) {
        return ag::MeanAll(
            ag::Square(ag::GatAggregate(g, p[0], p[1], p[2])));
      },
      params);
}

TEST_F(ParallelBackwardTest, DenseMlpBackwardIsThreadCountInvariant) {
  Rng rng(31);
  const std::vector<Tensor> params = {
      Tensor::RandomNormal(37, 11, 0, 1, &rng),
      Tensor::RandomNormal(11, 13, 0, 1, &rng)};
  ExpectGradThreadInvariant(
      "MLP",
      [&](const std::vector<Variable>& p) {
        return ag::MeanAll(
            ag::Square(ag::Tanh(ag::MatMul(p[0], p[1]))));
      },
      params);
}

// --- end to end: full VGOD Fit + Score is thread-count invariant ---

TEST_F(ParallelEndToEndTest, VgodScoresAreByteIdenticalAcrossThreadCounts) {
  const AttributedGraph g = SmallCommunityGraph(120, 8);
  detectors::DetectorOptions options;
  options.seed = 9;
  options.epoch_scale = 0.3;  // Keep the double-train quick.

  auto run = [&]() {
    auto detector = detectors::MakeDetector("VGOD", options);
    VGOD_CHECK(detector.ok()) << detector.status().ToString();
    Status fit = detector.value()->Fit(g);
    VGOD_CHECK(fit.ok()) << fit.ToString();
    return detector.value()->Score(g);
  };

  par::SetNumThreads(1);
  const detectors::DetectorOutput serial = run();
  par::SetNumThreads(8);
  const detectors::DetectorOutput parallel = run();

  ASSERT_EQ(serial.score.size(), parallel.score.size());
  for (size_t i = 0; i < serial.score.size(); ++i) {
    // Exact double equality: training and scoring must not depend on the
    // pool width in any bit.
    ASSERT_EQ(serial.score[i], parallel.score[i]) << "node " << i;
  }
  ASSERT_EQ(serial.structural_score.size(), parallel.structural_score.size());
  for (size_t i = 0; i < serial.structural_score.size(); ++i) {
    ASSERT_EQ(serial.structural_score[i], parallel.structural_score[i]);
  }
  ASSERT_EQ(serial.contextual_score.size(), parallel.contextual_score.size());
  for (size_t i = 0; i < serial.contextual_score.size(); ++i) {
    ASSERT_EQ(serial.contextual_score[i], parallel.contextual_score[i]);
  }
}

}  // namespace
}  // namespace vgod
