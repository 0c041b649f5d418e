// google-benchmark microbenchmarks for the kernels every experiment sits
// on: dense matmul, SpMM, the neighbor-variance fused op, GAT aggregation,
// negative-edge sampling, and AUC computation. These track the raw
// performance behind Fig 7 / Table VII.
//
// `micro_kernels --sweep` instead runs the vgod::par thread-count sweep:
// each hot kernel timed at 1/2/4/8 pool threads, reporting GFLOP/s and
// speedup vs 1 thread, recorded into a JSON manifest — BENCH_kernels.json
// in the working directory unless VGOD_BENCH_MANIFEST overrides it
// (docs/PARALLELISM.md). All other arguments go to google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>

#include "bench_common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "datasets/synthetic.h"
#include "eval/metrics.h"
#include "gnn/graph_autograd.h"
#include "graph/graph_ops.h"
#include "graph/sampling.h"
#include "tensor/kernels.h"

namespace vgod {
namespace {

AttributedGraph BenchGraph(int n) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = n;
  spec.num_communities = 8;
  spec.avg_degree = 8.0;
  spec.attribute_dim = 64;
  Rng rng(1);
  return datasets::GeneratePlantedPartition(spec, &rng);
}

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor a = Tensor::RandomNormal(n, 128, 0, 1, &rng);
  Tensor b = Tensor::RandomNormal(128, 64, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * 128 * 64);
}
BENCHMARK(BM_MatMul)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MatMulNT_ZZt(benchmark::State& state) {
  // The sigma(Z Z^T) structure-decoder hot spot.
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Tensor z = Tensor::RandomNormal(n, 64, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMulNT(z, z));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * 64);
}
BENCHMARK(BM_MatMulNT_ZZt)->Arg(512)->Arg(1024)->Arg(2048);

void BM_Spmm(benchmark::State& state) {
  AttributedGraph g = BenchGraph(static_cast<int>(state.range(0)));
  Rng rng(4);
  Tensor h = Tensor::RandomNormal(g.num_nodes(), 64, 0, 1, &rng);
  const std::vector<float> weights = graph_ops::GcnNormWeights(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph_ops::Spmm(g, weights, h));
  }
  state.SetItemsProcessed(state.iterations() * g.num_directed_edges() * 64);
}
BENCHMARK(BM_Spmm)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_NeighborVarianceScore(benchmark::State& state) {
  AttributedGraph g = BenchGraph(static_cast<int>(state.range(0)));
  Rng rng(5);
  Tensor h = Tensor::RandomNormal(g.num_nodes(), 128, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph_ops::NeighborVarianceScore(g, h));
  }
  state.SetItemsProcessed(state.iterations() * g.num_directed_edges() * 128);
}
BENCHMARK(BM_NeighborVarianceScore)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GatAggregate(benchmark::State& state) {
  auto g = std::make_shared<const AttributedGraph>(
      BenchGraph(static_cast<int>(state.range(0))).WithSelfLoops());
  Rng rng(6);
  Variable s =
      Variable::Constant(Tensor::RandomNormal(g->num_nodes(), 64, 0, 1, &rng));
  Variable p =
      Variable::Constant(Tensor::RandomNormal(g->num_nodes(), 1, 0, 1, &rng));
  Variable q =
      Variable::Constant(Tensor::RandomNormal(g->num_nodes(), 1, 0, 1, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::GatAggregate(g, s, p, q));
  }
  state.SetItemsProcessed(state.iterations() * g->num_directed_edges() * 64);
}
BENCHMARK(BM_GatAggregate)->Arg(1000)->Arg(4000);

void BM_NegativeEdgeSampling(benchmark::State& state) {
  AttributedGraph g = BenchGraph(static_cast<int>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildNegativeGraph(g, &rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_directed_edges());
}
BENCHMARK(BM_NegativeEdgeSampling)->Arg(1000)->Arg(4000);

void BM_Auc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<double> scores(n);
  std::vector<uint8_t> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.05);
  }
  labels[0] = 1;
  labels[1] = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::Auc(scores, labels));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Auc)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// --sweep mode: op x threads grid for the vgod::par pool.

struct SweepOp {
  std::string name;
  double flops;  // Scalar FLOPs of one fn() call (for GFLOP/s).
  std::function<void()> fn;
};

// Best-of-`reps` wall time of fn(), after one warm-up call. Best-of (not
// mean) because on a shared box the minimum is the least noisy estimate of
// the kernel's actual cost.
double BestSeconds(const std::function<void()>& fn, int reps) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int RunThreadSweep() {
  bench::SetDefaultManifestPath("BENCH_kernels.json");
  bench::PrintBanner("BENCH_kernels",
                     "kernel GFLOP/s vs vgod::par thread count "
                     "(docs/PARALLELISM.md)");
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal(512, 512, 0, 1, &rng);
  const Tensor b = Tensor::RandomNormal(512, 512, 0, 1, &rng);
  const Tensor z = Tensor::RandomNormal(2048, 64, 0, 1, &rng);
  const Tensor x = Tensor::RandomNormal(4096, 256, 0, 1, &rng);
  const Tensor y = Tensor::RandomNormal(4096, 256, 0, 1, &rng);
  // ~50k directed edges at avg_degree 8: the SpMM regime of the paper's
  // mid-size datasets.
  const AttributedGraph g = BenchGraph(6250);
  const Tensor h =
      Tensor::RandomNormal(g.num_nodes(), 64, 0, 1, &rng);
  const std::vector<float> w = graph_ops::GcnNormWeights(g);
  const double edge_flops =
      static_cast<double>(g.num_directed_edges()) * 64;

  const std::vector<SweepOp> ops = {
      {"matmul_512", 2.0 * 512 * 512 * 512,
       [&] { benchmark::DoNotOptimize(kernels::MatMul(a, b)); }},
      {"matmul_nt_zzt_2048x64", 2.0 * 2048 * 2048 * 64,
       [&] { benchmark::DoNotOptimize(kernels::MatMulNT(z, z)); }},
      {"matmul_tn_2048x64", 2.0 * 64 * 64 * 2048,
       [&] { benchmark::DoNotOptimize(kernels::MatMulTN(z, z)); }},
      {"relu_4096x256", 4096.0 * 256,
       [&] { benchmark::DoNotOptimize(kernels::Relu(x)); }},
      {"row_norms_4096x256", 2.0 * 4096 * 256,
       [&] { benchmark::DoNotOptimize(kernels::RowNorms(x)); }},
      {"row_sq_dist_4096x256", 3.0 * 4096 * 256,
       [&] { benchmark::DoNotOptimize(kernels::RowSquaredDistance(x, y)); }},
      {"spmm_50k_edges_d64", 2.0 * edge_flops,
       [&] { benchmark::DoNotOptimize(graph_ops::Spmm(g, w, h)); }},
      {"neighbor_variance_50k_edges_d64", 3.0 * edge_flops,
       [&] {
         benchmark::DoNotOptimize(graph_ops::NeighborVarianceScore(g, h));
       }},
  };

  const int kThreads[] = {1, 2, 4, 8};
  std::printf("%-34s %8s %12s %12s\n", "op", "threads", "GFLOP/s",
              "speedup");
  for (const SweepOp& op : ops) {
    double base_seconds = 0.0;
    for (int threads : kThreads) {
      par::SetNumThreads(threads);
      const double seconds = BestSeconds(op.fn, 3);
      if (threads == 1) base_seconds = seconds;
      const double gflops = op.flops / seconds * 1e-9;
      const double speedup = base_seconds / seconds;
      std::printf("%-34s %8d %12.3f %12.2fx\n", op.name.c_str(), threads,
                  gflops, speedup);
      std::string tag = "t";
      tag += std::to_string(threads);
      bench::RecordManifestResult(op.name, tag, "gflops", gflops);
      bench::RecordManifestResult(op.name, tag, "speedup_vs_1", speedup);
    }
  }
  // Back to the VGOD_NUM_THREADS / hardware default.
  par::SetNumThreads(par::DefaultNumThreads());
  bench::WriteManifest();
  return 0;
}

}  // namespace vgod

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) {
      return vgod::RunThreadSweep();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
