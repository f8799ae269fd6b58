#include "node2vec/node2vec.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/kernel.h"
#include "obs/train_log.h"

// This file is compiled with -ffp-contract=off (src/CMakeLists.txt): no
// multiply-add of the skip-gram step may become an FMA, whatever the
// target, so the vector and scalar paths give the same bits (DESIGN.md §17).

namespace trmma {
namespace {

/// Four doubles in one GNU vector, as in nn/kernel.cc: a 256-bit register
/// on the AVX2 path, register pairs on the portable one. Unaligned, so it
/// can load and store any run of four doubles in a row.
typedef double V4u __attribute__((vector_size(32), aligned(8), may_alias));

#define TRMMA_INLINE inline __attribute__((always_inline))

double SigmoidScalar(double x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Most dot products one loop advances together: the default config's
/// positive target and its four negatives. A pair with more targets takes
/// them one at a time.
constexpr int kMaxChains = 5;

/// dots[t] = sum over j of v[j] * rows[t][j] for t < kChains: each sum
/// starts from +0 and runs over j in increasing order, as one chain; the
/// chains are independent, so they advance together in one loop.
template <int kChains>
TRMMA_INLINE void DotChains(const double* v, double* const* rows, int d,
                            double* dots) {
  double acc[kChains];
#pragma GCC unroll 8
  for (int t = 0; t < kChains; ++t) acc[t] = 0.0;
  for (int j = 0; j < d; ++j) {
    const double vj = v[j];
#pragma GCC unroll 8
    for (int t = 0; t < kChains; ++t) acc[t] += vj * rows[t][j];
  }
#pragma GCC unroll 8
  for (int t = 0; t < kChains; ++t) dots[t] = acc[t];
}

/// DotChains over `count` <= kMaxChains rows.
TRMMA_INLINE void Dots(const double* v, double* const* rows, int count, int d,
                       double* dots) {
  switch (count) {
    case 5: DotChains<5>(v, rows, d, dots); break;
    case 4: DotChains<4>(v, rows, d, dots); break;
    case 3: DotChains<3>(v, rows, d, dots); break;
    case 2: DotChains<2>(v, rows, d, dots); break;
    default: DotChains<1>(v, rows, d, dots); break;
  }
}

/// One target's update: g += err * u, then u -= lr_err * v, element by
/// element (the gradient reads u before its update).
TRMMA_INLINE void UpdateTarget(double* g, double* u, const double* v,
                               double err, double lr_err, int d) {
  int j = 0;
  for (; j + 4 <= d; j += 4) {
    const V4u uj = *reinterpret_cast<const V4u*>(u + j);
    *reinterpret_cast<V4u*>(g + j) += err * uj;
    *reinterpret_cast<V4u*>(u + j) =
        uj - lr_err * *reinterpret_cast<const V4u*>(v + j);
  }
  for (; j < d; ++j) {
    g[j] += err * u[j];
    u[j] -= lr_err * v[j];
  }
}

/// v -= lr * g, element by element.
TRMMA_INLINE void UpdateCenter(double* v, const double* g, double lr, int d) {
  int j = 0;
  for (; j + 4 <= d; j += 4) {
    *reinterpret_cast<V4u*>(v + j) -=
        lr * *reinterpret_cast<const V4u*>(g + j);
  }
  for (; j < d; ++j) v[j] -= lr * g[j];
}

/// The skip-gram step of one (center, context) pair, once its negatives are
/// drawn. `v` is the center row; `rows[0]` is the context segment's context
/// row and `rows[1..count)` are the kept negatives' rows in draw order.
/// When no row repeats (`distinct`) and there are at most kMaxChains rows,
/// all `count` dot products are taken up front: `v` does not change until
/// the pair ends, and each row changes only after its own dot. A repeated
/// row must be read after its earlier update, so otherwise each dot is taken
/// just before its own update, as a loop over one target at a time does.
/// `grad` and `dots` hold d and count doubles; the loss terms are added to
/// `*loss` in target order when `loss` is non-null.
TRMMA_INLINE void PairBody(double* v, double* const* rows, int count,
                           bool distinct, int d, double lr, double* grad,
                           double* dots, double* loss) {
  std::fill(grad, grad + d, 0.0);
  const bool together = distinct && count <= kMaxChains;
  if (together) Dots(v, rows, count, d, dots);
  for (int t = 0; t < count; ++t) {
    if (!together) DotChains<1>(v, rows + t, d, dots + t);
    const double label = t == 0 ? 1.0 : 0.0;
    const double sig = SigmoidScalar(dots[t]);
    const double err = sig - label;
    if (loss != nullptr) {
      const double p = label > 0.5 ? sig : 1.0 - sig;
      *loss += -std::log(std::max(p, 1e-12));
    }
    UpdateTarget(grad, rows[t], v, err, lr * err, d);
  }
  UpdateCenter(v, grad, lr, d);
}

using PairStepFn = void (*)(double* v, double* const* rows, int count,
                            bool distinct, int d, double lr, double* grad,
                            double* dots, double* loss);

void PairStepPortable(double* v, double* const* rows, int count,
                      bool distinct, int d, double lr, double* grad,
                      double* dots, double* loss) {
  PairBody(v, rows, count, distinct, d, lr, grad, dots, loss);
}

#if defined(__x86_64__)
/// The same body with 256-bit vectors, which trains faster than the
/// portable entry point (DESIGN.md §17.5); target("avx2") does not enable
/// FMA.
__attribute__((target("avx2"))) void PairStepAvx2(
    double* v, double* const* rows, int count, bool distinct, int d,
    double lr, double* grad, double* dots, double* loss) {
  PairBody(v, rows, count, distinct, d, lr, grad, dots, loss);
}
#endif

/// Line-graph adjacency: segments reachable one hop before or after `e`.
std::vector<std::vector<int>> BuildLineGraph(const RoadNetwork& g) {
  std::vector<std::vector<int>> nbrs(g.num_segments());
  for (SegmentId e = 0; e < g.num_segments(); ++e) {
    for (SegmentId s : g.OutSegments(g.segment(e).to)) {
      if (s != e) nbrs[e].push_back(s);
    }
    for (SegmentId s : g.InSegments(g.segment(e).from)) {
      if (s != e) nbrs[e].push_back(s);
    }
    std::sort(nbrs[e].begin(), nbrs[e].end());
    nbrs[e].erase(std::unique(nbrs[e].begin(), nbrs[e].end()), nbrs[e].end());
  }
  return nbrs;
}

bool Contains(const std::vector<int>& sorted, int x) {
  return std::binary_search(sorted.begin(), sorted.end(), x);
}

/// TrainNode2Vec with each pair's skip-gram step run by `pair_step`.
nn::Matrix Train(const RoadNetwork& network, const Node2VecConfig& config,
                 Rng& rng, PairStepFn pair_step) {
  const int n = network.num_segments();
  const int d = config.dim;
  const auto nbrs = BuildLineGraph(network);

  // Two tables: center ("in") and context ("out") vectors, word2vec-style.
  nn::Matrix center(n, d);
  nn::Matrix context(n, d);
  const double init = 0.5 / d;
  for (int i = 0; i < center.size(); ++i) {
    center.data()[i] = rng.Uniform(-init, init);
  }

  // One biased random walk starting at `start` (2nd-order p/q bias).
  std::vector<int> walk;
  std::vector<double> weights;
  auto random_walk = [&](int start) {
    walk.clear();
    walk.push_back(start);
    while (static_cast<int>(walk.size()) < config.walk_length) {
      const int cur = walk.back();
      const auto& cands = nbrs[cur];
      if (cands.empty()) break;
      if (walk.size() == 1) {
        walk.push_back(cands[rng.UniformInt(cands.size())]);
        continue;
      }
      const int prev = walk[walk.size() - 2];
      weights.resize(cands.size());
      for (size_t i = 0; i < cands.size(); ++i) {
        const int x = cands[i];
        if (x == prev) {
          weights[i] = 1.0 / config.p;
        } else if (Contains(nbrs[prev], x)) {
          weights[i] = 1.0;
        } else {
          weights[i] = 1.0 / config.q;
        }
      }
      walk.push_back(cands[rng.Categorical(weights)]);
    }
  };

  // Skip-gram with negative sampling over all walks. Loss bookkeeping is
  // gated on telemetry being on: the log() per pair is measurable at this
  // loop's grain.
  const bool log_training = obs::TrainLogger::Global().Enabled();
  double epoch_loss = 0.0;
  int64_t epoch_pairs = 0;
  std::vector<int> targets(config.negatives + 1);
  std::vector<double*> rows(config.negatives + 1);
  std::vector<double> dots(config.negatives + 1);
  std::vector<double> grad_center(d);
  auto train_pair = [&](int c, int o, double lr) {
    // The context segment is the positive target; the negatives are drawn
    // first, by the same Rng calls in the same order as when each was drawn
    // just before its own update, and one equal to `o` is skipped.
    int count = 0;
    targets[count++] = o;
    for (int k = 1; k <= config.negatives; ++k) {
      const int target = static_cast<int>(rng.UniformInt(n));
      if (target != o) targets[count++] = target;
    }
    bool distinct = true;
    for (int a = 2; a < count; ++a) {
      for (int b = 1; b < a; ++b) {
        if (targets[a] == targets[b]) distinct = false;
      }
    }
    for (int t = 0; t < count; ++t) rows[t] = context.row(targets[t]);
    pair_step(center.row(c), rows.data(), count, distinct, d, lr,
              grad_center.data(), dots.data(),
              log_training ? &epoch_loss : nullptr);
    ++epoch_pairs;
  };

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  const int64_t total_steps = static_cast<int64_t>(config.epochs) *
                              config.walks_per_node * n;
  int64_t step = 0;
  Stopwatch epoch_watch;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    epoch_loss = 0.0;
    epoch_pairs = 0;
    for (int w = 0; w < config.walks_per_node; ++w) {
      rng.Shuffle(order);
      for (int start : order) {
        const double progress = static_cast<double>(step++) / total_steps;
        const double lr = config.lr * std::max(1.0 - progress, 0.05);
        random_walk(start);
        const int len = static_cast<int>(walk.size());
        for (int i = 0; i < len; ++i) {
          const int lo = std::max(0, i - config.window);
          const int hi = std::min(len - 1, i + config.window);
          for (int j = lo; j <= hi; ++j) {
            if (j != i) train_pair(walk[i], walk[j], lr);
          }
        }
        // `step` counts walks; ensure the loop above ran at least once per
        // node even for isolated segments (walk of length 1 trains nothing,
        // leaving the random init, which is acceptable for dead ends).
      }
    }
    if (log_training) {
      // SGD without an optimizer object: one telemetry row per epoch, with
      // the fields an Adam step would fill left at zero.
      const double seconds = epoch_watch.LapMillis() / 1e3;
      obs::TrainStepRow row;
      row.model = "node2vec";
      row.step = epoch + 1;
      row.epoch = epoch;
      row.loss = epoch_pairs > 0
                     ? epoch_loss / static_cast<double>(epoch_pairs)
                     : 0.0;
      row.examples = epoch_pairs;
      row.examples_per_sec =
          seconds > 0.0 ? static_cast<double>(epoch_pairs) / seconds : 0.0;
      obs::TrainLogger::Global().LogStep(row);
    }
  }
  return center;
}

}  // namespace

namespace node2vec_internal {

nn::Matrix TrainNode2VecPortable(const RoadNetwork& network,
                                 const Node2VecConfig& config, Rng& rng) {
  return Train(network, config, rng, PairStepPortable);
}

nn::Matrix TrainNode2VecAvx2(const RoadNetwork& network,
                             const Node2VecConfig& config, Rng& rng) {
#if defined(__x86_64__)
  return Train(network, config, rng, PairStepAvx2);
#else
  return Train(network, config, rng, PairStepPortable);
#endif
}

}  // namespace node2vec_internal

nn::Matrix TrainNode2Vec(const RoadNetwork& network,
                         const Node2VecConfig& config, Rng& rng) {
  // The kernel's CPU dispatch picks the vector width (nn/kernel.h).
  return nn::kernel_internal::HasAvx2()
             ? node2vec_internal::TrainNode2VecAvx2(network, config, rng)
             : node2vec_internal::TrainNode2VecPortable(network, config, rng);
}

}  // namespace trmma
