#ifndef TRMMA_NODE2VEC_NODE2VEC_H_
#define TRMMA_NODE2VEC_NODE2VEC_H_

#include "common/random.h"
#include "graph/road_network.h"
#include "nn/matrix.h"

namespace trmma {

/// Node2Vec hyperparameters (Grover & Leskovec [43]). The walk graph is
/// the segment line-graph: two segments are neighbors when one can follow
/// the other on a route (in either direction), which captures road-network
/// connectivity for the pre-trained table W_G of paper Eq. 1.
struct Node2VecConfig {
  int dim = 32;
  int walks_per_node = 6;
  int walk_length = 16;
  int window = 4;
  int negatives = 4;
  double p = 1.0;  ///< return parameter
  double q = 2.0;  ///< in-out parameter (>1 keeps walks local)
  int epochs = 2;
  double lr = 0.025;
};

/// Trains Node2Vec embeddings for every road segment; returns an
/// (num_segments x dim) matrix, one row per segment id.
nn::Matrix TrainNode2Vec(const RoadNetwork& network,
                         const Node2VecConfig& config, Rng& rng);

namespace node2vec_internal {

/// The two implementations behind TrainNode2Vec, which takes the AVX2 one
/// when nn::kernel_internal::HasAvx2(); exposed so tests can hold each to
/// the same bits on any x86-64 host.
nn::Matrix TrainNode2VecPortable(const RoadNetwork& network,
                                 const Node2VecConfig& config, Rng& rng);
/// Requires nn::kernel_internal::HasAvx2().
nn::Matrix TrainNode2VecAvx2(const RoadNetwork& network,
                             const Node2VecConfig& config, Rng& rng);

}  // namespace node2vec_internal
}  // namespace trmma

#endif  // TRMMA_NODE2VEC_NODE2VEC_H_
