#ifndef TRMMA_MM_MMA_H_
#define TRMMA_MM_MMA_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/spatial_index.h"
#include "mm/candidates.h"
#include "mm/map_matcher.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "traj/dataset.h"

namespace trmma {

/// Hyperparameters of MMA (paper §VI-A, scaled for CPU training; see
/// DESIGN.md §4). The two ablation switches implement TRMMA-C (no
/// candidate context in the point embedding) and TRMMA-DI (no directional
/// cosine features).
struct MmaConfig {
  int kc = 10;          ///< candidate set size (paper Fig. 2 analysis)
  int d0 = 32;          ///< segment embedding dim (Eq. 1)
  int d1 = 64;          ///< candidate MLP hidden dim (Eq. 2)
  int d2 = 32;          ///< candidate/point embedding dim
  int d3 = 64;          ///< attention MLP hidden dim (Eq. 7)
  int trans_layers = 2;
  int trans_heads = 2;
  int trans_ffn = 64;
  double lr = 1e-3;
  int batch_size = 16;  ///< trajectories per optimizer step
  uint64_t seed = 11;
  bool use_candidate_context = true;  ///< off = TRMMA-C ablation
  bool use_directional = true;        ///< off = TRMMA-DI ablation
};

/// MMA (paper §IV): maps each GPS point of a sparse trajectory to a road
/// segment by classification over its top-k_c candidate set, using a
/// transformer point encoder, Node2Vec-initialized candidate embeddings
/// with directional features, and attention fusion (Algorithm 1).
class MmaMatcher : public MapMatcher, public nn::Module {
 public:
  MmaMatcher(const RoadNetwork& network, const SegmentRTree& index,
             const MmaConfig& config);

  /// Initializes the candidate embedding table W^C from pre-trained
  /// Node2Vec vectors W_G (paper Eq. 1). Shape: num_segments x d0.
  void LoadPretrainedSegmentEmbeddings(const nn::Matrix& table);

  /// Runs one training epoch (binary cross entropy, Eq. 10) over the
  /// dataset's training split; returns the average per-point loss.
  double TrainEpoch(const Dataset& dataset, Rng& rng);

  std::vector<SegmentId> MatchPoints(const Trajectory& traj) override;

  /// MatchPoints plus per-point probabilities P(c|p_i) of the chosen
  /// candidates (Eq. 9). Runs the tape-free pass (InferLogits); safe to
  /// call from several threads at once.
  std::vector<SegmentId> MatchPointsWithScores(const Trajectory& traj,
                                               std::vector<double>* scores);

  /// MatchPointsWithScores with the logits taken from the training forward
  /// on the autograd tape (ForwardLogits). The decisions and scores are the
  /// same bit for bit; kept as the reference for differential tests.
  std::vector<SegmentId> MatchPointsReference(const Trajectory& traj,
                                              std::vector<double>* scores);

  /// Logits (Eq. 9, pre-sigmoid) of every candidate of the given columns,
  /// flat, point by point in candidate order. Empty columns borrow a
  /// neighbor's as in MatchPoints; the result is empty when all are.
  /// `on_tape` picks the training forward instead of the tape-free pass;
  /// the two agree bit for bit. Exposed for differential tests.
  std::vector<double> CandidateLogits(
      const Trajectory& traj, std::vector<std::vector<Candidate>> candidates,
      bool on_tape);

  std::string name() const override { return "MMA"; }

  const MmaConfig& config() const { return config_; }

  /// Persists / restores all trainable parameters. The loading matcher
  /// must be constructed with the same config and network.
  Status Save(const std::string& path);
  Status Load(const std::string& path);

 private:
  /// Builds the graph for one trajectory; returns per-point candidate
  /// logits (each kc_i x 1). `candidates` must come from ComputeCandidates.
  std::vector<nn::Tensor> ForwardLogits(
      nn::Tape& tape, const Trajectory& traj,
      const std::vector<std::vector<Candidate>>& candidates);

  /// The same logits from one tape-free pass over const weights, flat:
  /// point i's candidates fill rows [first_i, first_i + kc_i) in candidate
  /// order. Every MLP layer runs once over all rows (DESIGN.md §15).
  void InferLogits(const Trajectory& traj,
                   const std::vector<std::vector<Candidate>>& candidates,
                   std::vector<double>* logits) const;

  /// Flat logits of non-empty candidate columns from either forward.
  std::vector<double> Logits(
      const Trajectory& traj,
      const std::vector<std::vector<Candidate>>& candidates, bool on_tape);

  std::vector<SegmentId> Match(const Trajectory& traj,
                               std::vector<double>* scores, bool on_tape);

  const RoadNetwork& network_;
  const SegmentRTree& index_;
  MmaConfig config_;
  Rng init_rng_;

  nn::Embedding seg_emb_;       ///< W^C (Eq. 1)
  nn::Mlp cand_mlp_;            ///< Eq. 2
  nn::Linear point_fc_;         ///< z0 -> z1
  nn::TransformerEncoder point_trans_;  ///< Eq. 3
  nn::Mlp attn_mlp_;            ///< Eq. 7
  std::unique_ptr<nn::Adam> optimizer_;
  int64_t epochs_trained_ = 0;  ///< epoch index reported in train telemetry
};

}  // namespace trmma

#endif  // TRMMA_MM_MMA_H_
