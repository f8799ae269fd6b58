#ifndef TRMMA_NN_SCRATCH_H_
#define TRMMA_NN_SCRATCH_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace trmma {
namespace nn {

/// Per-thread bump allocator for the buffers of tape-free forwards. Its
/// memory is kept across calls, so a steady inference loop allocates
/// nothing (and no Matrix). Open a ScratchFrame around each use: closing it
/// hands back everything allocated since it was opened.
class Scratch {
 public:
  /// `n` doubles, all +0.0 (Gemm accumulates into its output).
  static double* Zeros(size_t n);
  /// `n` doubles, uninitialized.
  static double* Raw(size_t n);

 private:
  friend class ScratchFrame;
  struct Block {
    std::unique_ptr<double[]> data;
    size_t size = 0;
  };
  struct Arena {
    std::vector<Block> blocks;
    size_t block = 0;  ///< index of the block being filled
    size_t used = 0;   ///< doubles used in it
  };
  static Arena& ThreadArena();
};

/// Scope of scratch allocations; frames nest.
class ScratchFrame {
 public:
  ScratchFrame();
  ~ScratchFrame();
  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;

 private:
  size_t block_;
  size_t used_;
};

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_SCRATCH_H_
