#include "nn/scratch.h"

#include <algorithm>

namespace trmma {
namespace nn {

Scratch::Arena& Scratch::ThreadArena() {
  thread_local Arena arena;
  return arena;
}

double* Scratch::Raw(size_t n) {
  Arena& a = ThreadArena();
  for (;;) {
    if (a.block == a.blocks.size()) {
      // A new block at least as large as all earlier ones together, so a
      // steady workload settles into a few blocks after its first calls.
      size_t total = 0;
      for (const Block& b : a.blocks) total += b.size;
      Block fresh;
      fresh.size = std::max({n, total, size_t{1} << 14});
      fresh.data.reset(new double[fresh.size]);
      a.blocks.push_back(std::move(fresh));
    }
    Block& b = a.blocks[a.block];
    if (a.used + n <= b.size) {
      double* p = b.data.get() + a.used;
      a.used += n;
      return p;
    }
    ++a.block;
    a.used = 0;
  }
}

double* Scratch::Zeros(size_t n) {
  double* p = Raw(n);
  std::fill(p, p + n, 0.0);
  return p;
}

ScratchFrame::ScratchFrame() {
  const Scratch::Arena& a = Scratch::ThreadArena();
  block_ = a.block;
  used_ = a.used;
}

ScratchFrame::~ScratchFrame() {
  Scratch::Arena& a = Scratch::ThreadArena();
  a.block = block_;
  a.used = used_;
}

}  // namespace nn
}  // namespace trmma
