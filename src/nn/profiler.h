#ifndef TRMMA_NN_PROFILER_H_
#define TRMMA_NN_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace trmma {
namespace nn {

/// Aggregated cost of one autograd op type across all calls since the last
/// Reset(): forward wall time (measured inside the op constructor, which is
/// where the forward compute happens in this define-by-run tape), backward
/// wall time (measured around the node's backward closure), estimated
/// forward FLOPs, and matrix bytes allocated during forward + backward.
struct OpProfileEntry {
  std::string name;
  int64_t calls = 0;
  double forward_us = 0.0;
  double backward_us = 0.0;
  double flops = 0.0;
  int64_t bytes = 0;

  double total_us() const { return forward_us + backward_us; }
};

/// Per-op-type profiler for the autograd substrate, modeled on
/// torch.profiler's op tables. Off by default: when disabled, OpScope and
/// the tape hooks cost one relaxed atomic load + branch. Enable with the
/// TRMMA_OP_PROFILE environment variable or SetEnabled(true); benches
/// enable it around the region they want attributed. Recording takes a
/// mutex per op call, which is acceptable in profiling mode (the workloads
/// here are single-threaded training loops).
class OpProfiler {
 public:
  static OpProfiler& Global();

  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void RecordForward(const char* name, double us, double flops, int64_t bytes);
  void RecordBackward(const char* name, double us, int64_t bytes);

  /// Entries sorted by forward+backward time, descending.
  std::vector<OpProfileEntry> SortedEntries() const;

  /// Sum of forward+backward microseconds across all ops — the numerator of
  /// the profiler's coverage ratio against a wall-clock measurement.
  double TotalAccountedMicros() const;

  /// Human-readable table, one op per line, sorted by total time.
  std::string DumpString() const;

  /// JSON array for the run report's "op_profile" section.
  std::string ToJson() const;

  void Reset();

 private:
  OpProfiler() = default;

  struct Cell {
    int64_t calls = 0;
    double fwd_us = 0.0;
    double bwd_us = 0.0;
    double flops = 0.0;
    int64_t bytes = 0;
  };

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  /// Keyed by the op-name literal's address: every op site passes the same
  /// static string, so pointer identity is name identity and lookups never
  /// hash characters.
  std::map<const char*, Cell> cells_;
};

/// Name of the op whose OpScope is currently open on this thread (nullptr
/// outside any op). Tape::NewNode captures it so backward closures can be
/// attributed to the op that created them.
const char* CurrentProfiledOp();

/// RAII forward-pass bracket used by every op constructor in ops.cc. When
/// the profiler is disabled, construction and destruction are a relaxed
/// load + branch each. When enabled it times the scope, snapshots the
/// matrix allocation counter, and publishes the op name for tape capture.
class OpScope {
 public:
  explicit OpScope(const char* name);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Adds to the FLOP estimate recorded at scope exit (no-op when the
  /// profiler is disabled — name_ stays null so the destructor skips).
  void AddFlops(double flops) { flops_ += flops; }

 private:
  const char* name_ = nullptr;
  const char* prev_op_ = nullptr;
  double start_us_ = 0.0;
  int64_t start_bytes_ = 0;
  double flops_ = 0.0;
};

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_PROFILER_H_
