#include "obs/stack_walk.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace trmma {
namespace obs {
namespace {

/// Helper threads that register, park until released, then unregister —
/// live rendezvous targets for the capture tests.
class ParkedThreads {
 public:
  explicit ParkedThreads(int n, const char* name) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, name] {
        ScopedThreadRegistration reg(name);
        registered_.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return released_; });
      });
    }
    // Wait until every helper has registered.
    while (registered_.load() < n) std::this_thread::yield();
  }

  ~ParkedThreads() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::vector<std::thread> threads_;
  std::atomic<int> registered_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(StackWalkTest, CaptureCallerStackRespectsSupportGate) {
  void* frames[kStackMaxFrames];
  const int depth = CaptureCallerStack(frames, kStackMaxFrames);
  if (StackWalkSupported()) {
    // At minimum the immediate caller's frame must be walkable.
    EXPECT_GT(depth, 0);
    for (int i = 0; i < depth; ++i) EXPECT_NE(frames[i], nullptr);
  } else {
    EXPECT_EQ(depth, 0);
  }
}

TEST(StackWalkTest, SymbolizePcNeverReturnsEmpty) {
  // A real code address symbolizes to something; a garbage address falls
  // back to its hex rendering. Either way the result is non-empty and free
  // of folded-stack separators.
  void* frames[kStackMaxFrames];
  const int depth = CaptureCallerStack(frames, kStackMaxFrames);
  std::vector<void*> pcs = {reinterpret_cast<void*>(0x12345)};
  for (int i = 0; i < depth; ++i) pcs.push_back(frames[i]);
  for (void* pc : pcs) {
    const std::string symbol = SymbolizePc(pc);
    EXPECT_FALSE(symbol.empty());
    EXPECT_EQ(symbol.find(';'), std::string::npos);
    EXPECT_EQ(symbol.find('\n'), std::string::npos);
  }
}

TEST(StackWalkTest, RegistryTracksRegistrationLifecycle) {
  const int before = ThreadRegistry::Global().registered_count();
  {
    ScopedThreadRegistration reg("test.lifecycle");
    EXPECT_EQ(ThreadRegistry::Global().registered_count(), before + 1);
    // Re-registration renames in place instead of claiming a second slot.
    ThreadRegistry::Global().RegisterCurrentThread("test.renamed");
    EXPECT_EQ(ThreadRegistry::Global().registered_count(), before + 1);
  }
  EXPECT_EQ(ThreadRegistry::Global().registered_count(), before);
}

TEST(StackWalkTest, CaptureAllStacksReachesEveryRegisteredThread) {
  ScopedThreadRegistration reg("test.caller");
  ParkedThreads parked(3, "test.parked");

  ThreadStack stacks[ThreadRegistry::kMaxThreads];
  const int count = ThreadRegistry::Global().CaptureAllStacks(
      stacks, ThreadRegistry::kMaxThreads);
  // Caller + the three parked helpers (other suites' threads are gone).
  ASSERT_GE(count, 4);
  EXPECT_STREQ(stacks[0].name, "test.caller");  // entry 0 is the caller
  int parked_seen = 0;
  for (int i = 0; i < count; ++i) {
    EXPECT_GT(stacks[i].tid, 0);
    if (std::string(stacks[i].name) == "test.parked") ++parked_seen;
    if (StackWalkSupported() && i == 0) {
      // The caller's own synchronous walk must always produce frames.
      EXPECT_GT(stacks[i].depth, 0);
    }
  }
  EXPECT_EQ(parked_seen, 3);
}

TEST(StackWalkTest, CaptureThreadStackTargetsOneThread) {
  ScopedThreadRegistration reg("test.targeted");
  ThreadStack stack;
  // Self-capture works without a rendezvous.
  ASSERT_TRUE(ThreadRegistry::Global().CaptureThreadStack(CurrentThreadId(),
                                                          &stack));
  EXPECT_EQ(stack.tid, CurrentThreadId());
  if (StackWalkSupported()) {
    EXPECT_GT(stack.depth, 0);
  }
  // Unknown tids are reported as failures, not garbage.
  EXPECT_FALSE(ThreadRegistry::Global().CaptureThreadStack(1, &stack));
}

TEST(StackWalkTest, FormatThreadStacksRendersNamesAndFrames) {
  ScopedThreadRegistration reg("test.format");
  ThreadStack stacks[ThreadRegistry::kMaxThreads];
  const int count = ThreadRegistry::Global().CaptureAllStacks(
      stacks, ThreadRegistry::kMaxThreads);
  ASSERT_GE(count, 1);
  stacks[0].faulting = true;
  const std::string text = FormatThreadStacks(stacks, count);
  EXPECT_NE(text.find("thread "), std::string::npos);
  EXPECT_NE(text.find("test.format"), std::string::npos);
  EXPECT_NE(text.find("(faulting)"), std::string::npos);
  if (!StackWalkSupported()) {
    EXPECT_NE(text.find("<stack unavailable>"), std::string::npos);
  }
}

}  // namespace
}  // namespace obs
}  // namespace trmma
