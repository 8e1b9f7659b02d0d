#ifndef LOOM_COMMON_SNAPSHOT_H_
#define LOOM_COMMON_SNAPSHOT_H_

/// \file
/// `SnapshotBoard<T>`: single-writer, many-reader publication of immutable
/// snapshots — the generalisation of the PrimeTable pattern in primes.cc to
/// arbitrary payloads. A writer publishes a fully built, immutable `T`; any
/// number of concurrent readers obtain a consistent pointer with one atomic
/// acquire load and may hold it for as long as they like.
///
/// Memory policy (identical to the prime table): every published snapshot is
/// retained for the board's lifetime, so a reader that loaded a stale
/// pointer arbitrarily long ago still dereferences live memory. No hazard
/// pointers, no RCU grace periods, no reference counts on the read path —
/// the read side is a single `memory_order_acquire` load and is genuinely
/// lock-free and wait-free. The cost is that memory grows with every
/// publish by whatever each snapshot owns: a payload that shares unchanged
/// parts with its predecessors (like the copy-on-write `PlacementSnapshot`)
/// grows it by the size of each update, a self-contained one by its whole
/// size. Retention is also what makes such sharing safe: a predecessor
/// outlives every snapshot that points into it. Boards suit *coarse*
/// publication cadences (per ingest batch / per drift reaction), not
/// per-item updates.
///
/// Thread-safety: `Publish` may be called from multiple threads (writers
/// serialise on an internal mutex, which readers never touch); `Read`,
/// `Epoch` and `NumPublished` are safe from any thread. The payload `T`
/// must not be mutated after publication — readers access it without any
/// synchronisation beyond the acquire load.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace loom {

/// Atomic publication point for immutable snapshots of type `T`.
template <typename T>
class SnapshotBoard {
 public:
  SnapshotBoard() = default;

  SnapshotBoard(const SnapshotBoard&) = delete;
  SnapshotBoard& operator=(const SnapshotBoard&) = delete;

  /// Publishes `snapshot` as the new current snapshot and returns its epoch
  /// (1 for the first publish, monotonically increasing). The board takes
  /// ownership and retains the snapshot until destruction; the previous
  /// snapshot stays valid for readers that already hold it.
  uint64_t Publish(std::unique_ptr<const T> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    const T* raw = snapshot.get();
    retained_.push_back(std::move(snapshot));
    const uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
    // Release order: a reader that acquires `current_` (or `epoch_`) sees
    // the fully constructed snapshot contents.
    current_.store(raw, std::memory_order_release);
    epoch_.store(e, std::memory_order_release);
    return e;
  }

  /// The current snapshot, or nullptr before the first publish. The pointer
  /// stays valid for the board's lifetime; callers may cache it across
  /// arbitrarily many reads.
  const T* Read() const { return current_.load(std::memory_order_acquire); }

  /// Epoch of the latest publish (0 before the first). Note that a
  /// `Read()`/`Epoch()` pair is not atomic — callers that need the epoch of
  /// the snapshot they hold should store it inside `T`.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Snapshots published (and retained) so far.
  size_t NumPublished() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retained_.size();
  }

 private:
  std::atomic<const T*> current_{nullptr};
  std::atomic<uint64_t> epoch_{0};
  /// Writer-side state: guards `retained_` only; never touched by readers.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<const T>> retained_;
};

}  // namespace loom

#endif  // LOOM_COMMON_SNAPSHOT_H_
