#ifndef PDMS_STORE_SNAPSHOT_H_
#define PDMS_STORE_SNAPSHOT_H_

/// \file
/// Crash-consistent durable peer state (the src/store layer).
///
/// A sharded `pdms_node` checkpoints its inference state after each
/// round's mark barrier — a *consistent global cut*: every shard has
/// executed the same number of rounds, and all in-flight round traffic
/// sits in transport inboxes (captured alongside the engine image).
/// Restoring a snapshot therefore reproduces the exact delivery schedule
/// of the original run; the restarted shard skips discovery entirely and
/// resumes the round loop bitwise-identically.
///
/// On disk each shard owns two alternating slot files (double buffering):
/// a checkpoint of round r goes to slot r % 2, written write-new →
/// fsync → atomic rename, so a crash mid-write leaves the previous
/// round's snapshot intact. Loading validates magic, format version,
/// payload CRC and deployment epoch, and picks the highest-round valid
/// slot; torn, truncated or corrupt files are rejected with a `Status`
/// and the node falls back to the other slot or a cold start.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pdms_engine.h"
#include "pdms/transport.h"
#include "util/status.h"

namespace pdms {

/// Bumped whenever the serialized layout changes incompatibly; loaders
/// reject other versions rather than guessing.
///
/// v2: per-link `value_rank` (adaptive belief quantization tier) joins
/// the link image, so a restored shard resumes its precision trajectory
/// exactly where the crashed run left it.
///
/// v3: Byzantine-guard state joins the peer image — per-link misbehavior
/// scores, demotion levels and violation counters, the per-slot
/// admission histories, and the peer round clock — so demotion
/// trajectories replay identically after a restore.
///
/// v4: in-flight inbox and probe-cache payloads are stored in wire format
/// v5 (`EncodePayload`); a v3 file's v4 bundles would parse under the v5
/// token rules and could be misread without any error.
///
/// v5: peer images hold primary state only. Replicas carry their member
/// count; pool offsets, member owners, owned positions, belief routes,
/// variable slots, the replicas' foreign-owner lists and the receive-side
/// alias -> replica caches are no longer stored — restore re-derives them
/// from the replicas and validates what is stored
/// (`Peer::ValidateImage`). A v4 file lays those fields out where v5
/// expects others, so it is refused, and the shard cold-starts.
inline constexpr uint32_t kSnapshotFormatVersion = 5;

/// Deterministic fingerprint of the deployment a snapshot belongs to:
/// topology (nodes, every edge ever added, shard placement) plus the
/// engine options that influence inference results. All shards of one
/// deployment compute the same epoch; a snapshot from a different
/// topology or configuration must never be resumed, and a restarted
/// shard proves membership by echoing the epoch in its rejoin frame.
uint64_t ComputeStateEpoch(const Digraph& graph,
                           std::span<const uint32_t> shard_of,
                           uint32_t shard_count, const EngineOptions& options);

/// One shard's checkpoint at a consistent global cut.
struct NodeSnapshot {
  /// Deployment fingerprint (`ComputeStateEpoch`); checked on load.
  uint64_t state_epoch = 0;
  /// Rounds fully executed everywhere at the cut.
  uint64_t round = 0;
  /// Transport clock at the cut (deliver_at stamps depend on it).
  uint64_t tick = 0;
  /// Formerly a convergence patience counter; nodes converge on the
  /// first quiet round and always write 0. Kept so the format is stable.
  uint64_t quiet = 0;
  /// Global max posterior change of the last executed round.
  double previous_change = 1.0;
  /// Belief updates reported so far (resumes the convergence report).
  uint64_t report_updates = 0;
  /// Full inference state of every local peer plus topology liveness.
  PdmsEngine::EngineImage engine;
  /// In-flight round traffic captured from the transport inboxes,
  /// with per-sender sequence numbers so the deterministic
  /// `(deliver_at, from, seq)` drain order survives the restart.
  std::vector<CapturedFrame> inbox;
};

/// Serializes `snapshot` into the on-disk byte layout (header + CRC'd
/// payload). Deterministic: identical snapshots encode identically.
std::vector<uint8_t> EncodeSnapshot(const NodeSnapshot& snapshot);

/// Parses and fully validates an encoded snapshot. Rejects bad magic,
/// unknown format versions, truncated input, trailing garbage and
/// payload CRC mismatches with a descriptive `Status`.
Result<NodeSnapshot> DecodeSnapshot(std::span<const uint8_t> bytes);

/// Double-buffered on-disk checkpoint store for one shard.
///
/// Files live directly in `state_dir` as `shard-<k>-snap-<slot>.pdms`
/// with slot ∈ {0, 1}; `Save` writes `....tmp` first, fsyncs, renames
/// over the slot file and fsyncs the directory, so the store always
/// holds at least one intact snapshot once the first save completed.
/// Driver-thread only, like the node round loop that calls it.
class SnapshotStore {
 public:
  SnapshotStore(std::string state_dir, uint32_t shard);

  /// Durably writes `snapshot` into slot `snapshot.round % 2`.
  Status Save(const NodeSnapshot& snapshot) const;

  /// Loads the best available snapshot: tries both slots, drops any that
  /// fail validation or carry a different `state_epoch`, returns the one
  /// with the highest round. `NotFound` when neither slot is loadable —
  /// the caller cold-starts.
  Result<NodeSnapshot> Load(uint64_t state_epoch) const;

  /// Path of a slot file (slot ∈ {0, 1}); exposed for tests and tooling.
  std::string SlotPath(uint32_t slot) const;

 private:
  std::string state_dir_;
  uint32_t shard_ = 0;
};

}  // namespace pdms

#endif  // PDMS_STORE_SNAPSHOT_H_
