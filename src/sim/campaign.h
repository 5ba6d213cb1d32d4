// Crash-safe Monte-Carlo campaigns: TrialPipeline runs with atomic
// checkpointing and bit-identical resume.
//
// A campaign is a pipeline run executed in *segments* of whole chunks,
// one TrialPipeline::run_chunks call each. After each segment the runner
// serializes every observer's per-chunk accumulator slots for the
// completed prefix [0, completed) into a versioned, CRC-guarded checkpoint
// file, written atomically (write-temp-then-rename, see
// util::atomic_write_file). A campaign killed
// at any instant — including mid-checkpoint — therefore leaves either no
// checkpoint, or a complete previous checkpoint; resuming re-runs only the
// chunks past the checkpointed prefix and merges, in end_run's ascending
// chunk order, to the *bit-identical* aggregates an uninterrupted run
// produces, for every thread count. This rides on the pipeline's
// determinism contract: trial t always draws from child stream t and chunk
// boundaries never depend on the thread count, so a chunk's accumulator
// slot has exactly one possible value regardless of when or where it runs.
//
// Checkpoint file format v1 (little-endian):
//   "SNCP"            4-byte magic
//   u32  version      = 1
//   u64  payload_size
//   payload           (see below)
//   u32  crc32(payload)
// payload:
//   u64  fingerprint  — SplitMix64 fold of trials, seed, chunk size and
//                       count, the network's cable/connected-node counts,
//                       the draw law (the cable death rule and fraction,
//                       and every per-cable death probability of the
//                       pipeline's table, bit-exact — so the model, its
//                       uniform p or storm field, the repeater spacing and
//                       the network all count) and every observer
//                       checkpoint_id (which carries the observer's own
//                       settings, e.g. a write quorum or DNS threshold),
//                       so a checkpoint is never applied to a different
//                       campaign configuration
//   u64  trials, u64 seed, u32 chunk_size, u64 chunks_total
//   u32  observer_count, then per observer: length-prefixed checkpoint_id
//   u64  completed_chunks
//   per chunk in [0, completed_chunks), per observer:
//     u32 blob_size + blob   (the observer's save_chunk output)
//
// Failure policy:
//   * unreadable / corrupt / mismatched checkpoint on load -> fresh restart
//     with the rejection recorded in CampaignReport::resume_status — never
//     a wrong-answer resume;
//   * checkpoint *write* failure mid-campaign -> the campaign keeps
//     running (only crash protection degrades, correctness does not); the
//     first failure is recorded in CampaignReport::checkpoint_status.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/pipeline.h"
#include "util/status.h"

namespace solarnet::sim {

struct CampaignOptions {
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  // Worker threads, resolved like TrialConfig::threads (0 = hardware
  // concurrency). The aggregates never depend on this.
  std::size_t threads = 0;
  // Empty = no checkpointing: the whole campaign runs as one segment.
  // Otherwise an existing checkpoint at this path is resumed, and the file
  // is removed once the campaign completes.
  std::string checkpoint_path;
  // Segment length: a checkpoint is written after every this-many chunks
  // (of kTrialChunk trials each).
  std::size_t checkpoint_every_chunks = 64;
};

struct CampaignReport {
  std::size_t trials = 0;
  std::size_t chunks = 0;
  // Chunks restored from the checkpoint vs executed this run.
  std::size_t chunks_resumed = 0;
  std::size_t chunks_executed = 0;
  std::size_t checkpoints_written = 0;
  // Time spent serializing and writing checkpoints, over all writes.
  double checkpoint_ms = 0.0;
  bool resumed = false;
  // Why resume did not happen (kOk when it did or was not attempted).
  util::Status resume_status;
  // First checkpoint-write failure (kOk when all writes succeeded).
  util::Status checkpoint_status;
};

// Wraps a TrialPipeline with checkpoint/resume. Observers register through
// the runner (which forwards them to the pipeline); only
// CheckpointableObservers are accepted, so every registered metric can be
// saved and restored. The pipeline and observers must outlive the runner.
class CampaignRunner {
 public:
  explicit CampaignRunner(TrialPipeline& pipeline) : pipeline_(pipeline) {}

  // Registers with this runner AND the underlying pipeline. All of a
  // campaign's observers must be added through the runner: an observer
  // registered directly on the pipeline would be silently absent from
  // checkpoints.
  void add_observer(CheckpointableObserver& observer);

  // Runs (or resumes) the campaign. Throws std::invalid_argument on bad
  // options and propagates worker exceptions (wrapped in
  // util::ParallelError on multi-worker runs).
  // Results live in the observers, exactly as after TrialPipeline::run.
  CampaignReport run(const CampaignOptions& options);

 private:
  std::uint64_t fingerprint(const CampaignOptions& options,
                            std::size_t chunks) const;
  std::string serialize(const CampaignOptions& options, std::size_t chunks,
                        std::size_t completed) const;
  // Parses + validates + applies a checkpoint; returns the completed-chunk
  // count. Throws util::Error on any problem; on a partial apply the
  // caller must reset the observers before running fresh.
  std::size_t load_checkpoint(const CampaignOptions& options,
                              std::size_t chunks) const;

  TrialPipeline& pipeline_;
  std::vector<CheckpointableObserver*> observers_;
};

}  // namespace solarnet::sim
