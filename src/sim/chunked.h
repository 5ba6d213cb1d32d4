// The chunked reduction every Monte-Carlo engine and observer shares.
//
// Every statistic solarnet reports is reduced over storm draws by one rule,
// implemented here and nowhere else:
//  - trial t always draws from child stream t of the run seed
//    (base.split(t));
//  - trials are grouped into fixed kTrialChunk-trial chunks whose
//    boundaries depend only on the trial count, never on the thread count;
//  - a chunk is processed by exactly one worker, its trials in ascending
//    order, into that chunk's own accumulator slots;
//  - the slots are merged in ascending chunk order.
// An aggregate reduced this way is bit-identical for every thread count and
// every worker-to-chunk assignment, and a chunk's slot has exactly one
// possible value — which is what lets sim::CampaignRunner checkpoint
// completed chunks and resume bit-identically.
//
// ChunkedRun is the loop: it hands whole chunks to util::parallel_for
// tasks (one chunk per task, or two for the 64-lane TrialBatchKernel) and
// gives each task a dense worker id for per-worker scratch. ChunkSlots is
// the store: `width` slots per chunk, merged in ascending chunk order,
// saved and loaded one chunk at a time behind check_chunk_slot.
//
// Writing an observer (sim::TrialObserver, sim::TimelineObserver):
//  1. Declare a Slot struct holding the per-chunk accumulators
//     (util::RunningStats or std::size_t counters) and list them once:
//       static constexpr auto kFields = std::tuple{&Slot::a, &Slot::b};
//     Merge, save and load are built from that list, in that order — the
//     order is the checkpoint wire format of a CheckpointableObserver.
//  2. Keep a ChunkSlots<Slot> member. begin_run() calls assign(chunks,
//     width) (width 1, or one slot per country / grid point / step);
//     observe() adds into at(chunk, i) only — a chunk has one worker, so
//     no locking is needed; per-worker scratch is sized by `workers`.
//  3. end_run() reads merged(i) for each i and then release()s the slots.
//  4. A CheckpointableObserver forwards save_chunk / load_chunk to save /
//     load, and names its wire format in checkpoint_id().
#pragma once

#include <cstddef>
#include <functional>
#include <tuple>
#include <vector>

#include "util/checkpoint.h"
#include "util/stats.h"

namespace solarnet::sim {

inline constexpr std::size_t kTrialChunk = 32;

constexpr std::size_t chunk_count(std::size_t trials) noexcept {
  return (trials + kTrialChunk - 1) / kTrialChunk;
}

// One task of a ChunkedRun: the whole chunks starting at first_chunk,
// i.e. trials [begin, end), run by `worker`. Trial t belongs to chunk
// t / kTrialChunk.
struct ChunkTask {
  std::size_t first_chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t worker = 0;
};

class ChunkedRun {
 public:
  // `trials` trials in chunk_count(trials) chunks, `chunks_per_task` whole
  // chunks per task, on `threads` workers (0 = hardware concurrency,
  // clamped to the task count).
  ChunkedRun(std::size_t trials, std::size_t threads,
             std::size_t chunks_per_task = 1);

  std::size_t chunks() const noexcept { return chunks_; }
  // Every ChunkTask::worker is below this; size per-worker scratch by it.
  std::size_t workers() const noexcept { return workers_; }

  // Runs fn once per task over chunks [chunk_begin, chunk_end) (all chunks
  // by default), through util::parallel_for: tasks run concurrently, the
  // trials of one task run in order on one worker. Exceptions follow
  // parallel_for's contract.
  void run(const std::function<void(const ChunkTask&)>& fn) const {
    run(0, chunks_, fn);
  }
  void run(std::size_t chunk_begin, std::size_t chunk_end,
           const std::function<void(const ChunkTask&)>& fn) const;

 private:
  std::size_t trials_;
  std::size_t chunks_;
  std::size_t per_task_;
  std::size_t workers_;
};

// Lifecycle guard for chunk checkpoints: throws a structured util::Error
// (kInvalidArgument) naming the owner, the operation and the violation
// when `chunk` has no accumulator slot — an out-of-range chunk index, or a
// save/load outside the begin_run()/end_run() window (end_run releases the
// slots).
void check_chunk_slot(const char* owner, const char* operation,
                      std::size_t chunk, std::size_t chunks);

namespace chunk_field {
inline void merge(util::RunningStats& into, const util::RunningStats& from) {
  into.merge(from);
}
inline void merge(std::size_t& into, std::size_t from) { into += from; }
inline void save(util::ByteWriter& out, const util::RunningStats& v) {
  util::write_stats(out, v);
}
inline void save(util::ByteWriter& out, std::size_t v) { out.u64(v); }
inline void load(util::ByteReader& in, util::RunningStats& v) {
  v = util::read_stats(in);
}
inline void load(util::ByteReader& in, std::size_t& v) { v = in.u64(); }
}  // namespace chunk_field

// Per-chunk accumulator slots of one observer or engine: `width` Slots per
// chunk, laid out chunk-major. The chunk count is stored, so a width-0
// store still has valid (empty) chunks to save and load.
template <typename Slot>
class ChunkSlots {
 public:
  // `owner` names the observer in guard errors; it must outlive the store.
  explicit ChunkSlots(const char* owner) : owner_(owner) {}

  // Fresh value-initialized slots: `width` for each of `chunks` chunks.
  void assign(std::size_t chunks, std::size_t width = 1) {
    chunks_ = chunks;
    width_ = width;
    slots_.assign(chunks * width, Slot{});
  }
  // Frees the slots; save and load fail the guard until the next assign.
  void release() {
    chunks_ = 0;
    slots_.clear();
    slots_.shrink_to_fit();
  }

  std::size_t chunks() const noexcept { return chunks_; }
  std::size_t width() const noexcept { return width_; }

  Slot& at(std::size_t chunk, std::size_t i = 0) {
    return slots_[chunk * width_ + i];
  }

  // Slot i (below width()) of every chunk, merged in ascending chunk order.
  Slot merged(std::size_t i = 0) const {
    Slot out{};
    for (std::size_t c = 0; c < chunks_; ++c) {
      const Slot& from = slots_[c * width_ + i];
      std::apply([&](auto... f) { (chunk_field::merge(out.*f, from.*f), ...); },
                 Slot::kFields);
    }
    return out;
  }

  // One chunk's `width` slots, each field in kFields order.
  void save(std::size_t chunk, util::ByteWriter& out) const {
    check_chunk_slot(owner_, "save_chunk", chunk, chunks_);
    for (std::size_t i = 0; i < width_; ++i) {
      const Slot& slot = slots_[chunk * width_ + i];
      std::apply([&](auto... f) { (chunk_field::save(out, slot.*f), ...); },
                 Slot::kFields);
    }
  }
  void load(std::size_t chunk, util::ByteReader& in) {
    check_chunk_slot(owner_, "load_chunk", chunk, chunks_);
    for (std::size_t i = 0; i < width_; ++i) {
      Slot& slot = slots_[chunk * width_ + i];
      std::apply([&](auto... f) { (chunk_field::load(in, slot.*f), ...); },
                 Slot::kFields);
    }
  }

 private:
  const char* owner_;
  std::size_t chunks_ = 0;
  std::size_t width_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace solarnet::sim
