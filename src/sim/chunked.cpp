#include "sim/chunked.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/parallel.h"
#include "util/status.h"

namespace solarnet::sim {

ChunkedRun::ChunkedRun(std::size_t trials, std::size_t threads,
                       std::size_t chunks_per_task)
    : trials_(trials),
      chunks_(chunk_count(trials)),
      per_task_(chunks_per_task) {
  if (per_task_ == 0) {
    throw std::invalid_argument("ChunkedRun: chunks_per_task must be >= 1");
  }
  const std::size_t tasks = (chunks_ + per_task_ - 1) / per_task_;
  workers_ = std::min(util::resolve_thread_count(threads), tasks);
}

void ChunkedRun::run(std::size_t chunk_begin, std::size_t chunk_end,
                     const std::function<void(const ChunkTask&)>& fn) const {
  if (chunk_begin > chunk_end || chunk_end > chunks_) {
    throw std::out_of_range("ChunkedRun::run: chunk range");
  }
  const std::size_t chunks = chunk_end - chunk_begin;
  const std::size_t tasks = (chunks + per_task_ - 1) / per_task_;
  util::parallel_for(tasks, workers_, [&](std::size_t task, std::size_t w) {
    ChunkTask t;
    t.first_chunk = chunk_begin + task * per_task_;
    const std::size_t last = std::min(t.first_chunk + per_task_, chunk_end);
    t.begin = t.first_chunk * kTrialChunk;
    t.end = std::min(last * kTrialChunk, trials_);
    t.worker = w;
    fn(t);
  });
}

void check_chunk_slot(const char* owner, const char* operation,
                      std::size_t chunk, std::size_t chunks) {
  if (chunk < chunks) return;
  throw util::Error(util::ErrorCode::kInvalidArgument,
                    std::string(owner) + "::" + operation + ": chunk " +
                        std::to_string(chunk) + " has no accumulator slot (" +
                        std::to_string(chunks) + " allocated); " + operation +
                        " is only valid between begin_run() and end_run(), "
                        "for chunks of the current run");
}

}  // namespace solarnet::sim
