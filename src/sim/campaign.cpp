#include "sim/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "util/checkpoint.h"
#include "util/fault_injection.h"
#include "util/fingerprint.h"

namespace solarnet::sim {

namespace {

constexpr char kMagic[4] = {'S', 'N', 'C', 'P'};
constexpr std::uint32_t kVersion = 1;

util::Error mismatch(const std::string& what, const std::string& path) {
  return util::Error(util::ErrorCode::kMismatch,
                     "checkpoint does not match this campaign: " + what,
                     {path});
}

}  // namespace

void CampaignRunner::add_observer(CheckpointableObserver& observer) {
  observers_.push_back(&observer);
  pipeline_.add_observer(observer);
}

std::uint64_t CampaignRunner::fingerprint(const CampaignOptions& options,
                                          std::size_t chunks) const {
  util::Fingerprint fp(0x534e4350ULL);  // "SNCP"
  fp.fold(options.trials);
  fp.fold(options.seed);
  fp.fold(kTrialChunk);
  fp.fold(chunks);
  fp.fold(pipeline_.network().cable_count());
  fp.fold(pipeline_.network().connected_node_count());
  // The draw law: network, spacing and model all enter through the
  // per-cable death probabilities, and the rule decides how they are drawn.
  const TrialConfig& config = pipeline_.simulator().config();
  fp.fold(static_cast<std::uint64_t>(config.rule));
  fp.fold_double(config.death_fraction);
  for (const double p : pipeline_.death_table().probability) {
    fp.fold_double(p);
  }
  for (const CheckpointableObserver* observer : observers_) {
    fp.fold_bytes(observer->checkpoint_id());
  }
  return fp.value();
}

std::string CampaignRunner::serialize(const CampaignOptions& options,
                                      std::size_t chunks,
                                      std::size_t completed) const {
  util::ByteWriter payload;
  payload.u64(fingerprint(options, chunks));
  payload.u64(options.trials);
  payload.u64(options.seed);
  payload.u32(static_cast<std::uint32_t>(kTrialChunk));
  payload.u64(chunks);
  payload.u32(static_cast<std::uint32_t>(observers_.size()));
  for (const CheckpointableObserver* observer : observers_) {
    payload.str(observer->checkpoint_id());
  }
  payload.u64(completed);
  for (std::size_t chunk = 0; chunk < completed; ++chunk) {
    for (const CheckpointableObserver* observer : observers_) {
      util::ByteWriter blob;
      observer->save_chunk(chunk, blob);
      payload.str(blob.data());
    }
  }

  util::ByteWriter file;
  file.bytes(std::string_view(kMagic, 4));
  file.u32(kVersion);
  file.u64(payload.size());
  file.bytes(payload.data());
  file.u32(util::crc32(payload.data()));
  return file.take();
}

std::size_t CampaignRunner::load_checkpoint(const CampaignOptions& options,
                                            std::size_t chunks) const {
  const std::string& path = options.checkpoint_path;
  const std::string contents = util::read_file(path);
  util::ByteReader header(contents, {path});
  if (header.bytes(4) != std::string_view(kMagic, 4)) {
    throw util::Error(util::ErrorCode::kCorrupt,
                      "bad magic (not a solarnet checkpoint)", {path});
  }
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw util::Error(util::ErrorCode::kVersionMismatch,
                      "checkpoint version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kVersion) + ")",
                      {path});
  }
  const std::uint64_t payload_size = header.u64();
  if (header.remaining() != payload_size + 4) {
    throw util::Error(util::ErrorCode::kCorrupt,
                      "payload size " + std::to_string(payload_size) +
                          " does not match file size " +
                          std::to_string(contents.size()),
                      {path});
  }
  const std::string_view payload_bytes =
      header.bytes(static_cast<std::size_t>(payload_size));
  const std::uint32_t stored_crc = header.u32();
  const std::uint32_t actual_crc = util::crc32(payload_bytes);
  if (stored_crc != actual_crc) {
    throw util::Error(util::ErrorCode::kCorrupt,
                      "checksum mismatch (stored " +
                          std::to_string(stored_crc) + ", computed " +
                          std::to_string(actual_crc) + ")",
                      {path});
  }

  // Payload is CRC-clean: validate the campaign identity before touching
  // any observer state.
  util::ByteReader in(payload_bytes, {path});
  if (in.u64() != fingerprint(options, chunks)) {
    throw mismatch("configuration fingerprint differs", path);
  }
  if (in.u64() != options.trials) throw mismatch("trial count differs", path);
  if (in.u64() != options.seed) throw mismatch("seed differs", path);
  if (in.u32() != kTrialChunk) {
    throw mismatch("chunk size differs", path);
  }
  if (in.u64() != chunks) throw mismatch("chunk count differs", path);
  const std::uint32_t observer_count = in.u32();
  if (observer_count != observers_.size()) {
    throw mismatch("observer count differs", path);
  }
  for (const CheckpointableObserver* observer : observers_) {
    const std::string id = in.str();
    if (id != observer->checkpoint_id()) {
      throw mismatch("observer '" + id + "' vs '" +
                         observer->checkpoint_id() + "'",
                     path);
    }
  }
  const std::uint64_t completed = in.u64();
  if (completed > chunks) {
    throw util::Error(util::ErrorCode::kCorrupt,
                      "completed chunk count " + std::to_string(completed) +
                          " exceeds total " + std::to_string(chunks),
                      {path});
  }

  // Apply. The caller resets the observers on any throw from here on, so a
  // truncated blob section cannot leave half-restored state behind.
  for (std::size_t chunk = 0; chunk < completed; ++chunk) {
    for (CheckpointableObserver* observer : observers_) {
      const std::string blob = in.str();
      util::ByteReader blob_reader(blob, {path});
      observer->load_chunk(chunk, blob_reader);
      if (!blob_reader.at_end()) {
        throw util::Error(util::ErrorCode::kCorrupt,
                          "observer '" + observer->checkpoint_id() +
                              "' chunk " + std::to_string(chunk) +
                              ": trailing bytes in blob",
                          {path});
      }
    }
  }
  if (!in.at_end()) {
    throw util::Error(util::ErrorCode::kCorrupt,
                      "trailing bytes after blob section", {path});
  }
  return static_cast<std::size_t>(completed);
}

CampaignReport CampaignRunner::run(const CampaignOptions& options) {
  if (options.trials == 0) {
    throw std::invalid_argument("CampaignRunner: trials must be positive");
  }
  if (options.checkpoint_every_chunks == 0) {
    throw std::invalid_argument(
        "CampaignRunner: checkpoint_every_chunks must be positive");
  }
  if (options.threads > kMaxReasonableThreads) {
    throw std::invalid_argument(
        "CampaignRunner: threads must be <= " +
        std::to_string(kMaxReasonableThreads) + ", got " +
        std::to_string(options.threads));
  }
  if (observers_.empty()) {
    throw std::invalid_argument(
        "CampaignRunner: no observers registered (add_observer)");
  }

  const bool checkpointing = !options.checkpoint_path.empty();
  // One chunk per task: a task is the unit the kWorkerTask fault site and
  // a checkpoint segment count in.
  const ChunkedRun chunked(options.trials, options.threads);
  const std::size_t chunks = chunked.chunks();

  CampaignReport report;
  report.trials = options.trials;
  report.chunks = chunks;

  const auto begin_all = [&] {
    for (CheckpointableObserver* observer : observers_) {
      observer->begin_run(pipeline_, chunked.workers(), chunks);
    }
  };
  begin_all();

  std::size_t completed = 0;
  if (checkpointing && util::file_exists(options.checkpoint_path)) {
    try {
      completed = load_checkpoint(options, chunks);
      report.resumed = true;
      report.chunks_resumed = completed;
    } catch (const util::Error& e) {
      report.resume_status = e.status();
      // A throw mid-apply leaves observers partially restored: reset and
      // restart from nothing rather than resume from a wrong prefix.
      begin_all();
      completed = 0;
    }
  }

  util::FaultInjector::probe(util::FaultSite::kAllocation);
  const util::Rng base(options.seed);

  while (completed < chunks) {
    const std::size_t segment_end =
        checkpointing
            ? std::min(completed + options.checkpoint_every_chunks, chunks)
            : chunks;
    pipeline_.run_chunks(chunked, base, completed, segment_end);
    report.chunks_executed += segment_end - completed;
    completed = segment_end;

    if (checkpointing && completed < chunks) {
      const auto write_start = std::chrono::steady_clock::now();
      try {
        util::atomic_write_file(options.checkpoint_path,
                                serialize(options, chunks, completed));
        ++report.checkpoints_written;
      } catch (const util::Error& e) {
        // Correctness is unaffected — only crash protection degrades (a
        // kill now resumes from the previous checkpoint). Record the first
        // failure and keep computing.
        if (report.checkpoint_status.is_ok()) {
          report.checkpoint_status = e.status();
        }
      }
      const std::chrono::duration<double, std::milli> write_time =
          std::chrono::steady_clock::now() - write_start;
      report.checkpoint_ms += write_time.count();
    }
  }

  for (CheckpointableObserver* observer : observers_) {
    observer->end_run();
  }
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::remove(options.checkpoint_path, ec);
  }
  return report;
}

}  // namespace solarnet::sim
