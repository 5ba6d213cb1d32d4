// Structured error reporting for solarnet.
//
// The library's error-handling contract (docs/MODULES.md, "Robustness"):
//   * programmer/API misuse (bad argument values, protocol violations)
//     throws std::invalid_argument / std::out_of_range, as the standard
//     library would;
//   * problems with *external inputs* — dataset files, CSV rows,
//     checkpoint files — throw util::Error (or return util::Status on the
//     non-throwing probes), which carries an ErrorCode plus a SourceContext
//     pinpointing the offending file, 1-based line, and field, so a failed
//     overnight campaign tells the operator exactly which row of which
//     export to fix;
//   * injected faults (util::FaultInjector) surface as
//     ErrorCode::kFaultInjected so tests can tell a scheduled fault from a
//     real one.
// util::Error derives from std::runtime_error, so every existing
// catch (const std::exception&) boundary (e.g. the CLI's top-level catch)
// keeps working while gaining the structured payload.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace solarnet::util {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   // bad caller-supplied value detected up front
  kParseError,        // malformed text (CSV structure, numbers)
  kInvalidData,       // well-formed but semantically invalid input
  kIoError,           // open/read/write/rename failure
  kCorrupt,           // truncated file, bad magic, CRC mismatch
  kVersionMismatch,   // persisted format version unknown to this build
  kMismatch,          // checkpoint belongs to a different campaign config
  kFaultInjected,     // scheduled fault from util::FaultInjector
  kAborted,           // a parallel region stopped before finishing
};

const char* to_string(ErrorCode code) noexcept;

// Where in an *input* the problem lives. All members optional: an empty
// file means in-memory data, line 0 means unknown, an empty field means the
// whole record.
struct SourceContext {
  SourceContext() = default;
  SourceContext(std::string file, std::size_t line = 0,
                std::string field = {})
      : file(std::move(file)), line(line), field(std::move(field)) {}

  std::string file;
  std::size_t line = 0;  // 1-based source line
  std::string field;     // column / field name

  bool empty() const noexcept {
    return file.empty() && line == 0 && field.empty();
  }
  // "path:12, field 'lat'" — empty string when there is no context.
  std::string to_string() const;
};

// Value-type result of a validation/load probe. Default-constructed Status
// is OK; error statuses carry code + message + context. Lightweight enough
// to live inside reports (e.g. sim::CampaignReport records why a checkpoint
// was rejected without aborting the run).
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(ErrorCode code, std::string message, SourceContext context = {});

  static Status ok() { return Status(); }

  bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }
  const SourceContext& context() const noexcept { return context_; }

  // "parse error: malformed number '4x' [at nodes.csv:12, field 'lat']"
  std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  SourceContext context_;
};

// The throwable form of a non-OK Status. what() is Status::to_string(), so
// untyped catch sites still print the full context.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message, SourceContext context = {});
  explicit Error(Status status);

  ErrorCode code() const noexcept { return status_.code(); }
  const SourceContext& context() const noexcept { return status_.context(); }
  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

}  // namespace solarnet::util
