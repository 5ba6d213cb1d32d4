#include "util/status.h"

namespace solarnet::util {

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kInvalidArgument:
      return "invalid argument";
    case ErrorCode::kParseError:
      return "parse error";
    case ErrorCode::kInvalidData:
      return "invalid data";
    case ErrorCode::kIoError:
      return "i/o error";
    case ErrorCode::kCorrupt:
      return "corrupt data";
    case ErrorCode::kVersionMismatch:
      return "version mismatch";
    case ErrorCode::kMismatch:
      return "configuration mismatch";
    case ErrorCode::kFaultInjected:
      return "injected fault";
    case ErrorCode::kAborted:
      return "aborted";
  }
  return "unknown";
}

std::string SourceContext::to_string() const {
  std::string out;
  if (!file.empty()) out += file;
  if (line > 0) {
    if (!out.empty()) out += ':';
    out += std::to_string(line);
  }
  if (!field.empty()) {
    if (!out.empty()) out += ", ";
    out += "field '" + field + "'";
  }
  return out;
}

Status::Status(ErrorCode code, std::string message, SourceContext context)
    : code_(code), message_(std::move(message)), context_(std::move(context)) {}

std::string Status::to_string() const {
  if (is_ok()) return "ok";
  std::string out = util::to_string(code_);
  out += ": ";
  out += message_;
  if (!context_.empty()) {
    out += " [at ";
    out += context_.to_string();
    out += ']';
  }
  return out;
}

Error::Error(ErrorCode code, const std::string& message, SourceContext context)
    : Error(Status(code, message, std::move(context))) {}

Error::Error(Status status)
    : std::runtime_error(status.to_string()), status_(std::move(status)) {}

}  // namespace solarnet::util
