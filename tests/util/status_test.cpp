#include "util/status.h"

#include <gtest/gtest.h>

#include <string>

namespace solarnet::util {
namespace {

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, CarriesCodeMessageContext) {
  const Status s(ErrorCode::kParseError, "malformed number '4x'",
                 {"nodes.csv", 12, "lat"});
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_EQ(s.message(), "malformed number '4x'");
  EXPECT_EQ(s.context().file, "nodes.csv");
  EXPECT_EQ(s.context().line, 12u);
  EXPECT_EQ(s.context().field, "lat");
}

TEST(Status, ToStringIncludesEverything) {
  const Status s(ErrorCode::kParseError, "malformed number",
                 {"nodes.csv", 12, "lat"});
  const std::string text = s.to_string();
  EXPECT_NE(text.find("malformed number"), std::string::npos);
  EXPECT_NE(text.find("nodes.csv:12"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
}

TEST(Status, ThrowIfErrorThrowsError) {
  const Status s(ErrorCode::kCorrupt, "bad checksum", {"ck.bin"});
  try {
    throw Error(s);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
    EXPECT_EQ(e.context().file, "ck.bin");
    EXPECT_NE(std::string(e.what()).find("bad checksum"), std::string::npos);
  }
}

TEST(SourceContext, EmptyAndToString) {
  const SourceContext none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.to_string(), "");

  const SourceContext file_only{"a.csv"};
  EXPECT_FALSE(file_only.empty());
  EXPECT_NE(file_only.to_string().find("a.csv"), std::string::npos);
}

TEST(Error, IsRuntimeError) {
  // Existing catch(const std::runtime_error&) boundaries must keep working.
  const auto thrower = [] {
    throw Error(ErrorCode::kIoError, "cannot open", {"x.csv"});
  };
  EXPECT_THROW(thrower(), std::runtime_error);
  EXPECT_THROW(thrower(), std::exception);
}

TEST(Error, WhatCarriesContext) {
  const Error e(ErrorCode::kInvalidData, "duplicate node", {"nodes.csv", 7});
  const std::string what = e.what();
  EXPECT_NE(what.find("duplicate node"), std::string::npos);
  EXPECT_NE(what.find("nodes.csv:7"), std::string::npos);
}

TEST(ErrorCode, ToStringCoversAllCodes) {
  for (const ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kInvalidArgument, ErrorCode::kParseError,
        ErrorCode::kInvalidData, ErrorCode::kIoError, ErrorCode::kCorrupt,
        ErrorCode::kVersionMismatch, ErrorCode::kMismatch,
        ErrorCode::kFaultInjected, ErrorCode::kAborted}) {
    EXPECT_NE(to_string(code), nullptr);
    EXPECT_GT(std::string(to_string(code)).size(), 0u);
  }
}

}  // namespace
}  // namespace solarnet::util
