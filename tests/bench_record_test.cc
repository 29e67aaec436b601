// bench::WriteMembers, the one writer of the BENCH_service.json record that
// CI's bench gate reads: a run replaces only the top-level members it names,
// whatever order the runs come in, and never touches a nested key that
// shares a top-level member's name.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace ipsketch {
namespace {

using bench::JsonMember;

std::string RecordPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<JsonMember> ReadMembers(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<JsonMember> members;
  EXPECT_TRUE(bench::ParseMembers(text, &members)) << text;
  return members;
}

TEST(BenchRecordTest, ReplacesOnlyTheNamedTopLevelMembers) {
  const std::string path = RecordPath("replace.json");
  // "corpus" is a top-level member and also a key inside "index"; a string
  // value holds braces, brackets and an escaped quote.
  const std::string index =
      "{\n    \"corpus\": 4000,\n    \"note\": \"}]{\\\"corpus\\\": [\"\n  }";
  ASSERT_TRUE(bench::WriteMembers(path, {{"bench", "\"a\""}, {"corpus", "1"}}));
  ASSERT_TRUE(bench::WriteMembers(path, {{"index", index}}));
  ASSERT_TRUE(bench::WriteMembers(path, {{"corpus", "2"}}));
  ASSERT_TRUE(bench::WriteMembers(path, {{"index", index}}));
  const std::vector<JsonMember> members = ReadMembers(path);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], JsonMember("bench", "\"a\""));
  EXPECT_EQ(members[1], JsonMember("corpus", "2"));
  EXPECT_EQ(members[2], JsonMember("index", index));
}

TEST(BenchRecordTest, AbsentOrNonObjectFilesStartANewRecord) {
  const std::string path = RecordPath("fresh.json");
  const std::vector<JsonMember> fresh = {{"levels", "[1, {\"x\": null}]"}};
  for (const char* previous : {"", "[1, 2]", "{\"cut\": {\"off\": 1}", "{}"}) {
    SCOPED_TRACE(previous);
    std::ofstream(path, std::ios::binary) << previous;
    ASSERT_TRUE(bench::WriteMembers(path, fresh));
    EXPECT_EQ(ReadMembers(path), fresh);
  }
}

TEST(BenchRecordTest, ParseMembersRejectsMalformedObjects) {
  const auto rejects = [](const std::string& text) {
    std::vector<JsonMember> members;
    return !bench::ParseMembers(text, &members);
  };
  EXPECT_TRUE(rejects("{\"a\" 1}"));
  EXPECT_TRUE(rejects("{\"a\": 1,}"));
  EXPECT_TRUE(rejects("{\"a\": }"));
  EXPECT_TRUE(rejects("{1: 2}"));
  EXPECT_TRUE(rejects("{\"a\": [1, 2}"));
}

}  // namespace
}  // namespace ipsketch
