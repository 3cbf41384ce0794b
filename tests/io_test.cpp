// Tests for SNAP text + binary graph serialization, the strict
// vertex-id token parser both text readers share, and the checked-in
// malformed-input corpus (tests/data/malformed).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "stream/edge_delta.h"

namespace tcim::graph {
namespace {

TEST(SnapReader, ParsesBasicEdgeList) {
  std::istringstream in("0 1\n1 2\n0 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(SnapReader, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "% another comment style\n"
      "\n"
      "   \t \n"
      "0\t1\n"
      "# trailing comment\n"
      "1\t2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, RemapsSparseIds) {
  std::istringstream in("1000000 42\n42 99999\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  // Remap is by sorted original id: 42->0, 99999->1, 1000000->2.
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(SnapReader, DropsDuplicatesAndSelfLoops) {
  std::istringstream in("0 1\n1 0\n0 1\n2 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SnapReader, ThrowsOnGarbage) {
  std::istringstream in("0 1\nnot numbers\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
}

TEST(SnapReader, ThrowsOnMissingSecondId) {
  std::istringstream in("0\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
}

TEST(SnapReader, IgnoresExtraColumns) {
  std::istringstream in("0 1 1588893600\n1 2 1588893700\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, RejectsTrailingJunkGluedToAnId) {
  // "1 2garbage" must not silently parse as edge (1, 2).
  std::istringstream second("1 2garbage\n");
  EXPECT_THROW(ReadSnapEdgeList(second), std::runtime_error);
  std::istringstream first("1x 2\n");
  EXPECT_THROW(ReadSnapEdgeList(first), std::runtime_error);
}

TEST(SnapReader, RejectsNonNumericExtraColumns) {
  std::istringstream in("0 1 ok-then\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
  std::istringstream glued("0 1 123abc\n");
  EXPECT_THROW(ReadSnapEdgeList(glued), std::runtime_error);
}

TEST(SnapReader, AcceptsRealValuedWeightColumns) {
  // Weighted edge lists carry float weights; they are numeric extra
  // columns, not junk.
  std::istringstream in("0 1 0.75\n1 2 -3.5e-2 7\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, JunkErrorsNameTheLine) {
  std::istringstream in("0 1\n# fine\n2 3oops\n");
  try {
    (void)ReadSnapEdgeList(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SnapReader, AcceptsCrlfLineEndings) {
  std::istringstream in("# comment\r\n0\t1\r\n1 2 1588893600\r\n\r\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(SnapReader, BothCommentStylesAnywhere) {
  std::istringstream in(
      "% matrix-market style header\n"
      "0 1\n"
      "  # indented snap comment\n"
      "  % indented percent comment\n"
      "1 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapRoundTrip, WriteThenReadPreservesGraph) {
  const Graph original = HolmeKim(200, 1000, 0.5, 3);
  std::stringstream buffer;
  WriteSnapEdgeList(original, buffer);
  const Graph restored = ReadSnapEdgeList(buffer);
  ASSERT_EQ(restored.num_vertices(), original.num_vertices());
  ASSERT_EQ(restored.num_edges(), original.num_edges());
  EXPECT_TRUE(std::equal(original.adjacency().begin(),
                         original.adjacency().end(),
                         restored.adjacency().begin()));
}

TEST(BinaryRoundTrip, PreservesGraph) {
  const Graph original = GeometricRoad(2000, RoadParams{}, 4);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(original, buffer);
  const Graph restored = ReadBinary(buffer);
  ASSERT_EQ(restored.num_vertices(), original.num_vertices());
  ASSERT_EQ(restored.num_edges(), original.num_edges());
  EXPECT_TRUE(std::equal(original.adjacency().begin(),
                         original.adjacency().end(),
                         restored.adjacency().begin()));
}

TEST(BinaryRoundTrip, EmptyGraph) {
  const Graph original = GraphBuilder(7).Build();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(original, buffer);
  const Graph restored = ReadBinary(buffer);
  EXPECT_EQ(restored.num_vertices(), 7u);
  EXPECT_EQ(restored.num_edges(), 0u);
}

TEST(BinaryReader, RejectsBadMagic) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "NOTAGRAPHFILE................";
  EXPECT_THROW(ReadBinary(buffer), std::runtime_error);
}

TEST(BinaryReader, RejectsTruncatedFile) {
  const Graph original = ErdosRenyi(100, 300, 5);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data,
                              std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(ReadBinary(truncated), std::runtime_error);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(ReadSnapEdgeListFile("/nonexistent/path.txt"),
               std::runtime_error);
  EXPECT_THROW(ReadBinaryFile("/nonexistent/path.bin"), std::runtime_error);
}

TEST(FileIo, WriteAndReadBackFiles) {
  const Graph original = ErdosRenyi(50, 120, 6);
  const std::string text_path = ::testing::TempDir() + "/tcim_io_test.txt";
  const std::string bin_path = ::testing::TempDir() + "/tcim_io_test.bin";
  {
    std::ofstream out(text_path);
    WriteSnapEdgeList(original, out);
  }
  WriteBinaryFile(original, bin_path);
  const Graph from_text = ReadSnapEdgeListFile(text_path);
  const Graph from_bin = ReadBinaryFile(bin_path);
  EXPECT_EQ(from_text.num_edges(), original.num_edges());
  EXPECT_EQ(from_bin.num_edges(), original.num_edges());
}

// --- strict vertex-id tokens ----------------------------------------------

/// The message of the runtime_error `fn` throws ("" when none).
template <typename Fn>
std::string ErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(VertexIdToken, AcceptsPlainDecimalUpToTheLimit) {
  EXPECT_EQ(ParseVertexIdToken("0", 1), 0u);
  EXPECT_EQ(ParseVertexIdToken("007", 1), 7u);
  EXPECT_EQ(ParseVertexIdToken("18446744073709551615", 1),
            18446744073709551615ULL);
  EXPECT_EQ(ParseVertexIdToken("4294967295", 1, 4294967295u), 4294967295u);
}

TEST(VertexIdToken, RejectsSignOverflowJunkAndRangeNamingLineAndToken) {
  const struct {
    const char* token;
    std::uint64_t max_id;
    const char* why;
  } cases[] = {
      {"-5", ~0ULL, "has a sign"},
      {"+5", ~0ULL, "has a sign"},
      {"18446744073709551616", ~0ULL, "is out of range"},
      {"99999999999999999999", ~0ULL, "is out of range"},
      {"4294967296", 4294967295u, "is out of range"},
      {"2x", ~0ULL, "has trailing junk"},
      {"1.5", ~0ULL, "has trailing junk"},
      {"x2", ~0ULL, "is not a decimal integer"},
      {"", ~0ULL, "is missing"},
  };
  for (const auto& c : cases) {
    const std::string what =
        ErrorOf([&] { (void)ParseVertexIdToken(c.token, 42, c.max_id); });
    EXPECT_NE(what.find("line 42"), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("'") + c.token + "'"), std::string::npos)
        << what;
    EXPECT_NE(what.find(c.why), std::string::npos) << what;
  }
}

TEST(VertexIdToken, NextTokenSplitsOnSpacesTabsAndCarriageReturns) {
  std::string_view rest = " \t12\t 34\r\n";
  EXPECT_EQ(NextToken(rest), "12");
  EXPECT_EQ(NextToken(rest), "34");
  EXPECT_EQ(NextToken(rest), "\n");
  EXPECT_EQ(NextToken(rest), "");
  EXPECT_EQ(NextToken(rest), "");
}

// --- malformed-input corpus -----------------------------------------------
//
// Every file under tests/data/malformed must be rejected by its reader
// (*.txt: ReadSnapEdgeListFile, *.delta: stream::ReadDeltaFile) with an
// error naming the line and, where the file's first line says so, the
// offending token: "# expect: line <N> '<token>'" (or just
// "# expect: line <N>").

// One instance per file, so a regression names the file it lets through.

std::vector<std::filesystem::path> MalformedCorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TCIM_MALFORMED_CORPUS_DIR)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

class MalformedCorpus
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(MalformedCorpus, EveryFileIsRejectedNamingLineAndToken) {
  const std::filesystem::path& path = GetParam();
  std::string header;
  {
    std::ifstream in(path);
    std::getline(in, header);
  }
  const std::string prefix = "# expect: ";
  ASSERT_EQ(header.rfind(prefix, 0), 0u) << "missing expect header";
  const std::string expect = header.substr(prefix.size());
  const std::size_t quote = expect.find('\'');
  const std::string where = expect.substr(0, quote);
  const std::string what = ErrorOf([&] {
    if (path.extension() == ".txt") {
      (void)ReadSnapEdgeListFile(path.string());
    } else {
      ASSERT_EQ(path.extension(), ".delta");
      (void)stream::ReadDeltaFile(path.string());
    }
  });
  ASSERT_FALSE(what.empty()) << "accepted a malformed file";
  // "line 5:" so that it cannot match inside "line 50".
  const std::string line = where.substr(0, where.find_last_not_of(' ') + 1);
  EXPECT_NE(what.find(line + ":"), std::string::npos) << what;
  if (quote != std::string::npos) {
    EXPECT_NE(what.find(expect.substr(quote)), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Files, MalformedCorpus, ::testing::ValuesIn(MalformedCorpusFiles()),
    [](const auto& info) { return info.param.stem().string(); });

TEST(MalformedCorpusInventory, CoversBothReaders) {
  std::size_t snap_files = 0;
  std::size_t delta_files = 0;
  for (const std::filesystem::path& path : MalformedCorpusFiles()) {
    if (path.extension() == ".txt") ++snap_files;
    if (path.extension() == ".delta") ++delta_files;
  }
  EXPECT_GE(snap_files, 5u);
  EXPECT_GE(delta_files, 5u);
}

}  // namespace
}  // namespace tcim::graph
