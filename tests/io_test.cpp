// Tests for SNAP text + binary graph serialization, the strict
// vertex-id token parser both text readers share, the checked-in
// malformed-input corpus (tests/data/malformed), and an exactness
// oracle: the getline + hash-map SNAP reader matched bit for bit,
// error messages included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <streambuf>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph_oracle.h"
#include "stream/edge_delta.h"
#include "util/rng.h"

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

/// The edges of `g` as (u, v) pairs with u < v.
std::vector<std::pair<VertexId, VertexId>> EdgePairs(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  g.ForEachEdge([&](VertexId u, VertexId v) { edges.emplace_back(u, v); });
  return edges;
}

TEST(SnapReader, LastLineWithoutNewline) {
  std::istringstream in("0 1\n1 2");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(EdgePairs(g),
            (std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {1, 2}}));
  std::istringstream crlf("0 1\r\n1 2\r\n");
  EXPECT_EQ(ReadSnapEdgeList(crlf).num_edges(), 2u);
  std::istringstream bare_cr("0 1\r\n1 2\r");
  EXPECT_EQ(ReadSnapEdgeList(bare_cr).num_edges(), 2u);
}

TEST(SnapReader, CommentsOnlyAndWhitespaceOnlyFiles) {
  std::istringstream comments("# FromNodeId\tToNodeId\n% weights\n# end");
  const Graph none = ReadSnapEdgeList(comments);
  EXPECT_EQ(none.num_vertices(), 0u);
  EXPECT_EQ(none.num_edges(), 0u);
  std::istringstream blank(" \t\r\n\n   \n\r\n");
  EXPECT_EQ(ReadSnapEdgeList(blank).num_vertices(), 0u);
  std::istringstream empty("");
  EXPECT_EQ(ReadSnapEdgeList(empty).num_vertices(), 0u);
  std::istringstream mixed(" \t\n\n3 4\n   \n\r\n4 5\n  ");
  EXPECT_EQ(EdgePairs(ReadSnapEdgeList(mixed)),
            (std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {1, 2}}));
}

TEST(SnapReader, DenseRemapThresholdBoundary) {
  // Three edge lines (comments do not count): the table serves ids up
  // to kSnapDenseIdsPerEdgeLine * 3, the hash map anything larger. The
  // graph is the same on both sides.
  const std::uint64_t limit = kSnapDenseIdsPerEdgeLine * 3;
  for (const std::uint64_t top : {limit - 1, limit, limit + 1}) {
    std::istringstream in("# header\n5 0\n" + std::to_string(top) +
                          " 5\n# mid\n0 " + std::to_string(top) + "\n");
    const Graph g = ReadSnapEdgeList(in);
    EXPECT_EQ(g.num_vertices(), 3u) << top;
    EXPECT_EQ(EdgePairs(g), (std::vector<std::pair<VertexId, VertexId>>{
                                {0, 1}, {0, 2}, {1, 2}}))
        << top;
  }
}

TEST(SnapReader, LargestIdTakesTheHashMapWithoutOverflow) {
  // max_id + 1 wraps to 0: a table sized from it would be empty, and a
  // table of max_id entries would not fit in memory.
  std::istringstream in("0 18446744073709551615\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(EdgePairs(g),
            (std::vector<std::pair<VertexId, VertexId>>{{0, 1}}));
  EXPECT_LT(g.HeapBytes(), 1024u);
}

/// A read-only stream buffer that cannot seek and hands out at most 3
/// characters per refill, like a pipe.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == text_.size()) return traits_type::eof();
    const std::size_t count = std::min<std::size_t>(3, text_.size() - next_);
    char* const begin = text_.data() + next_;
    setg(begin, begin, begin + count);
    next_ += count;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string text_;
  std::size_t next_ = 0;
};

TEST(SnapReader, ReadsStreamsThatCannotSeek) {
  const Graph original = HolmeKim(300, 1500, 0.5, 9);
  std::stringstream text;
  WriteSnapEdgeList(original, text);
  TrickleBuf buf(text.str());
  std::istream in(&buf);
  const Graph restored = ReadSnapEdgeList(in);
  EXPECT_TRUE(std::ranges::equal(restored.offsets(), original.offsets()));
  EXPECT_TRUE(std::ranges::equal(restored.adjacency(), original.adjacency()));
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

// --- getline + hash-map oracle ---------------------------------------------

/// ReadSnapEdgeList line by line: std::getline, the shared
/// NextToken / ParseVertexIdToken checks, one hash-map node per
/// distinct id, dense ids in sorted-id order, then the sort-based build.
oracle::ReferenceCsr ReferenceReadSnapEdgeList(std::istream& in) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw_edges;
  std::unordered_map<std::uint64_t, VertexId> remap;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest = line;
    const std::string_view first = NextToken(rest);
    if (first.empty() || first.front() == '#' || first.front() == '%') {
      continue;
    }
    const std::uint64_t u = ParseVertexIdToken(first, line_no);
    const std::uint64_t v = ParseVertexIdToken(NextToken(rest), line_no);
    for (std::string_view extra = NextToken(rest); !extra.empty();
         extra = NextToken(rest)) {
      double value = 0.0;
      const char* const last = extra.data() + extra.size();
      const auto [ptr, ec] = std::from_chars(extra.data(), last, value);
      if (ec != std::errc{} || ptr != last) {
        throw std::runtime_error("graph::io: line " + std::to_string(line_no) +
                                 ": trailing junk '" + std::string(extra) +
                                 "'");
      }
    }
    raw_edges.emplace_back(u, v);
    remap.try_emplace(u, 0);
    remap.try_emplace(v, 0);
  }
  std::vector<std::uint64_t> ids;
  for (const auto& [id, _] : remap) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (VertexId dense = 0; dense < ids.size(); ++dense) {
    remap[ids[dense]] = dense;
  }
  oracle::EdgeList edges;
  for (const auto& [u, v] : raw_edges) edges.emplace_back(remap[u], remap[v]);
  return oracle::ReferenceGraphBuilderBuild(static_cast<VertexId>(ids.size()),
                                            edges);
}

/// ReadSnapEdgeList and the oracle agree on `text`: the same CSR, or
/// the same error message.
void ExpectReadMatchesOracle(const std::string& text,
                             const std::string& label) {
  std::istringstream want_in(text);
  std::istringstream got_in(text);
  oracle::ReferenceCsr want;
  const std::string want_error =
      ErrorOf([&] { want = ReferenceReadSnapEdgeList(want_in); });
  Graph got;
  const std::string got_error = ErrorOf([&] { got = ReadSnapEdgeList(got_in); });
  EXPECT_EQ(got_error, want_error) << label;
  if (want_error.empty() && got_error.empty()) {
    oracle::ExpectSameGraph(got, want, label);
  }
}

/// `edges` as SNAP text, every endpoint v written as id_of(v), in the
/// formats real files mix: tab or space runs, CRLF endings, comment
/// and blank lines, timestamp and weight columns, and no newline after
/// the last line.
std::string SnapText(const oracle::EdgeList& edges,
                     const std::function<std::uint64_t(VertexId)>& id_of,
                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::string text = "# FromNodeId\tToNodeId\n";
  constexpr std::array<const char*, 4> kSeparators = {" ", "\t", "  ", " \t"};
  for (const auto& [u, v] : edges) {
    switch (rng.UniformBelow(32)) {
      case 0:
        text += "% comment\n";
        break;
      case 1:
        text += " \t \r\n";
        break;
      default:
        break;
    }
    text += std::to_string(id_of(u));
    text += kSeparators[rng.UniformBelow(kSeparators.size())];
    text += std::to_string(id_of(v));
    switch (rng.UniformBelow(16)) {
      case 0:
        text += "\t1588893600";
        break;
      case 1:
        text += " 0.75 -3.5e-2";
        break;
      default:
        break;
    }
    text += rng.UniformBelow(8) == 0 ? "\r\n" : "\n";
  }
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

TEST(SnapReaderOracle, PaperStandInsShuffledCopiesAndCornerCases) {
  // Ids as built or spread over 3x the range (gaps), and ids 10^6x the
  // range apart or past 32 bits (sparse): both sides of the remap
  // switch, alternated over the inputs.
  const std::function<std::uint64_t(VertexId)> ids[][2] = {
      {[](VertexId v) { return std::uint64_t{v}; },
       [](VertexId v) { return 1000003 * std::uint64_t{v} + 17; }},
      {[](VertexId v) { return 3 * std::uint64_t{v} + 1; },
       [](VertexId v) { return (std::uint64_t{1} << 40) + v; }},
  };
  std::size_t index = 0;
  for (const oracle::OracleInput& in : oracle::OracleInputs()) {
    const oracle::EdgeList edges =
        oracle::Scrambled(in.edges, 3 + in.edges.size());
    const auto& [dense, sparse] = ids[index++ % 2];
    ExpectReadMatchesOracle(SnapText(edges, dense, in.edges.size()),
                            in.name + " dense");
    ExpectReadMatchesOracle(SnapText(edges, sparse, in.edges.size()),
                            in.name + " sparse");
  }
}

TEST(SnapReaderOracle, EdgeCasesAndMalformedInputs) {
  const char* const cases[] = {
      "",
      "\n",
      "# only a comment",
      "# comments\n% only\n",
      "  \t \n\r\n \n",
      "0 1",
      "0 1\r\n",
      "0 1\r",
      "5 5\n",
      "0 18446744073709551615\n",
      "18446744073709551615 0\n7 18446744073709551615",
      "4294967296 4294967297\n4294967297 1\n",
      "9 3\n3 9\n9 3\n3 3\n",
      "0 1\nnot numbers\n",
      "0\n",
      "0 1\n1 2x",
      "0 1\n1 2 abc",
      "0 1\r\n-5 1\r\n",
      "0 1\n+3 4\n",
      "0x1F 2\n",
      "0 99999999999999999999\n",
      "0 1 1588893600 ok\n",
      "0 1\n# fine\n2 3oops\n",
  };
  for (const char* text : cases) ExpectReadMatchesOracle(text, text);
  for (const std::filesystem::path& path : MalformedCorpusFiles()) {
    if (path.extension() != ".txt") continue;
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    ExpectReadMatchesOracle(text.str(), path.filename().string());
  }
}

}  // namespace
}  // namespace tcim::graph
