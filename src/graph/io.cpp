#include "graph/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tcim::graph {
namespace {

constexpr std::array<char, 8> kMagic = {'T', 'C', 'I', 'M',
                                        'G', '0', '0', '1'};

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("graph::io: " + what);
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) Fail("truncated binary graph");
  return value;
}

}  // namespace

std::string_view NextToken(std::string_view& rest) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::uint64_t ParseVertexIdToken(std::string_view token, std::uint64_t line_no,
                                 std::uint64_t max_id) {
  const auto fail = [&](const char* why) {
    throw std::runtime_error("line " + std::to_string(line_no) +
                             ": vertex id '" + std::string(token) + "' " +
                             why);
  };
  if (token.empty()) fail("is missing");
  if (token.front() == '-' || token.front() == '+') fail("has a sign");
  std::uint64_t id = 0;
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, id);
  if (ec == std::errc::result_out_of_range) fail("is out of range");
  if (ec != std::errc{}) fail("is not a decimal integer");
  if (ptr != last) fail("has trailing junk");
  if (id > max_id) fail("is out of range");
  return id;
}

namespace {

/// The rest of `in` in one buffer, sized up front when the stream can
/// tell its length.
std::string ReadRest(std::istream& in) {
  std::string text;
  std::streambuf* const buf = in.rdbuf();
  if (!in || buf == nullptr) return text;
  const std::streampos failed(std::streamoff(-1));
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  if (here != failed && end != failed) {
    buf->pubseekpos(here, std::ios::in);
    if (end > here) text.reserve(static_cast<std::size_t>(end - here));
  }
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  while (buf->sgetc() != std::char_traits<char>::eof()) {
    const std::size_t size = text.size();
    text.resize(std::max(text.capacity(), size + kChunk));
    text.resize(size + static_cast<std::size_t>(buf->sgetn(
                           text.data() + size,
                           static_cast<std::streamsize>(text.size() - size))));
  }
  return text;
}

/// The edge lines of a SNAP edge list, ids as written.
struct RawEdgeList {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::uint64_t max_id = 0;
};

RawEdgeList ParseSnapEdgeLines(std::istream& in) {
  const std::string text = ReadRest(in);
  RawEdgeList raw;
  // At most one edge per line.
  raw.edges.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  std::string_view unread = text;
  std::uint64_t line_no = 0;
  while (!unread.empty()) {
    const std::size_t eol = std::min(unread.find('\n'), unread.size());
    std::string_view rest = unread.substr(0, eol);
    unread.remove_prefix(std::min(eol + 1, unread.size()));
    ++line_no;
    const std::string_view first = NextToken(rest);
    if (first.empty() || first.front() == '#' || first.front() == '%') {
      continue;
    }
    const std::uint64_t u = ParseVertexIdToken(first, line_no);
    const std::uint64_t v = ParseVertexIdToken(NextToken(rest), line_no);
    // SNAP files may carry extra columns (temporal edge lists'
    // timestamps, weighted lists' real-valued weights): accept
    // additional *numeric* tokens — integer or floating-point — and
    // reject anything else so junk cannot ride along unnoticed.
    for (std::string_view extra = NextToken(rest); !extra.empty();
         extra = NextToken(rest)) {
      double value = 0.0;
      const char* const last = extra.data() + extra.size();
      const auto [ptr, ec] = std::from_chars(extra.data(), last, value);
      if (ec != std::errc{} || ptr != last) {
        Fail("line " + std::to_string(line_no) + ": trailing junk '" +
             std::string(extra) + "'");
      }
    }
    raw.edges.emplace_back(u, v);
    raw.max_id = std::max({raw.max_id, u, v});
  }
  return raw;
}

}  // namespace

Graph ReadSnapEdgeList(std::istream& in) {
  RawEdgeList raw = ParseSnapEdgeLines(in);
  // Dense ids follow the sorted order of the distinct original ids, so
  // the mapping is deterministic regardless of edge order. Near-dense
  // ids (the SNAP norm) index a table; the bound keeps it no larger
  // than the parsed edges and max_id + 1 from overflowing.
  std::vector<VertexId> table;
  std::unordered_map<std::uint64_t, VertexId> remap;
  VertexId n = 0;
  if (raw.max_id <= kSnapDenseIdsPerEdgeLine * raw.edges.size()) {
    // 1 marks an id in use; the ascending pass replaces each mark with
    // its dense id before any later id is looked at.
    table.assign(static_cast<std::size_t>(raw.max_id) + 1, 0);
    for (const auto& [u, v] : raw.edges) {
      table[u] = 1;
      table[v] = 1;
    }
    for (VertexId& id : table) {
      if (id != 0) id = n++;
    }
  } else {
    for (const auto& [u, v] : raw.edges) {
      remap.try_emplace(u, 0);
      remap.try_emplace(v, 0);
    }
    std::vector<std::uint64_t> ids;
    ids.reserve(remap.size());
    for (const auto& [id, _] : remap) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const std::uint64_t id : ids) remap[id] = n++;
  }
  const auto dense = [&](std::uint64_t id) {
    return table.empty() ? remap.find(id)->second
                         : table[static_cast<std::size_t>(id)];
  };

  GraphBuilder builder(n);
  builder.ReserveEdges(raw.edges.size());
  for (const auto& [u, v] : raw.edges) builder.AddEdge(dense(u), dense(v));
  raw = {};
  table = {};
  remap = {};
  return std::move(builder).Build();
}

Graph ReadSnapEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot open " + path);
  return ReadSnapEdgeList(in);
}

void WriteSnapEdgeList(const Graph& g, std::ostream& out) {
  out << "# Undirected graph, " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  out << "# FromNodeId\tToNodeId\n";
  g.ForEachEdge([&](VertexId u, VertexId v) { out << u << '\t' << v << '\n'; });
}

void WriteBinary(const Graph& g, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  WritePod(out, static_cast<std::uint32_t>(g.num_vertices()));
  WritePod(out, static_cast<std::uint64_t>(g.adjacency().size()));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() *
                                         sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(g.adjacency().data()),
            static_cast<std::streamsize>(g.adjacency().size() *
                                         sizeof(VertexId)));
  if (!out) Fail("binary write failed");
}

void WriteBinaryFile(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) Fail("cannot open " + path + " for writing");
  WriteBinary(g, out);
}

Graph ReadBinary(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) Fail("bad magic in binary graph");
  const auto n = ReadPod<std::uint32_t>(in);
  const auto arcs = ReadPod<std::uint64_t>(in);
  if (arcs % 2 != 0) Fail("binary graph arc count must be even");

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() *
                                       sizeof(std::uint64_t)));
  std::vector<VertexId> adjacency(arcs);
  in.read(reinterpret_cast<char*>(adjacency.data()),
          static_cast<std::streamsize>(adjacency.size() * sizeof(VertexId)));
  if (!in) Fail("truncated binary graph");

  // Rebuild through the builder to re-establish all invariants rather
  // than trusting the file.
  GraphBuilder builder(n);
  builder.ReserveEdges(arcs / 2);
  for (VertexId u = 0; u < n; ++u) {
    if (offsets[u] > offsets[u + 1] || offsets[u + 1] > arcs) {
      Fail("corrupt offsets in binary graph");
    }
    for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      if (adjacency[e] > u) builder.AddEdge(u, adjacency[e]);
    }
  }
  return std::move(builder).Build();
}

Graph ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open " + path);
  return ReadBinary(in);
}

}  // namespace tcim::graph
