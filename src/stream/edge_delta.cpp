#include "stream/edge_delta.h"

#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/io.h"

namespace tcim::stream {

std::vector<EdgeDelta> ReadDeltaStream(std::istream& in) {
  std::vector<EdgeDelta> batches;
  EdgeDelta current;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim leading whitespace; skip blanks and comments.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    const char head = line[start];
    if (head == '#' || head == '%') continue;
    if (head == '=') {
      batches.push_back(std::move(current));
      current = EdgeDelta{};
      continue;
    }
    if (head != '+' && head != '-') {
      throw std::runtime_error("delta line " + std::to_string(line_no) +
                               ": expected '+', '-', '=' or comment");
    }
    // Exactly two strict id tokens (graph::ParseVertexIdToken) in
    // VertexId range: a sign, an out-of-range id, trailing junk or a
    // third field is an error, never a silently different vertex.
    constexpr std::uint64_t kMaxId =
        std::numeric_limits<graph::VertexId>::max();
    std::string_view rest = std::string_view(line).substr(start + 1);
    const std::uint64_t u =
        graph::ParseVertexIdToken(graph::NextToken(rest), line_no, kMaxId);
    const std::uint64_t v =
        graph::ParseVertexIdToken(graph::NextToken(rest), line_no, kMaxId);
    const std::string_view extra = graph::NextToken(rest);
    if (!extra.empty()) {
      throw std::runtime_error("delta line " + std::to_string(line_no) +
                               ": unexpected field '" + std::string(extra) +
                               "' after the two vertex ids");
    }
    current.ops.push_back(EdgeOp{static_cast<graph::VertexId>(u),
                                 static_cast<graph::VertexId>(v),
                                 head == '+'});
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

std::vector<EdgeDelta> ReadDeltaFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open delta file: " + path);
  }
  return ReadDeltaStream(in);
}

void WriteDeltaStream(std::span<const EdgeDelta> batches, std::ostream& out) {
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const EdgeOp& op : batches[b].ops) {
      out << (op.insert ? '+' : '-') << ' ' << op.u << ' ' << op.v << '\n';
    }
    if (b + 1 < batches.size()) out << "=\n";
  }
}

}  // namespace tcim::stream
