// Edge-update batches for the streaming layer.
//
// Real graphs arrive as edge streams: a social network gains
// friendships (and loses them), a road network opens and closes
// segments. An EdgeDelta is one *batch* of such updates — an ordered
// list of single-edge insert/delete operations — the unit that
// stream::IncrementalCounter applies and counts in one step.
//
// Batch semantics are sequential: ops apply in list order against the
// evolving graph, so a batch may insert and later delete the same edge
// (net no-op), or insert an edge twice (the second op is dropped as a
// duplicate). Endpoints beyond the current vertex count grow the
// graph.
//
// The replay text format (tcim_cli --stream, WriteDeltaStream):
//   # comment                (also '%')
//   + u v                    insert undirected edge {u, v}
//   - u v                    delete undirected edge {u, v}
//   =                        commit the batch, start the next one
// A trailing non-empty batch at EOF is committed implicitly. u and v
// are unsigned decimal ids below 2^32 (graph::ParseVertexIdToken); a
// sign, trailing junk or a third field is an error.
//
// Layer: §11 stream — see docs/ARCHITECTURE.md and docs/STREAMING.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/relabel.h"

namespace tcim::stream {

/// One edge operation; `insert == false` means delete.
struct EdgeOp {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  bool insert = true;
};

/// Order-free key of an undirected pair — the shared map key of the
/// layer's per-batch bookkeeping (DynamicGraph pair states,
/// IncrementalCounter overlay), kept in one place so the encodings
/// cannot drift apart.
[[nodiscard]] constexpr std::uint64_t PackEdgeKey(graph::VertexId u,
                                                  graph::VertexId v) noexcept {
  const graph::VertexId lo = u < v ? u : v;
  const graph::VertexId hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// One batch of edge operations, applied in order.
struct EdgeDelta {
  std::vector<EdgeOp> ops;

  void Insert(graph::VertexId u, graph::VertexId v) {
    ops.push_back(EdgeOp{u, v, true});
  }
  void Erase(graph::VertexId u, graph::VertexId v) {
    ops.push_back(EdgeOp{u, v, false});
  }
  [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
};

/// Parses the replay format (see file comment) into batches. Throws
/// std::runtime_error naming the line (and the token) on a malformed
/// line.
[[nodiscard]] std::vector<EdgeDelta> ReadDeltaStream(std::istream& in);
[[nodiscard]] std::vector<EdgeDelta> ReadDeltaFile(const std::string& path);

/// Writes batches in the replay format (round-trips through
/// ReadDeltaStream; used by tests and the CLI examples).
void WriteDeltaStream(std::span<const EdgeDelta> batches, std::ostream& out);

/// Rewrites a delta from original vertex ids (the replay file's
/// vocabulary) to internal ids (the relabeled matrix's vocabulary).
/// Originals the map has never seen are assigned fresh internal ids —
/// exactly the growth semantics the un-relabeled path gets from
/// endpoints beyond the current vertex count. The map grows; callers
/// keep it alive for the inverse translation when reporting.
[[nodiscard]] inline EdgeDelta MapToInternal(const EdgeDelta& delta,
                                             graph::VertexRelabeling& map) {
  EdgeDelta mapped;
  mapped.ops.reserve(delta.ops.size());
  for (const EdgeOp& op : delta.ops) {
    mapped.ops.push_back(
        EdgeOp{map.ToInternal(op.u), map.ToInternal(op.v), op.insert});
  }
  return mapped;
}

}  // namespace tcim::stream
