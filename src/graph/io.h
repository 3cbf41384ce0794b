// Graph serialization: SNAP-style text edge lists and a fast binary
// format.
//
// The paper evaluates on graphs from the SNAP collection [17]
// distributed as '#'-commented whitespace-separated edge lists; this
// loader accepts exactly that shape, so real SNAP downloads can be
// dropped into TCIM_DATA_DIR to replace the synthetic stand-ins (see
// datasets.h).
//
// Layer: §2 graph — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace tcim::graph {

/// Pops the next token off the front of `rest`: skips spaces, tabs and
/// carriage returns, then returns the run of other characters up to
/// the next one (empty when the line is used up) — the field splitter
/// of the text readers.
[[nodiscard]] std::string_view NextToken(std::string_view& rest) noexcept;

/// The strict vertex-id token parser shared by the text readers
/// (ReadSnapEdgeList, stream::ReadDeltaStream): `token` must be a
/// non-empty run of decimal digits — no sign, no trailing characters —
/// whose value is at most `max_id`. Anything else throws
/// std::runtime_error naming `line_no` and the token, so a malformed id
/// is never silently reinterpreted as a different vertex.
[[nodiscard]] std::uint64_t ParseVertexIdToken(
    std::string_view token, std::uint64_t line_no,
    std::uint64_t max_id = std::numeric_limits<std::uint64_t>::max());

/// ReadSnapEdgeList remaps ids through a dense table when the largest
/// id is at most this many times the number of edge lines (SNAP ids
/// are near-dense; the table then takes no more memory than the parsed
/// edges), and through a hash map otherwise. The mapping is the same.
inline constexpr std::uint64_t kSnapDenseIdsPerEdgeLine = 4;

/// Parses a SNAP-style edge list:
///  * lines starting with '#' or '%' are comments;
///  * other lines contain two vertex ids (ParseVertexIdToken: unsigned
///    decimal, 64-bit range), optionally followed by extra numeric
///    columns (timestamps, weights), which are ignored;
///  * ids may be arbitrary (non-dense) and are remapped to [0, n) in
///    sorted-id order;
///  * duplicate edges / self-loops are dropped by GraphBuilder.
/// Throws std::runtime_error naming the line (and the offending token)
/// on malformed lines. O(file + n + E): the rest of the stream is read
/// into one buffer and split into lines in place, ids are remapped by
/// a table (or a hash map, see kSnapDenseIdsPerEdgeLine) and
/// GraphBuilder builds the CSR without sorting.
[[nodiscard]] Graph ReadSnapEdgeList(std::istream& in);
[[nodiscard]] Graph ReadSnapEdgeListFile(const std::string& path);

/// Writes g as a SNAP-style edge list with one "u v" line per edge.
void WriteSnapEdgeList(const Graph& g, std::ostream& out);

/// Binary round-trip format ("TCIMG001" magic, little-endian u32/u64
/// arrays). ~20x faster to load than text for multi-million edge
/// graphs; used to cache synthesized workloads between bench runs.
void WriteBinary(const Graph& g, std::ostream& out);
void WriteBinaryFile(const Graph& g, const std::string& path);
[[nodiscard]] Graph ReadBinary(std::istream& in);
[[nodiscard]] Graph ReadBinaryFile(const std::string& path);

}  // namespace tcim::graph
