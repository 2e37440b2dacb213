// Streaming layout ingestion: cell-at-a-time parsing with a bounded
// resident-cell window.
//
// Every reader goes through one builder, build_library(): it drains a
// LayoutStream, merges file cells that share a name, resolves references
// by name and validates the hierarchy. read_gds / read_oas / read_layout
// call it with geometry and hold the whole Library in RAM, which is
// untenable for multi-GB reticle files. stream_layer() calls it in skim
// mode instead and runs in two passes:
//
//   1. Directory pass: every cell is skimmed (geometry decoded and checked
//      but not stored) into a geometry-free Library skeleton, with each
//      cell's file pieces and per-layer shape counts on the side
//      (CellPieces). Memory: O(cells) names + edges, no geometry. Undefined
//      references, cycles and depth beyond 64 levels are rejected here,
//      before any geometry is emitted. The skim runs every check the
//      geometry parse runs, so whatever pass 2 skips is already validated.
//   2. Flatten pass: the skeleton is walked with Library::each_instance,
//      the same walker Library::flatten uses, and each visited instance
//      fetches its pieces that hold target-layer shapes through an LRU
//      cache holding at most `window` parsed cells, then emits its
//      transformed polygons immediately, so geometry flows straight into
//      fracture (or any consumer) without a flat in-RAM shot list ever
//      existing. A fetch is a filtered re-read (read_cell with a
//      LayerFilter): off-layer records are decoded for their modal state
//      but build no polygon, the read stops after the piece's last
//      target-layer shape, and pieces with no target-layer shape are never
//      re-read. The window therefore holds target-layer polygons only.
//
// Peak resident parsed-cell count is bounded by the window (asserted in
// tests/layout_stream_test.cpp). Because both paths walk with the one
// walker, emitted polygon order is identical to Library::flatten by
// construction, which makes streamed fracture bitwise-identical to the
// in-RAM path.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fracture/fracture.h"
#include "layout/cell.h"
#include "layout/library.h"

namespace ebl {

/// Reference-number sentinel: "this cell/ref is addressed by name".
inline constexpr std::uint64_t kNoRefnum = ~std::uint64_t{0};

/// A placement parsed from the stream. The child is addressed by name when
/// the format carries one inline; OASIS CELLNAME reference numbers resolve
/// through LayoutStream::name_of once the directory pass reaches the END
/// record (the name table may follow the cells that use it).
struct StreamRef {
  std::string child;                    ///< empty while only refnum is known
  std::uint64_t child_refnum = kNoRefnum;
  CTrans trans;
  std::uint32_t cols = 1;
  std::uint32_t rows = 1;
  Point col_step{0, 0};
  Point row_step{0, 0};

  bool is_array() const { return cols > 1 || rows > 1; }
};

/// Shape counts of one file cell, per layer.
using ShapeCounts = std::map<LayerKey, std::size_t>;

/// One parsed cell. In skim mode (next(..., with_geometry=false)) shapes
/// stays empty but shape_counts still reports how many polygons the cell
/// carries on each layer; refs are always populated. A filtered re-read
/// (read_cell with a LayerFilter) fills shapes only.
struct StreamCell {
  std::string name;                     ///< empty while only refnum is known
  std::uint64_t refnum = kNoRefnum;
  std::map<LayerKey, std::vector<Polygon>> shapes;
  std::vector<StreamRef> refs;
  ShapeCounts shape_counts;

  const std::vector<Polygon>& shapes_on(LayerKey layer) const;
  /// Polygons on every layer.
  std::size_t shape_count() const;
};

/// What a filtered re-read keeps: the shapes of @p layer, of which the cell
/// holds @p count (its skim count). The read stops once it has them all.
struct LayerFilter {
  LayerKey layer;
  std::size_t count = 0;
};

/// Forward cell reader with random re-read access over a seekable stream.
/// Implemented by the GDSII and OASIS parsers (layout/gdsii.cpp,
/// layout/oasis.cpp); both throw DataError with byte offsets on malformed
/// input.
class LayoutStream {
 public:
  virtual ~LayoutStream() = default;

  virtual const std::string& library_name() const = 0;
  virtual double dbu_in_microns() const = 0;

  /// Parses the next cell in file order; returns false once the end-of-
  /// layout record has been consumed. @p with_geometry = false skims:
  /// geometry operands are decoded (and validated) but not stored.
  virtual bool next(StreamCell& out, bool with_geometry = true) = 0;

  /// Restarts next() iteration from the first cell.
  virtual void rewind() = 0;

  /// Cells encountered so far (file order indices 0..cells_seen()-1).
  virtual std::size_t cells_seen() const = 0;

  /// Re-parses cell @p index (must have been seen) with geometry. Seeks;
  /// does not disturb the next() position of a *finished* pass, but
  /// interleaving read_cell with an unfinished next() pass is a contract
  /// violation. With @p filter, every record up to the filter's last shape
  /// is still decoded and checked, but only that layer's polygons are built
  /// and only shapes is filled; the rest of the cell is not read.
  virtual StreamCell read_cell(std::size_t index,
                               const std::optional<LayerFilter>& filter = std::nullopt) = 0;

  /// Resolves an OASIS cellname reference number. Valid once a full pass
  /// has consumed the END record. GDSII streams never produce refnums.
  virtual std::string name_of(std::uint64_t refnum) const;
};

/// Opens @p path as a layout stream by extension: .gds/.gdsii -> GDSII,
/// .oas/.oasis -> OASIS (case-insensitive). Throws DataError for anything
/// else ("unsupported layout extension").
std::unique_ptr<LayoutStream> open_layout_stream(const std::string& path);

/// Format-specific factories (implemented in layout/gdsii.cpp and
/// layout/oasis.cpp). The unique_ptr<istream> overloads take ownership of an
/// arbitrary seekable stream — handy for in-memory stringstream tests.
std::unique_ptr<LayoutStream> open_gds_stream(const std::string& path);
std::unique_ptr<LayoutStream> open_gds_stream(std::unique_ptr<std::istream> is);
std::unique_ptr<LayoutStream> open_oas_stream(const std::string& path);
std::unique_ptr<LayoutStream> open_oas_stream(std::unique_ptr<std::istream> is);

namespace stream_detail {

/// The store policy both parsers apply to a cell parse. The parsers decode
/// and check every record the same way whatever is kept; the sink decides
/// which polygons get built. next() keeps every layer (or, skimming, none)
/// and counts shapes per layer; a filtered read_cell keeps the filter's
/// layer only and is done() once it has the filter's count.
class ShapeSink {
 public:
  /// next(): every layer, or (skimming) none.
  ShapeSink(StreamCell& out, bool with_geometry) : out_(out), geometry_(with_geometry) {}
  /// read_cell(): every layer, or the filter's only.
  ShapeSink(StreamCell& out, const std::optional<LayerFilter>& filter)
      : out_(out), filter_(filter) {}

  /// One decoded shape on @p layer; @p build makes its Polygon if it is kept.
  template <class Build>
  void shape(LayerKey layer, Build&& build) {
    if (filter_) {
      if (layer != filter_->layer) return;
      ++found_;
    } else {
      ++out_.shape_counts[layer];
      if (!geometry_) return;
    }
    out_.shapes[layer].push_back(build());
  }

  void ref(StreamRef&& r) {
    if (!filter_) out_.refs.push_back(std::move(r));
  }

  /// True once a filtered read holds every shape of its layer: the rest of
  /// the cell is not read.
  bool done() const { return filter_ && found_ >= filter_->count; }

 private:
  StreamCell& out_;
  bool geometry_ = true;
  std::optional<LayerFilter> filter_;
  std::size_t found_ = 0;
};

}  // namespace stream_detail

/// One file cell merged into a Library cell by build_library.
struct CellPiece {
  std::size_t file_index;    ///< LayoutStream::read_cell index
  ShapeCounts shape_counts;  ///< polygons it carries, per layer
};

/// Per CellId, the file cells that merged into it, in file order.
using CellPieces = std::vector<std::vector<CellPiece>>;

/// Drains @p stream from its current position into a Library: file cells
/// with the same name merge into one cell (GDSII allows duplicate STRNAME
/// structures; shapes and references concatenate in file order), references
/// resolve by name, and the hierarchy is validated (Library::validate).
/// With @p with_geometry false the cells carry references only. @p pieces,
/// when non-null, receives the file cells behind each CellId.
Library build_library(LayoutStream& stream, bool with_geometry = true,
                      CellPieces* pieces = nullptr);

/// Reads a whole library with build_library (extension dispatch as
/// open_layout_stream). Equivalent to read_gds / read_oas.
Library read_layout(const std::string& path);

/// Writes @p lib by extension (write_gds / write_oas).
void write_layout(const Library& lib, const std::string& path);

/// Streaming-ingestion knobs.
struct IngestOptions {
  /// Top cell name; empty auto-detects the unique unreferenced cell (throws
  /// DataError when the file has none or several).
  std::string top;

  /// Layer to flatten.
  LayerKey layer;

  /// Maximum simultaneously resident parsed cells during the flatten pass
  /// (the read-ahead window). Cells evicted from the window are re-parsed
  /// from their byte offset when revisited.
  std::size_t window = 16;
};

/// Streaming-ingestion counters (PrepResult::ingest surfaces these).
struct IngestStats {
  std::size_t cells = 0;          ///< cells in the file
  std::size_t placements = 0;     ///< expanded instances visited (incl. top)
  std::size_t polygons = 0;       ///< polygons emitted on the target layer
  std::size_t peak_resident = 0;  ///< max parsed cells held at once (<= window)
  std::size_t cell_parses = 0;    ///< geometry parse events in the flatten pass
  std::size_t reloads = 0;        ///< parses beyond the first per cell (evictions paid)
};

/// The top cell IngestOptions::top selects in @p lib: the cell named
/// @p name, or for an empty name the unique unreferenced cell. Throws
/// DataError when there is no such cell, or several.
CellId find_top(const Library& lib, const std::string& name);

/// Flattens one layer of the streamed layout depth-first, emitting every
/// polygon transformed to top coordinates — the streaming counterpart of
/// Library::flatten, walked by the same Library::each_instance. The
/// directory pass validates the hierarchy (undefined references, cycles,
/// depth) before any geometry is emitted.
IngestStats stream_layer(LayoutStream& stream, const IngestOptions& options,
                         const std::function<void(const Polygon&)>& emit);

struct StreamFractureResult {
  FractureResult fracture;
  IngestStats ingest;
};

/// Streams one layer directly into the boolean/fracture engine: polygons are
/// added to the scanline merge as they are emitted and never stored as a
/// PolygonSet. The resulting shots are bitwise-identical to
/// fracture(lib.flatten(top, layer), options) on the same file.
/// @p collect, when non-null, additionally accumulates the flattened
/// geometry (used by the pipeline's EPE stage, which needs the target).
/// The merge runs on @p threads (0 = auto), as in fracture(PolygonSet).
StreamFractureResult stream_fracture(LayoutStream& stream,
                                     const IngestOptions& options,
                                     const FractureOptions& fracture_options,
                                     PolygonSet* collect = nullptr, int threads = 0);

}  // namespace ebl
