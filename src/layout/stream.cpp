#include "layout/stream.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <list>
#include <optional>

#include "geom/boolean.h"
#include "layout/gdsii.h"
#include "layout/oasis.h"
#include "util/contracts.h"

namespace ebl {

const std::vector<Polygon>& StreamCell::shapes_on(LayerKey layer) const {
  static const std::vector<Polygon> kEmpty;
  const auto it = shapes.find(layer);
  return it == shapes.end() ? kEmpty : it->second;
}

std::size_t StreamCell::shape_count() const {
  std::size_t n = 0;
  for (const auto& [layer, count] : shape_counts) n += count;
  return n;
}

std::string LayoutStream::name_of(std::uint64_t) const {
  throw DataError("layout stream has no refnum name table");
}

namespace {

enum class LayoutFormat { gds, oas };

/// Extension dispatch shared by open_layout_stream / read_layout /
/// write_layout. Case-insensitive; throws for anything unrecognized.
LayoutFormat format_of(const std::string& path) {
  const auto dot = path.rfind('.');
  std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  for (char& c : ext) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (ext == "gds" || ext == "gdsii") return LayoutFormat::gds;
  if (ext == "oas" || ext == "oasis") return LayoutFormat::oas;
  throw DataError("unsupported layout extension: " + path);
}

/// LRU cache of parsed file cells, each holding one layer's polygons (the
/// filtered re-read). Holding at most @p window cells is the whole point of
/// the streaming path: everything else is O(cells) names and edges, never
/// geometry.
class CellCache {
 public:
  CellCache(LayoutStream& stream, std::size_t window, IngestStats& stats)
      : stream_(stream), window_(window), stats_(stats) {}

  const StreamCell& fetch(std::size_t file_index, const LayerFilter& filter) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == file_index) {
        lru_.splice(lru_.begin(), lru_, it);  // touch
        return lru_.front().second;
      }
    }
    // Evict before parsing so the bound holds at every instant — the new
    // cell must never coexist with a full window.
    if (lru_.size() >= window_) lru_.pop_back();
    if (file_index < parsed_.size() && parsed_[file_index]) ++stats_.reloads;
    if (file_index >= parsed_.size()) parsed_.resize(file_index + 1, false);
    parsed_[file_index] = true;
    ++stats_.cell_parses;
    lru_.emplace_front(file_index, stream_.read_cell(file_index, filter));
    stats_.peak_resident = std::max(stats_.peak_resident, lru_.size());
    return lru_.front().second;
  }

 private:
  LayoutStream& stream_;
  std::size_t window_;
  IngestStats& stats_;
  std::list<std::pair<std::size_t, StreamCell>> lru_;
  std::vector<bool> parsed_;
};

}  // namespace

Library build_library(LayoutStream& stream, bool with_geometry, CellPieces* pieces) {
  std::vector<StreamCell> cells;
  for (StreamCell c; stream.next(c, with_geometry);) cells.push_back(std::move(c));

  // OASIS name tables may follow the cells that use them; after the pass
  // they are complete. Cells sharing a name merge into the first one.
  Library lib(stream.library_name(), stream.dbu_in_microns());
  std::vector<CellId> ids;
  ids.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    StreamCell& c = cells[i];
    if (c.name.empty()) c.name = stream.name_of(c.refnum);
    const std::optional<CellId> existing = lib.find_cell(c.name);
    ids.push_back(existing ? *existing : lib.add_cell(c.name));
    if (pieces) {
      pieces->resize(lib.cell_count());
      (*pieces)[ids.back().value].push_back({i, std::move(c.shape_counts)});
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& cell = lib.cell(ids[i]);
    for (auto& [layer, polys] : cells[i].shapes) {
      for (Polygon& p : polys) cell.add_shape(layer, std::move(p));
    }
    for (StreamRef& r : cells[i].refs) {
      if (r.child.empty()) r.child = stream.name_of(r.child_refnum);
      const std::optional<CellId> child = lib.find_cell(r.child);
      if (!child) throw DataError("reference to undefined cell " + r.child);
      cell.add_reference(Reference{*child, r.trans, r.cols, r.rows, r.col_step, r.row_step});
    }
  }
  lib.validate();
  return lib;
}

CellId find_top(const Library& lib, const std::string& name) {
  if (!name.empty()) {
    const std::optional<CellId> id = lib.find_cell(name);
    if (!id) throw DataError("top cell not found: " + name);
    return *id;
  }
  const std::vector<CellId> tops = lib.top_cells();
  if (tops.empty()) throw DataError("no unreferenced cell to use as top");
  if (tops.size() > 1) throw DataError("several unreferenced cells; pass an explicit top");
  return tops.front();
}

IngestStats stream_layer(LayoutStream& stream, const IngestOptions& options,
                         const std::function<void(const Polygon&)>& emit) {
  expects(options.window >= 1, "stream_layer: window must be at least 1");

  // Pass 1: the directory skim builds a geometry-free, validated skeleton.
  stream.rewind();
  CellPieces pieces;
  const Library skeleton = build_library(stream, /*with_geometry=*/false, &pieces);
  const CellId top = find_top(skeleton, options.top);

  // Pass 2: walk the skeleton, fetching each instance's pieces (in file
  // order) through the bounded cell window. A piece with no shape on the
  // layer is never re-read.
  IngestStats stats;
  stats.cells = stream.cells_seen();
  CellCache cache(stream, options.window, stats);
  skeleton.each_instance(top, [&](CellId id, const CTrans& t) {
    ++stats.placements;
    for (const CellPiece& piece : pieces[id.value]) {
      const auto count = piece.shape_counts.find(options.layer);
      if (count == piece.shape_counts.end()) continue;
      const LayerFilter filter{options.layer, count->second};
      for (const Polygon& p : cache.fetch(piece.file_index, filter).shapes_on(options.layer)) {
        ++stats.polygons;
        emit(place_on_grid(p, t));
      }
    }
  });
  return stats;
}

StreamFractureResult stream_fracture(LayoutStream& stream,
                                     const IngestOptions& options,
                                     const FractureOptions& fracture_options,
                                     PolygonSet* collect, int threads) {
  // Mirror fracture(PolygonSet): same rectilinearity contract, same engine,
  // same add order — so the trapezoids (and therefore the shots) come out
  // bitwise-identical to the in-RAM path.
  BooleanEngine eng;
  const IngestStats ingest =
      stream_layer(stream, options, [&](const Polygon& p) {
        check_fracture_input(p, fracture_options);
        eng.add(p, 0);
        if (collect) collect->insert(p);
      });
  const bool merge = fracture_options.strategy != FractureStrategy::bands;
  StreamFractureResult out;
  out.fracture = fracture(eng.trapezoids(BoolOp::Or, merge, threads), fracture_options);
  out.ingest = ingest;
  return out;
}

std::unique_ptr<LayoutStream> open_layout_stream(const std::string& path) {
  switch (format_of(path)) {
    case LayoutFormat::gds:
      return open_gds_stream(path);
    case LayoutFormat::oas:
      return open_oas_stream(path);
  }
  throw DataError("unsupported layout extension: " + path);  // unreachable
}

Library read_layout(const std::string& path) {
  return build_library(*open_layout_stream(path));
}

void write_layout(const Library& lib, const std::string& path) {
  switch (format_of(path)) {
    case LayoutFormat::gds:
      write_gds(lib, path);
      return;
    case LayoutFormat::oas:
      write_oas(lib, path);
      return;
  }
}

}  // namespace ebl
