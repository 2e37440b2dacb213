// The layout library: owns cells, resolves hierarchy, flattens geometry.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/polygon_set.h"
#include "layout/cell.h"

namespace ebl {

/// Aggregate hierarchy statistics (see Library::stats).
struct LibraryStats {
  std::size_t cells = 0;
  std::size_t local_shapes = 0;        ///< shapes stored across all cells
  std::size_t references = 0;          ///< reference records (arrays count once)
  std::uint64_t flat_instances = 0;    ///< expanded instances under the top cell
  std::uint64_t flat_shapes = 0;       ///< expanded shapes under the top cell
};

/// A GDSII-style library: a set of named cells with hierarchy.
///
/// Database units are fixed at 1 dbu = @p dbu_in_microns µm (default 1 nm).
/// The hierarchy must be acyclic and at most 64 levels deep; validate()
/// checks, and every walk (each_instance and what is built on it) validates
/// first.
class Library {
 public:
  explicit Library(std::string name, double dbu_in_microns = 0.001);

  const std::string& name() const { return name_; }
  double dbu_in_microns() const { return dbu_um_; }

  /// Creates a new empty cell; names must be unique (DataError otherwise).
  CellId add_cell(const std::string& cell_name);

  std::optional<CellId> find_cell(const std::string& cell_name) const;

  Cell& cell(CellId id);
  const Cell& cell(CellId id) const;
  std::size_t cell_count() const { return cells_.size(); }

  /// Cells not referenced by any other cell.
  std::vector<CellId> top_cells() const;

  /// Throws DataError if the hierarchy contains a reference cycle, a
  /// dangling CellId, or a cell with more than 64 levels below it.
  void validate() const;

  /// The one hierarchy walker: validates, then visits every expanded
  /// instance (including array elements, rows outer, columns inner) beneath
  /// @p top depth-first, with the accumulated parent-to-root transform. The
  /// visitor is called for @p top itself with the identity transform, before
  /// the references of each cell. A place_on_grid failure inside the visitor
  /// becomes a DataError naming the instance's cell path (TOP/MID/LEAF).
  void each_instance(CellId top,
                     const std::function<void(CellId, const CTrans&)>& visit) const;

  /// All shapes of @p layer beneath @p top, transformed to top coordinates.
  PolygonSet flatten(CellId top, LayerKey layer) const;

  /// All layers used anywhere beneath @p top.
  std::vector<LayerKey> layers_under(CellId top) const;

  /// Bounding box over all layers beneath @p top (cached per cell). Throws
  /// DataError when it leaves the 32-bit grid.
  Box bbox(CellId top) const;

  LibraryStats stats(CellId top) const;

 private:
  void check_id(CellId id) const;

  std::string name_;
  double dbu_um_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, CellId> index_;  ///< name -> id
  mutable std::vector<std::optional<Box>> bbox_cache_;
};

/// @p p transformed by an each_instance transform @p t. Throws DataError
/// when the result would leave the 32-bit grid instead of wrapping; inside
/// an each_instance visitor the error names the instance's cell path.
Polygon place_on_grid(const Polygon& p, const CTrans& t);

}  // namespace ebl
