// Cells: named containers of per-layer geometry and references to other
// cells (the hierarchical mask-data model of the 1979 flow).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/polygon.h"
#include "geom/transform.h"
#include "layout/layer.h"

namespace ebl {

/// Opaque cell handle within a Library.
struct CellId {
  std::uint32_t value = 0;
  friend constexpr bool operator==(CellId, CellId) = default;
  friend constexpr auto operator<=>(CellId, CellId) = default;
};

/// A placement of a child cell: single instance or a regular array.
/// The array places cols x rows copies stepped by col_step / row_step
/// (applied in the parent's coordinate system, after @p trans orientation —
/// GDSII AREF semantics).
struct Reference {
  CellId child;
  CTrans trans;
  std::uint32_t cols = 1;
  std::uint32_t rows = 1;
  Point col_step{0, 0};
  Point row_step{0, 0};

  bool is_array() const { return cols > 1 || rows > 1; }
  std::uint64_t instance_count() const {
    return static_cast<std::uint64_t>(cols) * rows;
  }

  /// Transform of array element (@p col, @p row): @p trans shifted by the
  /// steps in parent coordinates, in 64 bits so a far element cannot wrap.
  CTrans placement(std::uint32_t col, std::uint32_t row) const {
    return trans.translated(Coord64(col_step.x) * col + Coord64(row_step.x) * row,
                            Coord64(col_step.y) * col + Coord64(row_step.y) * row);
  }
};

/// One cell: geometry per layer plus child references.
class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add_shape(LayerKey layer, Polygon poly) {
    shapes_[layer].push_back(std::move(poly));
  }
  void add_shape(LayerKey layer, const SimplePolygon& poly) {
    shapes_[layer].emplace_back(poly);
  }
  void add_shape(LayerKey layer, const Box& box) {
    shapes_[layer].push_back(Polygon::rect(box));
  }

  void add_reference(Reference ref) { refs_.push_back(ref); }

  const std::map<LayerKey, std::vector<Polygon>>& shapes() const { return shapes_; }
  const std::vector<Polygon>& shapes_on(LayerKey layer) const;
  const std::vector<Reference>& references() const { return refs_; }

  /// Layers that have at least one shape in this cell (not descendants).
  std::vector<LayerKey> layers() const;

  /// Shape count in this cell only.
  std::size_t local_shape_count() const;

  /// Bounding box of local shapes only (no descendants).
  Box local_bbox() const;

 private:
  std::string name_;
  std::map<LayerKey, std::vector<Polygon>> shapes_;
  std::vector<Reference> refs_;
};

}  // namespace ebl
