#include "layout/library.h"

#include <algorithm>
#include <set>

#include "util/contracts.h"

namespace ebl {

namespace {

constexpr int kMaxDepth = 64;  ///< levels below any cell, GDSII-style

/// Thrown by place_on_grid; each_instance rethrows it as a DataError that
/// names the instance's cell path.
class OffGrid : public DataError {
 public:
  using DataError::DataError;
};

}  // namespace

Polygon place_on_grid(const Polygon& p, const CTrans& t) {
  if (!t.keeps_on_grid(p.bbox()))
    throw OffGrid("placed polygon leaves the 32-bit coordinate grid");
  return p.transformed(t);
}

Library::Library(std::string name, double dbu_in_microns)
    : name_(std::move(name)), dbu_um_(dbu_in_microns) {
  expects(dbu_in_microns > 0, "Library: dbu must be positive");
}

CellId Library::add_cell(const std::string& cell_name) {
  expects(!cell_name.empty(), "Library::add_cell: empty name");
  const CellId id{static_cast<std::uint32_t>(cells_.size())};
  if (!index_.emplace(cell_name, id).second)
    throw DataError("duplicate cell name: " + cell_name);
  cells_.emplace_back(cell_name);
  bbox_cache_.emplace_back();
  return id;
}

std::optional<CellId> Library::find_cell(const std::string& cell_name) const {
  const auto it = index_.find(cell_name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void Library::check_id(CellId id) const {
  expects(id.value < cells_.size(), "Library: invalid CellId");
}

Cell& Library::cell(CellId id) {
  check_id(id);
  bbox_cache_[id.value].reset();  // mutation invalidates the cache
  return cells_[id.value];
}

const Cell& Library::cell(CellId id) const {
  check_id(id);
  return cells_[id.value];
}

std::vector<CellId> Library::top_cells() const {
  std::vector<bool> referenced(cells_.size(), false);
  for (const Cell& c : cells_) {
    for (const Reference& r : c.references()) {
      if (r.child.value < cells_.size()) referenced[r.child.value] = true;
    }
  }
  std::vector<CellId> tops;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!referenced[i]) tops.push_back(CellId{static_cast<std::uint32_t>(i)});
  }
  return tops;
}

void Library::validate() const {
  // Depth-first from every cell in index order, memoizing each cell's
  // height (levels below it). The recursion never goes deeper than
  // kMaxDepth, so a chain of any length is rejected without exhausting the
  // stack.
  constexpr int kNew = -1;
  constexpr int kOnStack = -2;
  std::vector<int> height(cells_.size(), kNew);
  std::size_t root = 0;
  const auto too_deep = [&] {
    return DataError("hierarchy deeper than " + std::to_string(kMaxDepth) +
                     " levels under cell " + cells_[root].name());
  };
  std::function<int(std::size_t, int)> dfs = [&](std::size_t i, int depth) {
    if (depth > kMaxDepth) throw too_deep();
    height[i] = kOnStack;
    int h = 0;
    for (const Reference& r : cells_[i].references()) {
      if (r.child.value >= cells_.size())
        throw DataError("dangling cell reference in " + cells_[i].name());
      const int child = height[r.child.value];
      if (child == kOnStack)
        throw DataError("reference cycle through cell " + cells_[r.child.value].name());
      h = std::max(h, 1 + (child == kNew ? dfs(r.child.value, depth + 1) : child));
    }
    if (depth + h > kMaxDepth) throw too_deep();
    return height[i] = h;
  };
  for (root = 0; root < cells_.size(); ++root) {
    if (height[root] == kNew) dfs(root, 0);
  }
}

void Library::each_instance(
    CellId top, const std::function<void(CellId, const CTrans&)>& visit) const {
  check_id(top);
  validate();  // bounds the recursion below by kMaxDepth
  std::vector<CellId> path;
  std::function<void(CellId, const CTrans&)> walk = [&](CellId id, const CTrans& t) {
    path.push_back(id);
    try {
      visit(id, t);
    } catch (const OffGrid& e) {
      std::string names;
      for (const CellId c : path) names += (names.empty() ? "" : "/") + cells_[c.value].name();
      throw DataError(std::string(e.what()) + " in cell path " + names);
    }
    for (const Reference& r : cells_[id.value].references()) {
      for (std::uint32_t row = 0; row < r.rows; ++row) {
        for (std::uint32_t col = 0; col < r.cols; ++col) walk(r.child, t * r.placement(col, row));
      }
    }
    path.pop_back();
  };
  walk(top, CTrans{});
}

PolygonSet Library::flatten(CellId top, LayerKey layer) const {
  PolygonSet out;
  each_instance(top, [&](CellId id, const CTrans& t) {
    for (const Polygon& p : cells_[id.value].shapes_on(layer)) out.insert(place_on_grid(p, t));
  });
  return out;
}

std::vector<LayerKey> Library::layers_under(CellId top) const {
  std::set<LayerKey> keys;
  each_instance(top, [&](CellId id, const CTrans&) {
    for (LayerKey k : cells_[id.value].layers()) keys.insert(k);
  });
  return {keys.begin(), keys.end()};
}

Box Library::bbox(CellId top) const {
  check_id(top);
  if (bbox_cache_[top.value]) return *bbox_cache_[top.value];
  Box b = cells_[top.value].local_bbox();
  for (const Reference& r : cells_[top.value].references()) {
    check_id(r.child);
    const Box child_box = bbox(r.child);
    if (child_box.empty()) continue;
    // Array steps are linear, so the union over the grid equals the union
    // over the four corner instances.
    for (const std::uint32_t row : {0u, r.rows - 1}) {
      for (const std::uint32_t col : {0u, r.cols - 1}) {
        const CTrans placed = r.placement(col, row);
        if (!placed.keeps_on_grid(child_box))
          throw DataError("bounding box leaves the 32-bit coordinate grid in cell " +
                          cells_[top.value].name());
        // Transform the child's box corners (conservative for rotations).
        b += placed(child_box.lo);
        b += placed(child_box.hi);
        b += placed(Point{child_box.lo.x, child_box.hi.y});
        b += placed(Point{child_box.hi.x, child_box.lo.y});
      }
    }
  }
  bbox_cache_[top.value] = b;
  return b;
}

LibraryStats Library::stats(CellId top) const {
  LibraryStats s;
  s.cells = cells_.size();
  for (const Cell& c : cells_) {
    s.local_shapes += c.local_shape_count();
    s.references += c.references().size();
  }
  each_instance(top, [&](CellId id, const CTrans&) {
    s.flat_instances += 1;
    s.flat_shapes += cells_[id.value].local_shape_count();
  });
  s.flat_instances -= 1;  // do not count the top cell itself
  return s;
}

}  // namespace ebl
