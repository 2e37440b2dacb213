// Pattern fracturing: polygons -> machine trapezoids/rectangles.
//
// This is the central CAD step of the 1979 e-beam flow: hierarchical CAD
// polygons must be decomposed into the figures the pattern generator can
// flash. The decomposition quality is measured by figure count (write time)
// and sliver count (figures thinner than the resist/beam can resolve, which
// cause CD errors).
#pragma once

#include <cstdint>

#include "fracture/shot.h"
#include "geom/polygon_set.h"

namespace ebl {

/// Decomposition strategy.
enum class FractureStrategy : std::uint8_t {
  bands,         ///< raw scanline bands (one trapezoid per band interval)
  merged_traps,  ///< bands with vertically-collinear trapezoids fused (default)
  rectangles,    ///< rectangles only; requires rectilinear input
};

struct FractureOptions {
  FractureStrategy strategy = FractureStrategy::merged_traps;

  /// Maximum shot edge length in dbu (VSB aperture limit); 0 = unlimited.
  /// Figures larger than this are split into a grid of shots.
  Coord max_shot_size = 0;

  /// Figures with a dimension below this count as slivers in the stats.
  Coord sliver_threshold = 0;
};

struct FractureStats {
  std::size_t figures = 0;     ///< figures before shot-size splitting
  std::size_t shots = 0;       ///< shots after splitting
  std::size_t rectangles = 0;  ///< of the shots
  std::size_t triangles = 0;   ///< of the shots (one degenerate side)
  std::size_t slivers = 0;     ///< shots with a dimension < sliver_threshold
  double area = 0.0;           ///< total shot area, dbu²
};

struct FractureResult {
  ShotList shots;
  FractureStats stats;
};

/// Throws DataError when @p options asks for the rectangles strategy and
/// @p p (its outer ring or a hole) is not rectilinear — the input check of
/// fracture(PolygonSet) and of the streamed path, one polygon at a time.
void check_fracture_input(const Polygon& p, const FractureOptions& options);

/// Fractures the merged region of @p set into shots. The merge runs on
/// @p threads (0 = auto); the shots are the same bits for any count.
/// Throws DataError when strategy == rectangles and the input is not
/// rectilinear.
FractureResult fracture(const PolygonSet& set, const FractureOptions& options = {},
                        int threads = 0);

/// Fractures an already-decomposed trapezoid list (splitting + stats only).
FractureResult fracture(const std::vector<Trapezoid>& traps,
                        const FractureOptions& options = {});

/// Splits one trapezoid into shots no larger than @p max_size in either
/// dimension. Vertical cuts through slanted sides introduce sub-bands so
/// every piece remains a horizontal trapezoid. Exposed for testing.
std::vector<Trapezoid> split_to_max_size(const Trapezoid& t, Coord max_size);

/// Clips a trapezoid to a box; pieces remain horizontal trapezoids (the
/// vertical cuts split sub-bands where slanted sides cross the box edges).
/// Used by field partitioning for shots straddling field boundaries.
std::vector<Trapezoid> clip_trapezoid(const Trapezoid& t, const Box& box);

}  // namespace ebl
