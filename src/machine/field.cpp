#include "machine/field.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "fracture/fracture.h"
#include "util/contracts.h"
#include "util/gridkeys.h"
#include "util/parallel.h"

namespace ebl {
namespace {

Box pattern_bbox(const ShotList& shots) {
  Box b;
  for (const Shot& s : shots) b += s.shape.bbox();
  return b;
}

/// Per-shot inclusive field-index range, all in 64-bit (indices are relative
/// to the pattern bbox corner, so they are non-negative and fit 32 bits even
/// for full-Coord-range extents).
struct FieldRange {
  Coord64 fx0, fx1, fy0, fy1;
  bool straddles() const { return fx0 != fx1 || fy0 != fy1; }
};

FieldRange field_range(const Box& sb, Point anchor, Coord field_size) {
  return {(Coord64(sb.lo.x) - anchor.x) / field_size,
          (Coord64(sb.hi.x) - anchor.x) / field_size,
          (Coord64(sb.lo.y) - anchor.y) / field_size,
          (Coord64(sb.hi.y) - anchor.y) / field_size};
}

/// Field frame computed in Coord64 end to end and only narrowed after
/// clamping to the coordinate range. The clamp is lossless for clipping:
/// shots live inside the Coord range, so a frame edge past it cuts nothing.
/// (The previous implementation narrowed anchor + (fx + 1) * field_size with
/// a bare static_cast<Coord>, which silently wrapped for extents near the
/// 32-bit edge.)
Box field_frame(Point anchor, Coord64 fx, Coord64 fy, Coord field_size) {
  const auto clamp_coord = [](Coord64 v) {
    return static_cast<Coord>(
        std::clamp<Coord64>(v, std::numeric_limits<Coord>::min(),
                            std::numeric_limits<Coord>::max()));
  };
  const Coord64 x0 = Coord64(anchor.x) + fx * field_size;
  const Coord64 y0 = Coord64(anchor.y) + fy * field_size;
  return Box{clamp_coord(x0), clamp_coord(y0), clamp_coord(x0 + field_size),
             clamp_coord(y0 + field_size)};
}

}  // namespace

FieldPartition partition_fields_counted(const ShotList& shots, Coord field_size,
                                        int threads) {
  expects(field_size > 0, "partition_fields: field size must be positive");
  FieldPartition out;
  const Box bb = pattern_bbox(shots);
  if (bb.empty()) return out;

  // Pass 1 (parallel): every shot's field-index range — the one bbox sweep
  // both the partitioner and the straddler count consume.
  const std::size_t n = shots.size();
  std::vector<FieldRange> ranges(n);
  parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          ranges[i] = field_range(shots[i].shape.bbox(), bb.lo, field_size);
      },
      threads);

  // Pass 2: straddlers, per-shot incidence offsets, and the occupied-field
  // key set (moved into the slot map, no copy). Each incidence then resolves
  // to its slot exactly once, shot-parallel, recomputing its key from the
  // retained ranges; the CSR count and fill passes run on resolved slots,
  // with shots visited in index order so every field's list ascends.
  std::vector<std::uint32_t> inc_start(n + 1, 0);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < n; ++i) {
    const FieldRange& r = ranges[i];
    out.straddlers += r.straddles() ? 1 : 0;
    for (Coord64 fy = r.fy0; fy <= r.fy1; ++fy)
      for (Coord64 fx = r.fx0; fx <= r.fx1; ++fx) keys.push_back(pack_grid_key(fx, fy));
    inc_start[i + 1] = static_cast<std::uint32_t>(keys.size());
  }
  const std::size_t total = keys.size();
  const GridKeySlots slots(std::move(keys));
  const std::size_t nf = slots.size();
  std::vector<std::uint32_t> inc_slot(total);
  std::vector<std::uint32_t> inc_shot(total);
  parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const FieldRange& r = ranges[i];
          std::uint32_t k = inc_start[i];
          for (Coord64 fy = r.fy0; fy <= r.fy1; ++fy) {
            for (Coord64 fx = r.fx0; fx <= r.fx1; ++fx) {
              inc_slot[k] = static_cast<std::uint32_t>(slots.slot_of(pack_grid_key(fx, fy)));
              inc_shot[k] = static_cast<std::uint32_t>(i);
              ++k;
            }
          }
        }
      },
      threads);

  std::vector<std::uint32_t> start(nf + 1, 0);
  for (const std::uint32_t slot : inc_slot) ++start[slot + 1];
  for (std::size_t f = 1; f <= nf; ++f) start[f] += start[f - 1];
  std::vector<std::uint32_t> items(total);
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t k = 0; k < total; ++k) items[cursor[inc_slot[k]]++] = inc_shot[k];
  }

  // Pass 3 (parallel fill): each field clips its incident shots in ascending
  // shot order — disjoint outputs, so the partition is thread-count
  // independent. A valid shot that straddles no boundary lies inside its
  // field, where the clip would return it unchanged, so it is copied.
  out.fields.resize(nf);
  parallel_for(
      nf,
      [&](std::size_t f0, std::size_t f1) {
        for (std::size_t f = f0; f < f1; ++f) {
          const Coord64 fx = grid_key_x(slots.key(f));
          const Coord64 fy = grid_key_y(slots.key(f));
          FieldJob& job = out.fields[f];
          job.field = field_frame(bb.lo, fx, fy, field_size);
          job.shots.reserve(start[f + 1] - start[f]);
          for (std::uint32_t k = start[f]; k < start[f + 1]; ++k) {
            const Shot& s = shots[items[k]];
            if (!ranges[items[k]].straddles() && s.shape.valid()) {
              job.shots.push_back(s);
              continue;
            }
            for (const Trapezoid& piece : clip_trapezoid(s.shape, job.field))
              job.shots.push_back(Shot{piece, s.dose});
          }
        }
      },
      threads);

  // A shot's bbox may graze a field its shape never enters (slanted sides):
  // such fields end up empty and are dropped, like the map-based
  // implementation dropped them by never inserting.
  out.fields.erase(std::remove_if(out.fields.begin(), out.fields.end(),
                                  [](const FieldJob& j) { return j.shots.empty(); }),
                   out.fields.end());
  return out;
}

std::vector<FieldJob> partition_fields(const ShotList& shots, Coord field_size) {
  return partition_fields_counted(shots, field_size).fields;
}

std::size_t count_boundary_straddlers(const ShotList& shots, Coord field_size) {
  expects(field_size > 0, "count_boundary_straddlers: field size must be positive");
  const Box bb = pattern_bbox(shots);
  std::size_t straddlers = 0;
  for (const Shot& s : shots) {
    straddlers +=
        field_range(s.shape.bbox(), bb.lo, field_size).straddles() ? 1 : 0;
  }
  return straddlers;
}

}  // namespace ebl
