// Domain example: the iso-dense proximity problem and its correction.
//
// A dense 1:1 line/space grating next to an isolated line of the same width
// receives very different backscatter. This example prints the exposure
// profile across both before and after PEC, plus the printed CD at a fixed
// resist threshold — the numbers behind the classic proximity-effect
// figure.
//
// The simulate_exposure calls raster at 25 nm (alpha/2), where the 3 um
// backscatter kernel would span ~480 pixels; simulate_exposure blurs that
// term on a 30x coarser map and reads it back bilinearly at every pixel.
#include <iostream>

#include "util/artifacts.h"
#include "core/ebl.h"
#include "util/csv.h"
#include "util/table.h"

using namespace ebl;

int main() {
  const Coord w = 500;      // 0.5 µm lines
  const Coord pitch = 1000; // 1:1 duty
  const Coord len = 40000;  // 40 µm long

  PolygonSet pattern = line_space_array({0, 0}, w, pitch, len, 21);
  pattern.insert(Box{40000, 0, 40000 + w, len});  // isolated line 19 µm away

  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  const ShotList uncorrected = fracture(pattern).shots;

  PecOptions popt;
  popt.max_iterations = 8;
  popt.tolerance = 0.01;
  const PecResult pec = correct_proximity(uncorrected, psf, popt);

  // Profiles across the grating center and the isolated line.
  const Point a{-1500, len / 2};
  const Point b{42500, len / 2};
  const Raster before = simulate_exposure(uncorrected, psf, {.pixel = 25});
  const Raster after = simulate_exposure(pec.shots, psf, {.pixel = 25});

  const auto report = [&](const char* what, const Raster& map) {
    // Center of the middle dense line vs. center of the iso line.
    const double dense = profile_along(map, Point{10250, len / 2},
                                       Point{10251, len / 2}, 2)[0];
    const double iso = profile_along(map, Point{40250, len / 2},
                                     Point{40251, len / 2}, 2)[0];
    const double level = 0.42;  // fixed resist threshold
    // Window straddles exactly one grating line (line 10 spans 10000..10500;
    // neighbors end at 9500 and start at 11000).
    const auto cd_dense =
        measure_cd(map, level, Point{9750, len / 2}, Point{10750, len / 2}, 801);
    const auto cd_iso =
        measure_cd(map, level, Point{39500, len / 2}, Point{41500, len / 2}, 801);
    std::cout << what << ": dense-center E=" << fixed(dense, 3)
              << "  iso-center E=" << fixed(iso, 3)
              << "  CD dense=" << (cd_dense ? fixed(*cd_dense, 0) : "n/a")
              << "nm  CD iso=" << (cd_iso ? fixed(*cd_iso, 0) : "n/a")
              << "nm  bias=" << ((cd_dense && cd_iso) ? fixed(*cd_dense - *cd_iso, 0) : "n/a")
              << "nm\n";
  };

  std::cout << "0.5um lines, eta=0.7, beta=3um; threshold resist @0.42\n";
  report("uncorrected", before);
  report("corrected  ", after);

  std::cout << "\nPEC convergence (max exposure error per iteration):\n";
  for (std::size_t i = 0; i < pec.max_error_history.size(); ++i)
    std::cout << "  iter " << i << ": " << fixed(pec.max_error_history[i], 4) << '\n';

  // Dump the full profile as CSV for plotting.
  CsvWriter csv(artifact_path("pec_profile.csv"));
  csv.header({"x_nm", "exposure_uncorrected", "exposure_corrected"});
  const auto p0 = profile_along(before, a, b, 1761);
  const auto p1 = profile_along(after, a, b, 1761);
  for (std::size_t i = 0; i < p0.size(); ++i) {
    const double x = a.x + (double(b.x) - a.x) * double(i) / (p0.size() - 1);
    csv.row(x, p0[i], p1[i]);
  }
  std::cout << "\nwrote pec_profile.csv (" << p0.size() << " samples)\n";
  return 0;
}
