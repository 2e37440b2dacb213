// Umbrella header: the complete public API of the ebl toolkit.
//
// Layering (each header usable on its own):
//   geom     — integer geometry kernel: points, polygons, booleans,
//              trapezoids, sizing, curves, rasterization
//   layout   — hierarchical cell database + GDSII/OASIS I/O + streaming
//              cell-at-a-time ingestion
//   fracture — polygon -> machine-shot decomposition + EBF records
//   pec      — point-spread functions, exposure evaluation, dose correction
//   sim      — resist models, exposure simulation, contours, CD metrics,
//              EPE scoring, and the machine-realistic scenario matrix
//   machine  — writer timing models, field partitioning, distortion
//   core     — workload generators and the end-to-end data-prep pipeline
#pragma once

#include "core/job.h"
#include "core/patterns.h"
#include "fracture/ebf.h"
#include "fracture/fracture.h"
#include "geom/boolean.h"
#include "geom/curves.h"
#include "geom/polygon_set.h"
#include "geom/sizing.h"
#include "layout/gdsii.h"
#include "layout/library.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "machine/distortion.h"
#include "machine/field.h"
#include "machine/ordering.h"
#include "machine/writer.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "pec/psf.h"
#include "pec/sharded.h"
#include "sim/epe.h"
#include "sim/exposure_sim.h"
#include "sim/resist.h"
#include "sim/scenarios.h"
