// Umbrella header: the full pmcorr public API.
//
//   #include "pmcorr.h"
//
// Pulls in the pairwise transition probability model (the ICDCS'09
// paper's contribution), the system-wide monitoring engine, the trace
// simulator, the baselines and the persistence layer. Include individual
// headers instead when compile time matters.
#pragma once

// Core model (the paper's contribution).
#include "core/calibration.h"
#include "core/config.h"
#include "core/fitness.h"
#include "core/model.h"
#include "core/time_conditioned.h"
#include "core/transition_matrix.h"

// Grid substrate.
#include "grid/grid.h"
#include "grid/interval.h"
#include "grid/kernels.h"
#include "grid/partitioner.h"

// Monitoring engine.
#include "engine/alarm.h"
#include "engine/drilldown.h"
#include "engine/evaluation.h"
#include "engine/incident.h"
#include "engine/localizer.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "engine/scorecard.h"

// Time series and traces.
#include "timeseries/frame.h"
#include "timeseries/series.h"
#include "timeseries/summary.h"

// Telemetry simulation.
#include "telemetry/faults.h"
#include "telemetry/generator.h"
#include "telemetry/queueing.h"
#include "telemetry/scenarios.h"
#include "telemetry/suite.h"
#include "telemetry/topology.h"
#include "telemetry/workload.h"

// Baselines.
#include "baselines/ewma.h"
#include "baselines/gmm.h"
#include "baselines/linear_invariant.h"
#include "baselines/static_density.h"
#include "baselines/subspace.h"
#include "baselines/zscore.h"

// Persistence.
#include "io/csv.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

// Utilities.
#include "common/rng.h"
#include "common/sparkline.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/time.h"
#include "common/types.h"
