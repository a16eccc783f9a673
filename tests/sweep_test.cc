// Unit coverage for the pure sweep pipeline (src/sim/sweep.h) and the grid
// side of src/sim/report.h: spec validation, deterministic stable-ordered
// cell expansion, byte-deterministic merging, grid report/pivot rendering,
// the grid diff's failure semantics (missing/extra cells and axis
// mismatches fail; they are never skipped), and the loader's refusal of
// any other telemetry schema version, flat or per cell.
#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/json_parse.h"
#include "sim/report.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string err;
  JsonValue v = JsonParser::parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  return v;
}

const char* kSpecText = R"({
  "schema": "tsxhpc-sweepspec-v1",
  "name": "mini",
  "bench": "fig2_stamp",
  "args": ["--ref=0"],
  "quick_args": ["--quick"],
  "full_args": [],
  "axes": [
    {"axis": "scheme", "flag": "--scheme", "values": ["sgl", "tsx"]},
    {"axis": "threads", "flag": "--threads", "values": ["1", "2", "4"]}
  ]
})";

SweepSpec parse_spec_ok(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_TRUE(parse_sweep_spec(parse_ok(text), spec, &err)) << err;
  return spec;
}

std::string parse_spec_error(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_FALSE(parse_sweep_spec(parse_ok(text), spec, &err)) << text;
  EXPECT_FALSE(err.empty());
  return err;
}

/// Load through the one artifact loader (sim/invariants.h); fails the test
/// on any load error.
JsonValue load_ok(const std::string& text) {
  std::string err;
  JsonValue v;
  EXPECT_TRUE(load_artifact(text, v, &err)) << err;
  return v;
}

/// A complete telemetry artifact with one single-thread run: every key the
/// invariant registry and the grid views read is present, and every
/// registry rule reconciles. `schema` overrides the version string for the
/// loader's schema tests.
std::string make_telemetry(const std::string& label, std::uint64_t makespan,
                           double abort_rate_pct, double wasted_pct,
                           const std::string& schema = kTelemetrySchema) {
  // The one thread's counters are also the run totals.
  char counters[1024];
  std::snprintf(
      counters, sizeof(counters),
      R"("tx_started":100,"tx_committed":90,"tx_aborted":10,)"
      R"("abort_rate_pct":%g,"aborts_by_cause":{"conflict":10},)"
      R"("tx_cycles_committed":9000,"tx_cycles_wasted":1000,)"
      R"("wasted_cycle_pct":%g,"cycles":{"work":4000,"tx_committed":9000,)"
      R"("tx_wasted":1000,"lock_wait":500,"fallback":300,"mem_stall":200,)"
      R"("total":15000},"backoff_cycles":0,)"
      R"("mem_stall_levels":{"l1":0,"xfer":40,"llc":60,"dram":100},)"
      R"("mem_accesses":200,"l1_hits":160,"l1_misses":40,"llc_hits":20,)"
      R"("llc_misses":10,"llc_evictions":4,"xfers_in":10,)"
      R"("slice_hops":0,"socket_hops":0,"hop_cycles":0)",
      abort_rate_pct, wasted_pct);
  return R"({"schema":")" + schema +
         R"(","bench":"fig2_stamp","runs":[{"label":")" + label +
         R"(","backend":"fiber","num_threads":1,"complete":true,)"
         R"("makespan":)" + std::to_string(makespan) +
         R"(,"totals":{)" + counters + "}," +
         R"("cache_levels":[{"level":"l1","served":160},)"
         R"({"level":"xfer","served":10},{"level":"llc","served":20},)"
         R"({"level":"dram","served":10}],)"
         R"("topology":{"sockets":1,"cores_per_socket":4,"slices":1,)"
         R"("map":"compact","lat_hop_slice":12,"lat_hop_socket":140,)"
         R"("slice_stats":[{"hits":20,"misses":10,"evictions":4,"xfers":10}],)"
         R"("socket_stats":[{"accesses":200,"dram_local":10,)"
         R"("dram_remote":0}]},"threads":[{"tid":0,)" + counters +
         R"(,"end_cycle":15000}],"locks":[],)"
         R"("samples":{"interval_cycles":32768,"count":0}}]})";
}

/// The merged artifact text for `spec`, each cell's telemetry from
/// `per_cell`.
template <typename Fn>
std::string merge_grid(const SweepSpec& spec, Fn per_cell) {
  const std::vector<SweepCell> cells = expand_cells(spec);
  std::vector<std::string> artifacts;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    artifacts.push_back(per_cell(cells[i], i));
  }
  return merge_sweep(spec, "quick", spec.args_for_scale("quick"), cells,
                     artifacts);
}

/// Build a merged artifact for kSpecText with per-cell makespans/rates
/// supplied by the callback.
template <typename Fn>
JsonValue make_grid(const SweepSpec& spec, Fn per_cell) {
  return load_ok(merge_grid(spec, per_cell));
}

TEST(SweepSpec, ParsesAndValidates) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.bench, "fig2_stamp");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "scheme");
  EXPECT_EQ(spec.axes[1].flag, "--threads");
  EXPECT_EQ(spec.cell_count(), 6u);
  const std::vector<std::string> quick = spec.args_for_scale("quick");
  ASSERT_EQ(quick.size(), 2u);
  EXPECT_EQ(quick[0], "--ref=0");
  EXPECT_EQ(quick[1], "--quick");
  EXPECT_EQ(spec.args_for_scale("full").size(), 1u);
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  auto mutate = [](const std::string& from, const std::string& to) {
    std::string s = kSpecText;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    s.replace(at, from.size(), to);
    return s;
  };
  EXPECT_NE(parse_spec_error(mutate("tsxhpc-sweepspec-v1", "bogus-v0"))
                .find("schema"),
            std::string::npos);
  parse_spec_error(mutate("\"name\": \"mini\"", "\"name\": \"\""));
  // Bench must be a binary name; the orchestrator owns path resolution.
  parse_spec_error(mutate("fig2_stamp", "../fig2_stamp"));
  // Axis names feed cell labels, so '=' and '/' are reserved.
  parse_spec_error(mutate("\"axis\": \"scheme\"", "\"axis\": \"sch=eme\""));
  parse_spec_error(mutate("\"axis\": \"scheme\"", "\"axis\": \"sch/eme\""));
  parse_spec_error(mutate("--scheme", "scheme"));  // flags must start with --
  parse_spec_error(mutate("\"axis\": \"threads\"", "\"axis\": \"scheme\""));
  parse_spec_error(mutate("[\"sgl\", \"tsx\"]", "[\"sgl\", \"sgl\"]"));
  parse_spec_error(mutate("[\"sgl\", \"tsx\"]", "[]"));
}

TEST(SweepExpand, StableOrderLastAxisFastest) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 6u);
  // Committed baselines name cells by these labels — this order is frozen.
  const std::vector<std::string> expected = {
      "scheme=sgl/threads=1", "scheme=sgl/threads=2", "scheme=sgl/threads=4",
      "scheme=tsx/threads=1", "scheme=tsx/threads=2", "scheme=tsx/threads=4",
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label, expected[i]);
  }
  ASSERT_EQ(cells[4].coords.size(), 2u);
  EXPECT_EQ(cells[4].coords[0], "tsx");
  EXPECT_EQ(cells[4].coords[1], "2");
  ASSERT_EQ(cells[4].flags.size(), 2u);
  EXPECT_EQ(cells[4].flags[0], "--scheme=tsx");
  EXPECT_EQ(cells[4].flags[1], "--threads=2");
}

TEST(SweepExpand, ExpansionIsDeterministic) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> a = expand_cells(spec);
  const std::vector<SweepCell> b = expand_cells(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].flags, b[i].flags);
  }
}

TEST(SweepMerge, ByteDeterministicAndWellFormed) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> cells = expand_cells(spec);
  std::vector<std::string> artifacts;
  for (const SweepCell& c : cells) {
    artifacts.push_back(make_telemetry(c.label, 1000, 5.0, 10.0));
  }
  const std::vector<std::string> eff = spec.args_for_scale("quick");
  const std::string merged = merge_sweep(spec, "quick", eff, cells, artifacts);
  EXPECT_EQ(merged, merge_sweep(spec, "quick", eff, cells, artifacts))
      << "merge must be byte-deterministic";

  const JsonValue doc = load_ok(merged);
  ASSERT_TRUE(is_sweep_doc(doc));
  EXPECT_EQ(doc.str("schema"), kSweepSchema);
  EXPECT_EQ(doc.str("sweep"), "mini");
  EXPECT_EQ(doc.str("scale"), "quick");
  ASSERT_EQ(doc.arr("cells").size(), 6u);
  const JsonValue& cell = doc.arr("cells").obj(4);
  EXPECT_EQ(cell.str("cell"), "scheme=tsx/threads=2");
  EXPECT_EQ(cell.obj("coords").str("scheme"), "tsx");
  EXPECT_EQ(cell.obj("coords").str("threads"), "2");
  // The cell's telemetry is spliced verbatim: same schema, same run label.
  EXPECT_EQ(cell.obj("telemetry").str("schema"), kTelemetrySchema);
  EXPECT_EQ(cell.obj("telemetry").arr("runs").obj(0).str("label"),
            "scheme=tsx/threads=2");
}

TEST(SweepReport, RendersGridAndScalingCurves) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    // Makespan halves per thread doubling: speedup 4.0 at t=4.
    const std::uint64_t t = std::stoull(c.coords[1]);
    return make_telemetry(c.label, 8000 / t, 5.0, 10.0);
  });
  const std::string report = render_sweep_report(doc, check_invariants(doc));
  EXPECT_NE(report.find("scheme(2) x threads(3)"), std::string::npos) << report;
  EXPECT_NE(report.find("scheme=sgl/threads=1"), std::string::npos);
  EXPECT_NE(report.find("scheme=tsx/threads=4"), std::string::npos);
  // Scaling curves: speedup vs the first thread value.
  EXPECT_NE(report.find("4.00"), std::string::npos) << report;
}

TEST(SweepPivot, KnownMetricsRenderUnknownInputsFail) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  std::string out;
  ASSERT_TRUE(render_sweep_pivot(doc, "scheme", "threads", "abort-rate", out))
      << out;
  EXPECT_NE(out.find("sgl"), std::string::npos);
  // The pivot recomputes the rate from summed counts (10/100), not from the
  // recorded abort_rate_pct field.
  EXPECT_NE(out.find("10.00"), std::string::npos) << out;
  out.clear();
  ASSERT_TRUE(render_sweep_pivot(doc, "threads", "scheme", "tx_wasted", out))
      << out;
  out.clear();
  EXPECT_FALSE(render_sweep_pivot(doc, "nope", "threads", "abort-rate", out));
  out.clear();
  EXPECT_FALSE(render_sweep_pivot(doc, "scheme", "threads", "bogus", out));
}

TEST(SweepDiff, SelfDiffPasses) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  std::string out;
  EXPECT_EQ(render_sweep_diff(doc, doc, DiffThresholds{}, out), 0) << out;
}

TEST(SweepDiff, MissingOrExtraCellIsAFailure) {
  const SweepSpec full = parse_spec_ok(kSpecText);
  std::string smaller = kSpecText;
  smaller.replace(smaller.find("[\"1\", \"2\", \"4\"]"),
                  std::string("[\"1\", \"2\", \"4\"]").size(), "[\"1\", \"2\"]");
  const SweepSpec sub = parse_spec_ok(smaller);
  auto fill = [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  };
  const JsonValue base = make_grid(full, fill);
  const JsonValue cur = make_grid(sub, fill);
  std::string out;
  // Dropped cells: non-zero failures, reported as mismatches, not skips.
  EXPECT_GT(render_sweep_diff(base, cur, DiffThresholds{}, out), 0);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
  EXPECT_EQ(out.find("skipped"), std::string::npos) << out;
  // Extra cells (reverse direction) fail too.
  out.clear();
  EXPECT_GT(render_sweep_diff(cur, base, DiffThresholds{}, out), 0);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
}

TEST(SweepDiff, AxisMismatchIsAFailure) {
  const SweepSpec a = parse_spec_ok(kSpecText);
  std::string renamed = kSpecText;
  renamed.replace(renamed.find("\"axis\": \"scheme\""),
                  std::string("\"axis\": \"scheme\"").size(),
                  "\"axis\": \"mode\"");
  const SweepSpec b = parse_spec_ok(renamed);
  auto fill = [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  };
  std::string out;
  EXPECT_GT(render_sweep_diff(make_grid(a, fill), make_grid(b, fill),
                              DiffThresholds{}, out),
            0);
  EXPECT_NE(out.find("AXIS MISMATCH"), std::string::npos) << out;
}

TEST(SweepDiff, EmbeddedRunRegressionIsAFailure) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue base = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  const JsonValue cur = make_grid(spec, [](const SweepCell& c, std::size_t i) {
    // One cell's abort rate grows by 4pp — past the default 1pp threshold.
    return make_telemetry(c.label, 1000, i == 3 ? 9.0 : 5.0, 10.0);
  });
  std::string out;
  EXPECT_EQ(render_sweep_diff(base, cur, DiffThresholds{}, out), 1) << out;
  EXPECT_NE(out.find("scheme=tsx/threads=1"), std::string::npos) << out;
}

TEST(LoadArtifact, OtherTelemetrySchemaIsRejectedNamingBothVersions) {
  // An artifact of another telemetry version never loads, so no diff can
  // silently compare across versions: the fix is refreshing the stale side.
  for (const char* other : {"tsxhpc-telemetry-v4", "tsxhpc-telemetry-v7"}) {
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(
        load_artifact(make_telemetry("a", 1000, 5.0, 10.0, other), doc, &err));
    EXPECT_EQ(err, std::string("schema: expected '") + kTelemetrySchema +
                       "', got '" + other + "'");
  }
  load_ok(make_telemetry("a", 1000, 5.0, 10.0));
}

TEST(LoadArtifact, GridCellWithOtherSchemaIsRejectedNamingTheCell) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::string grid =
      merge_grid(spec, [](const SweepCell& c, std::size_t i) {
        return make_telemetry(c.label, 1000, 5.0, 10.0,
                              i == 5 ? "tsxhpc-telemetry-v7"
                                     : kTelemetrySchema);
      });
  JsonValue doc;
  std::string err;
  EXPECT_FALSE(load_artifact(grid, doc, &err));
  EXPECT_EQ(err, std::string("cells[5].telemetry.schema: expected '") +
                     kTelemetrySchema +
                     "', got 'tsxhpc-telemetry-v7' (cell "
                     "scheme=tsx/threads=4)");
}

TEST(RenderDiff, LabelSetMismatchFailsBothDirections) {
  const JsonValue base = load_ok(make_telemetry("a", 1000, 5.0, 10.0));
  const JsonValue cur = load_ok(make_telemetry("b", 1000, 5.0, 10.0));
  // Run "a" vanished and run "b" appeared: two failures, zero skips.
  std::string out;
  EXPECT_EQ(render_diff(base, cur, DiffThresholds{}, out), 2) << out;
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
  EXPECT_EQ(out.find("skipped"), std::string::npos) << out;
  out.clear();
  EXPECT_EQ(render_diff(base, base, DiffThresholds{}, out), 0) << out;
}

}  // namespace
}  // namespace tsxhpc::sim
