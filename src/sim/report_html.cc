// Self-contained HTML dashboard for tsxhpc artifacts (tsx_report --html=).
//
// Everything is generated inline — CSS in a <style> block, charts as inline
// SVG — so the output is one file with zero external dependencies that
// renders offline and uploads cleanly as a CI artifact. All numbers come
// from the deterministic JSON artifact and are formatted with fixed
// precision, so the dashboard bytes are deterministic too.
//
// Telemetry artifacts get, per run: a summary strip, the
// concurrency-control table (the `cc` block, when present),
// topology-resolved slice/socket tables (sliced/multi-socket machines
// only), per-set heatmaps (the `set_stats` block, when present) with
// named-object spans, the interval-sample time series, and the per-site
// policy table; multi-run topology artifacts additionally get makespan
// scaling curves per (map, slices, sockets) combination. Sweep artifacts
// get the per-cell summary plus makespan scaling curves along the
// "threads" axis.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/report.h"

namespace tsxhpc::sim {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// Counter `key` of `obj` as printf's %llu takes it.
unsigned long long llu(const JsonValue& obj, std::string_view key) {
  return obj.u64(key);
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::vector<std::uint64_t> u64_column(const JsonValue& arr) {
  std::vector<std::uint64_t> v(arr.size(), 0);
  for (std::size_t i = 0; i < arr.size(); ++i) v[i] = arr.u64(i);
  return v;
}

std::uint64_t vmax(const std::vector<std::uint64_t>& v) {
  std::uint64_t m = 0;
  for (std::uint64_t x : v) m = std::max(m, x);
  return m;
}

// --- SVG pieces -----------------------------------------------------------

/// One heatmap strip: `sets` cells, intensity = value/max on the given base
/// color (r,g,b at full intensity over a near-white background).
void svg_heat_row(std::string& out, const std::vector<std::uint64_t>& v,
                  std::uint64_t max, int y, int r, int g, int b,
                  const char* label) {
  const int cell = 9, h = 14;
  appendf(out,
          "<text x=\"0\" y=\"%d\" class=\"lbl\">%s</text>", y + h - 3, label);
  for (std::size_t s = 0; s < v.size(); ++s) {
    const double t =
        max == 0 ? 0.0 : static_cast<double>(v[s]) / static_cast<double>(max);
    const int cr = 245 + static_cast<int>(t * (r - 245));
    const int cg = 245 + static_cast<int>(t * (g - 245));
    const int cb = 245 + static_cast<int>(t * (b - 245));
    appendf(out,
            "<rect x=\"%zu\" y=\"%d\" width=\"%d\" height=\"%d\" "
            "fill=\"rgb(%d,%d,%d)\"><title>set %zu: %llu</title></rect>",
            90 + s * cell, y, cell - 1, h - 1, cr, cg, cb, s,
            static_cast<unsigned long long>(v[s]));
  }
}

/// Normalized polyline for one sample column.
void svg_series(std::string& out, const std::vector<std::uint64_t>& v,
                int w, int h, const char* color) {
  if (v.empty()) return;
  const std::uint64_t max = vmax(v);
  std::string pts;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v.size() == 1
                         ? 0.0
                         : static_cast<double>(i) * w /
                               static_cast<double>(v.size() - 1);
    const double y =
        max == 0 ? h
                 : h - static_cast<double>(v[i]) * h / static_cast<double>(max);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x, y);
    pts += buf;
  }
  appendf(out,
          "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" "
          "points=\"%s\"/>",
          color, pts.c_str());
}

// --- Telemetry sections ---------------------------------------------------

void emit_run_summary(std::string& out, const JsonValue& run) {
  const JsonValue& totals = run.obj("totals");
  out += "<div class=\"cards\">";
  const auto pct = [&totals](const char* key) {
    char b[32];
    std::snprintf(b, sizeof(b), "%.2f%%", totals.f64(key));
    return std::string(b);
  };
  const struct {
    const char* label;
    std::string value;
  } cards[] = {
      {"makespan", std::to_string(run.u64("makespan"))},
      {"threads", std::to_string(run.u64("num_threads"))},
      {"tx started", std::to_string(totals.u64("tx_started"))},
      {"tx committed", std::to_string(totals.u64("tx_committed"))},
      {"abort rate", pct("abort_rate_pct")},
      {"wasted cycles", pct("wasted_cycle_pct")},
  };
  for (const auto& c : cards) {
    appendf(out,
            "<div class=\"card\"><div class=\"k\">%s</div>"
            "<div class=\"v\">%s</div></div>",
            c.label, c.value.c_str());
  }
  out += "</div>";
}

/// Topology-resolved tables: per-slice and per-socket event counters plus
/// the hop summary. Skipped for the default 1-socket/1-slice machine, whose
/// reports look exactly as they always did.
void emit_topology(std::string& out, const JsonValue& run) {
  const JsonValue& topo = run.obj("topology");
  const std::uint64_t sockets = topo.u64("sockets");
  const std::uint64_t slices = topo.u64("slices");
  if (sockets <= 1 && slices <= 1) return;
  appendf(out,
          "<h3>Topology</h3><div class=\"legend\">%llu socket(s) × %llu "
          "cores/socket, %llu LLC slice(s), map=%s, hop cycles "
          "slice=%llu/socket=%llu</div>",
          static_cast<unsigned long long>(sockets),
          llu(topo, "cores_per_socket"),
          static_cast<unsigned long long>(slices),
          html_escape(topo.str("map")).c_str(), llu(topo, "lat_hop_slice"),
          llu(topo, "lat_hop_socket"));
  const JsonValue& ss = topo.arr("slice_stats");
  if (ss.size() != 0) {
    out += "<table><tr><th>slice</th><th>hits</th><th>misses</th>"
           "<th>evictions</th><th>xfers</th></tr>";
    for (std::size_t s = 0; s < ss.size(); ++s) {
      const JsonValue& sl = ss.obj(s);
      appendf(out,
              "<tr><td>s%zu</td><td>%llu</td><td>%llu</td><td>%llu</td>"
              "<td>%llu</td></tr>",
              s, llu(sl, "hits"), llu(sl, "misses"), llu(sl, "evictions"),
              llu(sl, "xfers"));
    }
    out += "</table>";
  }
  const JsonValue& so = topo.arr("socket_stats");
  if (so.size() != 0) {
    out += "<table><tr><th>socket</th><th>accesses</th><th>dram local</th>"
           "<th>dram remote</th><th>slice hops</th><th>socket hops</th></tr>";
    for (std::size_t s = 0; s < so.size(); ++s) {
      const JsonValue& sk = so.obj(s);
      appendf(out,
              "<tr><td>%zu</td><td>%llu</td><td>%llu</td><td>%llu</td>"
              "<td>%llu</td><td>%llu</td></tr>",
              s, llu(sk, "accesses"), llu(sk, "dram_local"),
              llu(sk, "dram_remote"), llu(sk, "slice_hops"),
              llu(sk, "socket_hops"));
    }
    out += "</table>";
  }
}

/// Scaling curves over a multi-run topology artifact (ablation_topology's
/// internal map × threads sweep) or a sweep grid whose cells carry such
/// runs: one makespan polyline per (map, slices, sockets) combination, x
/// ordered by each run's thread count. Emitted only when some combination
/// has at least two runs.
void emit_topology_scaling(std::string& out, const JsonValue& doc) {
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      groups;  // key -> (threads, makespan)
  const auto collect = [&groups](const JsonValue& tel) {
    for (const JsonValue& run : tel.objects("runs")) {
      const JsonValue& topo = run.obj("topology");
      const std::uint64_t sockets = topo.u64("sockets");
      const std::uint64_t slices = topo.u64("slices");
      if (sockets <= 1 && slices <= 1) continue;
      const std::string key = topo.str("map") + "/s" +
                              std::to_string(slices) + "/" +
                              std::to_string(sockets) + "skt";
      groups[key].emplace_back(run.u64("num_threads"), run.u64("makespan"));
    }
  };
  if (!is_sweep_doc(doc)) {
    collect(doc);
  } else {
    for (const JsonValue& cell : doc.objects("cells")) {
      collect(cell.obj("telemetry"));
    }
  }
  bool any = false;
  for (const auto& [key, points] : groups) any |= points.size() >= 2;
  if (!any) return;
  out += "<section><h2>Topology scaling</h2><h3>Makespan vs sockets × "
         "threads</h3>";
  static const char* kPalette[] = {"#2a7a2a", "#c03030", "#3050c0", "#c08020",
                                   "#703090", "#208080", "#806020", "#404040"};
  appendf(out, "<svg width=\"640\" height=\"160\" class=\"chart\">");
  std::size_t ci = 0;
  for (auto& [key, points] : groups) {
    std::sort(points.begin(), points.end());
    std::vector<std::uint64_t> series;
    for (const auto& [threads, makespan] : points) series.push_back(makespan);
    svg_series(out, series, 630, 150, kPalette[ci % 8]);
    ci++;
  }
  out += "</svg><div class=\"legend\">";
  ci = 0;
  for (const auto& [key, points] : groups) {
    appendf(out, "<span style=\"color:%s\">— %s</span> ", kPalette[ci % 8],
            html_escape(key).c_str());
    ci++;
  }
  out += "(x: thread counts ascending; y: makespan, each line normalized to "
         "its own max)</div></section>";
}

void emit_set_heatmaps(std::string& out, const JsonValue& run) {
  if (!run.find("set_stats")) return;
  const JsonValue& ss = run.obj("set_stats");
  out += "<h3>Per-set heatmaps</h3>";
  for (const JsonValue& lv : ss.objects("levels")) {
    // One value per set in every column: the rows index them all by set.
    const std::size_t sets = lv.u64("sets");
    const auto occupancy = u64_column(lv.arr("occupancy", sets));
    const auto evictions = u64_column(lv.arr("evictions", sets));
    const auto w_dooms = u64_column(lv.arr("capacity_write_dooms", sets));
    const auto r_dooms = u64_column(lv.arr("capacity_read_dooms", sets));
    std::vector<std::uint64_t> dooms(sets, 0);
    for (std::size_t s = 0; s < sets; ++s) dooms[s] = w_dooms[s] + r_dooms[s];
    appendf(out, "<div class=\"lvl\"><b>%s</b> (%llu sets × %llu ways)",
            html_escape(lv.str("level")).c_str(), llu(lv, "sets"),
            llu(lv, "ways"));
    appendf(out, "<svg width=\"%zu\" height=\"48\">", 90 + sets * 9 + 4);
    svg_heat_row(out, occupancy, lv.u64("ways"), 0, 40, 90, 200,
                 "occupancy");
    svg_heat_row(out, evictions, vmax(evictions), 16, 230, 140, 30,
                 "evictions");
    svg_heat_row(out, dooms, vmax(dooms), 32, 200, 40, 40, "dooms");
    out += "</svg></div>";
  }
  const std::vector<JsonValue>& objects = ss.objects("objects");
  if (!objects.empty()) {
    out += "<table><tr><th>object</th><th>bytes</th><th>lines</th>"
           "<th>l1 sets</th><th>llc sets</th></tr>";
    for (const JsonValue& o : objects) {
      appendf(out,
              "<tr><td>%s</td><td>%llu</td><td>%llu</td>"
              "<td>%llu+%llu</td><td>%llu+%llu</td></tr>",
              html_escape(o.str("name")).c_str(), llu(o, "bytes"),
              llu(o, "lines"), llu(o, "l1_set_start"),
              llu(o, "l1_sets_covered"), llu(o, "llc_set_start"),
              llu(o, "llc_sets_covered"));
    }
    out += "</table>";
  }
}

/// Concurrency-control table (the `cc` block): the CcBackend seam's
/// region-level attempt chain and abort classes, plus whichever
/// scheme-specific extras are nonzero (TicToc rts extensions, MVCC
/// snapshot/version/GC accounting).
void emit_cc(std::string& out, const JsonValue& run) {
  if (!run.find("cc")) return;
  const JsonValue& cc = run.obj("cc");
  const JsonValue& cls = cc.obj("aborts_by_class");
  appendf(out,
          "<h3>Concurrency control <small>(%s)</small></h3>"
          "<table><tr><th>starts</th><th>commits</th><th>aborts</th>"
          "<th>abort rate</th><th>read-val</th><th>lock-acq</th>"
          "<th>commit-val</th></tr>"
          "<tr><td>%llu</td><td>%llu</td><td>%llu</td><td>%.2f%%</td>"
          "<td>%llu</td><td>%llu</td><td>%llu</td></tr></table>",
          html_escape(cc.str("scheme")).c_str(), llu(cc, "starts"),
          llu(cc, "commits"), llu(cc, "aborts"), cc.f64("abort_rate_pct"),
          llu(cls, "read_validation"), llu(cls, "lock_acquire"),
          llu(cls, "commit_validation"));
  if (cc.u64("read_set_extensions") != 0) {
    appendf(out, "<div class=\"legend\">rts extensions: %llu</div>",
            llu(cc, "read_set_extensions"));
  }
  if (cc.u64("snapshot_commits") != 0 || cc.u64("versions_created") != 0) {
    appendf(out,
            "<div class=\"legend\">mvcc: snapshot-commits=%llu "
            "versions=%llu chain-hops=%llu depth-max=%llu gc-runs=%llu "
            "gc-reclaims=%llu</div>",
            llu(cc, "snapshot_commits"), llu(cc, "versions_created"),
            llu(cc, "version_chain_hops"), llu(cc, "version_chain_depth_max"),
            llu(cc, "gc_runs"), llu(cc, "gc_reclaims"));
  }
}

void emit_samples(std::string& out, const JsonValue& run) {
  const JsonValue& samples = run.obj("samples");
  if (samples.u64("count") == 0) return;
  out += "<h3>Interval time series</h3>";
  const struct {
    const char* key;
    const char* color;
  } series[] = {
      {"tx_committed", "#2a7a2a"}, {"tx_aborted", "#c03030"},
      {"llc_misses", "#3050c0"},   {"mem_stall", "#c08020"},
  };
  appendf(out, "<svg width=\"640\" height=\"130\" class=\"chart\">");
  for (const auto& s : series) {
    svg_series(out, u64_column(samples.arr(s.key)), 630, 120, s.color);
  }
  out += "</svg><div class=\"legend\">";
  for (const auto& s : series) {
    appendf(out, "<span style=\"color:%s\">— %s</span> ", s.color, s.key);
  }
  appendf(out, "(interval=%llu cycles, %llu buckets; each line normalized "
               "to its own max)</div>",
          llu(samples, "interval_cycles"), llu(samples, "count"));
}

void emit_locks(std::string& out, const JsonValue& run) {
  const std::vector<JsonValue>& locks = run.objects("locks");
  if (locks.empty()) return;
  out += "<h3>Lock sites &amp; policy decisions</h3>"
         "<table><tr><th>site</th><th>kind</th><th>acquires</th>"
         "<th>elided</th><th>fallbacks</th><th>elision</th><th>aborts</th>"
         "<th>retry</th><th>backoff</th><th>lock-wait</th><th>fallback</th>"
         "<th>skip</th></tr>";
  for (const JsonValue& lk : locks) {
    const JsonValue& p = lk.obj("policy");
    appendf(out,
            "<tr><td>%s</td><td>%s</td><td>%llu</td><td>%llu</td>"
            "<td>%llu</td><td>%.1f%%</td><td>%llu</td><td>%llu</td>"
            "<td>%llu</td><td>%llu</td><td>%llu</td><td>%llu</td></tr>",
            html_escape(lk.str("site")).c_str(),
            html_escape(lk.str("kind")).c_str(), llu(lk, "acquires"),
            llu(lk, "elided_commits"), llu(lk, "fallback_acquires"),
            lk.f64("elision_rate_pct"), llu(lk, "tx_aborts"), llu(p, "retries"),
            llu(p, "backoffs"), llu(p, "lock_waits"), llu(p, "fallbacks"),
            llu(p, "skips"));
  }
  out += "</table>";
}

void emit_telemetry_doc(std::string& out, const JsonValue& doc) {
  for (const JsonValue& run : doc.objects("runs")) {
    appendf(out, "<section><h2>run %s <small>(%s backend)</small></h2>",
            html_escape(run.str("label")).c_str(),
            html_escape(run.str("backend")).c_str());
    emit_run_summary(out, run);
    emit_cc(out, run);
    emit_topology(out, run);
    emit_set_heatmaps(out, run);
    emit_samples(out, run);
    emit_locks(out, run);
    out += "</section>";
  }
  emit_topology_scaling(out, doc);
}

// --- Sweep sections -------------------------------------------------------

void emit_sweep_doc(std::string& out, const JsonValue& doc) {
  const std::vector<JsonValue>& cells = doc.objects("cells");
  appendf(out, "<section><h2>sweep %s <small>(scale %s, %zu cells)</small>"
               "</h2>",
          html_escape(doc.str("sweep")).c_str(),
          html_escape(doc.str("scale")).c_str(), cells.size());
  const auto first_run = [](const JsonValue& cell) -> const JsonValue& {
    return cell.obj("telemetry").arr("runs").obj(0);
  };

  // Per-cell summary table.
  out += "<table><tr><th>cell</th><th>makespan</th><th>abort rate</th>"
         "<th>wasted</th></tr>";
  for (const JsonValue& cell : cells) {
    const JsonValue& run = first_run(cell);
    appendf(out,
            "<tr><td>%s</td><td>%llu</td><td>%.2f%%</td><td>%.2f%%</td></tr>",
            html_escape(cell.str("cell")).c_str(), llu(run, "makespan"),
            run.obj("totals").f64("abort_rate_pct"),
            run.obj("totals").f64("wasted_cycle_pct"));
  }
  out += "</table>";

  // Scaling curves along the "threads" axis: one polyline of makespan per
  // combination of the remaining axes (groups keyed by the cell label with
  // the threads coordinate removed).
  const std::vector<JsonValue>& axes = doc.objects("axes");
  std::size_t threads_axis = axes.size();
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].str("axis") == "threads") threads_axis = a;
  }
  if (threads_axis == axes.size()) {
    // No threads axis (e.g. the topology grid sweeps map × slices and each
    // cell's bench scales threads internally) — the topology scaling
    // section below still gets its shot at the per-cell runs.
    out += "</section>";
    emit_topology_scaling(out, doc);
    return;
  }
  std::map<std::string, std::vector<std::uint64_t>> groups;  // key -> series
  for (const JsonValue& cell : cells) {
    std::string key;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (a == threads_axis) continue;
      const std::string& ax = axes[a].str("axis");
      if (!key.empty()) key += "/";
      key += ax + "=" + cell.obj("coords").str(ax);
    }
    groups[key].push_back(first_run(cell).u64("makespan"));
  }
  out += "<h3>Makespan vs threads</h3>";
  static const char* kPalette[] = {"#2a7a2a", "#c03030", "#3050c0", "#c08020",
                                   "#703090", "#208080", "#806020", "#404040"};
  appendf(out, "<svg width=\"640\" height=\"160\" class=\"chart\">");
  std::size_t ci = 0;
  for (const auto& [key, series] : groups) {
    svg_series(out, series, 630, 150, kPalette[ci % 8]);
    ci++;
  }
  out += "</svg><div class=\"legend\">";
  ci = 0;
  for (const auto& [key, series] : groups) {
    appendf(out, "<span style=\"color:%s\">— %s</span> ", kPalette[ci % 8],
            html_escape(key).c_str());
    ci++;
  }
  out += "(x: threads-axis values in grid order; y: makespan, each line "
         "normalized to its own max)</div></section>";
  emit_topology_scaling(out, doc);
}

}  // namespace

std::string render_html(const JsonValue& doc) {
  const bool sweep = is_sweep_doc(doc);
  std::string out;
  out +=
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
      "<title>tsxhpc report</title><style>"
      "body{font-family:system-ui,sans-serif;margin:24px;color:#222}"
      "h2{border-bottom:1px solid #ddd;padding-bottom:4px}"
      "small{color:#888;font-weight:normal}"
      "table{border-collapse:collapse;margin:8px 0;font-size:13px}"
      "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}"
      "td:first-child,th:first-child{text-align:left}"
      ".cards{display:flex;gap:12px;flex-wrap:wrap;margin:8px 0}"
      ".card{border:1px solid #ddd;border-radius:6px;padding:6px 12px}"
      ".card .k{font-size:11px;color:#888}.card .v{font-size:17px}"
      ".lvl{margin:6px 0}.lbl{font-size:10px;fill:#555}"
      ".chart{border:1px solid #eee;margin-top:4px}"
      ".legend{font-size:12px;color:#555;margin-bottom:10px}"
      "section{margin-bottom:28px}"
      "</style></head><body>";
  appendf(out, "<h1>tsxhpc %s report</h1><div class=\"legend\">bench=%s "
               "schema=%s</div>",
          sweep ? "sweep" : "telemetry",
          html_escape(doc.str("bench")).c_str(),
          html_escape(doc.str("schema")).c_str());
  if (sweep) {
    emit_sweep_doc(out, doc);
  } else {
    emit_telemetry_doc(out, doc);
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace tsxhpc::sim
