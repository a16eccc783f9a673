#include "sim/sweep.h"

#include <algorithm>

#include "sim/json.h"

namespace tsxhpc::sim {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

/// The array of strings at `key`; throws JsonError on any other shape.
std::vector<std::string> string_array(const JsonValue& obj, const char* key) {
  const JsonValue& v = obj.arr(key);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(v.str(i));
  return out;
}

}  // namespace

std::vector<std::string> SweepSpec::args_for_scale(
    const std::string& scale) const {
  std::vector<std::string> out = args;
  const std::vector<std::string>& extra =
      scale == "full" ? full_args : quick_args;
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

bool parse_sweep_spec(const JsonValue& doc, SweepSpec& spec,
                      std::string* error) try {
  if (doc.str("schema") != kSweepSpecSchema) {
    return fail(error, "spec schema is not " + std::string(kSweepSpecSchema) +
                           " (got '" + doc.str("schema") + "')");
  }
  spec.name = doc.str("name");
  if (spec.name.empty()) return fail(error, "spec has no 'name'");
  spec.bench = doc.str("bench");
  if (spec.bench.empty()) return fail(error, "spec has no 'bench'");
  if (spec.bench.find('/') != std::string::npos) {
    return fail(error, "'bench' must be a binary name, not a path (the "
                       "orchestrator resolves it against --bench-dir)");
  }
  // The arg lists are the spec's only optional members.
  if (doc.find("args")) spec.args = string_array(doc, "args");
  if (doc.find("quick_args")) spec.quick_args = string_array(doc, "quick_args");
  if (doc.find("full_args")) spec.full_args = string_array(doc, "full_args");
  const std::vector<JsonValue>& axes = doc.objects("axes");
  if (axes.empty()) return fail(error, "spec needs a non-empty 'axes' array");
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const JsonValue& a = axes[i];
    SweepAxis axis;
    axis.name = a.str("axis");
    axis.flag = a.str("flag");
    if (axis.name.empty()) {
      return fail(error, "axis " + std::to_string(i) + " has no 'axis' name");
    }
    if (axis.name.find('=') != std::string::npos ||
        axis.name.find('/') != std::string::npos) {
      return fail(error, "axis name '" + axis.name +
                             "' may not contain '=' or '/' (they delimit "
                             "cell labels)");
    }
    if (axis.flag.rfind("--", 0) != 0) {
      return fail(error, "axis '" + axis.name +
                             "' needs a 'flag' starting with --");
    }
    axis.values = string_array(a, "values");
    if (axis.values.empty()) {
      return fail(error, "axis '" + axis.name + "' has no values");
    }
    for (const SweepAxis& prev : spec.axes) {
      if (prev.name == axis.name) {
        return fail(error, "duplicate axis name '" + axis.name + "'");
      }
    }
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      if (axis.values[v].empty()) {
        return fail(error, "axis '" + axis.name + "' has an empty value");
      }
      for (std::size_t w = v + 1; w < axis.values.size(); ++w) {
        if (axis.values[v] == axis.values[w]) {
          return fail(error, "axis '" + axis.name + "' repeats value '" +
                                 axis.values[v] + "'");
        }
      }
    }
    spec.axes.push_back(std::move(axis));
  }
  return true;
} catch (const JsonError& e) {  // a missing or mistyped member
  return fail(error, e.what());
}

std::vector<SweepCell> expand_cells(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  cells.reserve(spec.cell_count());
  std::vector<std::size_t> idx(spec.axes.size(), 0);
  for (;;) {
    SweepCell cell;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepAxis& axis = spec.axes[a];
      const std::string& value = axis.values[idx[a]];
      if (a > 0) cell.label += '/';
      cell.label += axis.name + '=' + value;
      cell.coords.push_back(value);
      cell.flags.push_back(axis.flag + '=' + value);
    }
    cells.push_back(std::move(cell));
    // Odometer: last axis fastest.
    std::size_t a = spec.axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < spec.axes[a].values.size()) break;
      idx[a] = 0;
      if (a == 0) return cells;
    }
  }
}

std::string merge_sweep(const SweepSpec& spec, const std::string& scale,
                        const std::vector<std::string>& effective_args,
                        const std::vector<SweepCell>& cells,
                        const std::vector<std::string>& cell_artifacts) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kSweepSchema);
  w.kv("sweep", spec.name);
  w.kv("bench", spec.bench);
  w.kv("scale", scale);
  w.key("args");
  w.begin_array();
  for (const std::string& a : effective_args) w.value(a);
  w.end_array();
  w.key("axes");
  w.begin_array();
  for (const SweepAxis& axis : spec.axes) {
    w.begin_object();
    w.kv("axis", axis.name);
    w.kv("flag", axis.flag);
    w.key("values");
    w.begin_array();
    for (const std::string& v : axis.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < cells.size() && i < cell_artifacts.size(); ++i) {
    w.begin_object();
    w.kv("cell", cells[i].label);
    w.key("coords");
    w.begin_object();
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      w.kv(spec.axes[a].name, cells[i].coords[a]);
    }
    w.end_object();
    w.key("telemetry");
    w.raw_value(cell_artifacts[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace tsxhpc::sim
