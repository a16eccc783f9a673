// The invariant registry (sim/invariants.h) on a small hand-built artifact
// that carries every block: one run, one thread, one elided lock site, two
// sample buckets, a tsx cc block, set stats over one L1 and two LLC slices,
// and a 2-slice topology. Every number reconciles, so the artifact has no
// findings; changing one number per rule family must produce exactly one
// finding that names where it broke and both values. Dropping a key or
// mistyping a value the registry reads is no finding but a load error that
// names the field's JSON path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/json_parse.h"

namespace tsxhpc::sim {
namespace {

/// The run without its two optional blocks, open for them to follow.
const std::string kRun = R"({"schema":"tsxhpc-telemetry-v8","bench":"t",
"runs":[{"label":"demo",
 "totals":{"tx_started":5,"aborts_by_cause":{"capacity":2,"capacity-read":1},
  "cycles":{"work":100,"tx_committed":40,"tx_wasted":30,"lock_wait":10,
   "fallback":20,"mem_stall":50,"total":250},
  "backoff_cycles":6,"mem_accesses":60,"l1_hits":40,"l1_misses":20,
  "llc_hits":12,"llc_misses":5,"llc_evictions":4,"xfers_in":3,
  "slice_hops":2,"socket_hops":1,"hop_cycles":164},
 "cache_levels":[{"level":"l1","served":40},{"level":"xfer","served":3},
  {"level":"llc","served":12},{"level":"dram","served":5}],
 "topology":{"sockets":1,"slices":2,"lat_hop_slice":12,"lat_hop_socket":140,
  "slice_stats":[{"hits":7,"misses":3,"evictions":2,"xfers":2},
   {"hits":5,"misses":2,"evictions":2,"xfers":1}],
  "socket_stats":[{"accesses":60,"dram_local":5,"dram_remote":0}]},
 "threads":[{"tid":0,"cycles":{"work":100,"tx_committed":40,"tx_wasted":30,
   "lock_wait":10,"fallback":20,"mem_stall":50,"total":250},
  "mem_stall_levels":{"l1":5,"xfer":10,"llc":15,"dram":20},
  "backoff_cycles":6,"mem_accesses":60,"l1_hits":40,"l1_misses":20,
  "llc_hits":12,"llc_misses":5,"xfers_in":3,
  "slice_hops":2,"socket_hops":1,"hop_cycles":164,"end_cycle":250}],
 "locks":[{"site":"0x40","kind":"elided","elided_commits":4,
  "fallback_acquires":1,"tx_aborts":4,
  "policy":{"retries":1,"backoffs":1,"lock_waits":1,"fallbacks":1,"skips":0}}],
 "samples":{"count":2,"l1_hits":[30,10],"l1_misses":[15,5],
  "llc_misses":[4,1],"mem_stall":[35,15]})";

const std::string kCc = R"(,
 "cc":{"scheme":"tsx","starts":5,"commits":5,"aborts":0,
  "aborts_by_class":{"read_validation":0,"lock_acquire":0,
   "commit_validation":0}})";

const std::string kSetStats = R"(,
 "set_stats":{"levels":[
  {"level":"l1.c0","hits":[25,15],"misses":[12,8],
   "capacity_write_dooms":[2,0],"capacity_read_dooms":[0,0]},
  {"level":"llc.s0","hits":[5,2],"misses":[2,1],"evictions":[1,1],
   "xfers":[1,1],"doom_draws":[1,1],"capacity_write_dooms":[0,0],
   "capacity_read_dooms":[1,0]},
  {"level":"llc.s1","hits":[3,2],"misses":[1,1],"evictions":[1,1],
   "xfers":[0,1],"doom_draws":[0,0],"capacity_write_dooms":[0,0],
   "capacity_read_dooms":[0,0]}],
  "objects":[{"name":"grid","lines":4,"l1_sets_covered":4,
   "llc_sets_covered":4}]})";

const std::string kArtifact = kRun + kCc + kSetStats + "}]}";

/// The same run as the one cell of a sweep grid.
std::string as_sweep(const std::string& artifact) {
  return R"({"schema":"tsxhpc-sweep-v1","cells":[{"cell":"x=1",)"
         R"("coords":{"x":"1"},"telemetry":)" +
         artifact + "}]}";
}

/// `text` with its one occurrence of `from` replaced by `to`.
std::string mutate(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

std::vector<Finding> check(const std::string& text) {
  std::string err;
  const JsonValue doc = JsonParser::parse(text, &err);
  EXPECT_EQ(err, "");
  return check_invariants(doc);
}

/// The load_artifact error for `text` ("" if it loads).
std::string load_error(const std::string& text) {
  JsonValue doc;
  std::string err;
  load_artifact(text, doc, &err);
  return err;
}

TEST(Invariants, ReconcilingArtifactHasNoFindings) {
  EXPECT_EQ(to_string(check(kArtifact)), "");
  EXPECT_EQ(to_string(check(as_sweep(kArtifact))), "");
  // cc and set_stats are the only optional blocks; without them the run
  // still loads and reconciles.
  EXPECT_EQ(load_error(kRun + "}]}"), "");
  EXPECT_EQ(to_string(check(kRun + "}]}")), "");
  // Any other block missing is a load error naming the run, not a run with
  // no rule that applies.
  const std::string bare = R"({"schema":"tsxhpc-telemetry-v8",)"
                           R"("runs":[{"label":"bare","totals":{}}]})";
  EXPECT_EQ(load_error(bare), "runs[0]: missing member 'threads'");
  EXPECT_THROW(check(bare), JsonError);
}

TEST(Invariants, DroppedOrMistypedFieldIsALoadErrorNamingItsPath) {
  const struct {
    const char* from;
    const char* to;
    const char* error;
  } kMutations[] = {
      // totals
      {R"("socket_hops":1,"hop_cycles":164},)", R"("socket_hops":1},)",
       "runs[0].totals: missing member 'hop_cycles'"},
      {R"("capacity":2,)", R"("capacity":"2",)",
       "runs[0].totals.aborts_by_cause.capacity: expected number, got "
       "string"},
      // a thread's cycles
      {R"("tid":0,"cycles":{"work":100,)", R"("tid":0,"cycles":{)",
       "runs[0].threads[0].cycles: missing member 'work'"},
      {R"("tid":0,"cycles":{"work":100,)", R"("tid":0,"cycles":{"work":-100,)",
       "runs[0].threads[0].cycles.work: expected unsigned integer, got -100"},
      // cache_levels
      {R"({"level":"xfer","served":3})", R"({"level":"xfer"})",
       "runs[0].cache_levels[1]: missing member 'served'"},
      {R"("level":"llc","served":12)", R"("level":"llc","served":true)",
       "runs[0].cache_levels[2].served: expected number, got boolean"},
      // a lock's policy
      {R"("policy":{"retries":1,)", R"("policy":{)",
       "runs[0].locks[0].policy: missing member 'retries'"},
      {R"("policy":{"retries":1,"backoffs":1,"lock_waits":1,"fallbacks":1,"skips":0})",
       R"("policy":"adaptive")",
       "runs[0].locks[0].policy: expected object, got string"},
      // samples
      {R"("samples":{"count":2,)", R"("samples":{)",
       "runs[0].samples: missing member 'count'"},
      {R"("l1_hits":[30,10])", R"("l1_hits":[30,"10"])",
       "runs[0].samples.l1_hits[1]: expected number, got string"},
      // topology
      {R"("lat_hop_slice":12,)", "",
       "runs[0].topology: missing member 'lat_hop_slice'"},
      {R"("sockets":1,)", R"("sockets":[1],)",
       "runs[0].topology.sockets: expected number, got array"},
      // cc
      {R"("starts":5,)", "", "runs[0].cc: missing member 'starts'"},
      {R"("scheme":"tsx")", R"("scheme":7)",
       "runs[0].cc.scheme: expected string, got number"},
      // set_stats
      {R"("lines":4,)", "",
       "runs[0].set_stats.objects[0]: missing member 'lines'"},
      {R"("hits":[25,15])", R"("hits":[25,null])",
       "runs[0].set_stats.levels[0].hits[1]: expected number, got null"},
  };
  for (const auto& m : kMutations) {
    EXPECT_EQ(load_error(mutate(kArtifact, m.from, m.to)), m.error) << m.from;
  }
  // The same field inside a sweep cell names the cell by its index.
  EXPECT_EQ(load_error(as_sweep(mutate(kArtifact, R"("starts":5,)", ""))),
            "cells[0].telemetry.runs[0].cc: missing member 'starts'");
}

TEST(Invariants, EachRuleFamilyNamesWhatMoved) {
  const struct {
    const char* from;
    const char* to;
    const char* finding;
  } kMutations[] = {
      {R"("end_cycle":250)", R"("end_cycle":251)",
       "run demo thread 0: cycles: cycles.total == end_cycle: 250 vs 251"},
      {R"("level":"xfer","served":3)", R"("level":"xfer","served":4)",
       "run demo level xfer: hierarchy: served == totals.xfers_in: 4 vs 3"},
      {R"("skips":0)", R"("skips":1)",
       "run demo elided site 0x40: policy: fallbacks + skips == "
       "fallback_acquires: 2 vs 1"},
      {R"("mem_stall":[35,15])", R"("mem_stall":[35,16])",
       "run demo: samples: sum(mem_stall) == totals.cycles.mem_stall: 51 vs "
       "50"},
      {R"("commit_validation":0)", R"("commit_validation":1)",
       "run demo cc tsx: cc: sum(aborts_by_class) == aborts: 1 vs 0"},
      {R"("capacity_write_dooms":[2,0])", R"("capacity_write_dooms":[2,1])",
       "run demo all levels: set_stats: sum(capacity_write_dooms) == "
       "aborts_by_cause.capacity: 3 vs 2"},
      {R"("dram_local":5)", R"("dram_local":6)",
       "run demo: topology: sum(socket_stats.dram_local + dram_remote) == "
       "totals.llc_misses: 6 vs 5"},
  };
  for (const auto& m : kMutations) {
    EXPECT_EQ(to_string(check(mutate(kArtifact, m.from, m.to))),
              std::string(m.finding) + "\n");
  }
}

TEST(Invariants, SweepFindingsNameTheCell) {
  EXPECT_EQ(to_string(check(as_sweep(
                mutate(kArtifact, R"("end_cycle":250)", R"("end_cycle":251)")))),
            "cell x=1 run demo thread 0: cycles: cycles.total == end_cycle: "
            "250 vs 251\n");
}

}  // namespace
}  // namespace tsxhpc::sim
