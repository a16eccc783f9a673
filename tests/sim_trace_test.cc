// Tests for the per-attempt transaction record: every XBEGIN ends in
// exactly one AttemptRec carrying its thread, cycle stamps, outcome, cause
// and footprint (Telemetry with collect_attempts, the data behind --trace).
#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {
namespace {

TelemetryOptions attempt_options() {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  opt.max_attempts = 0;  // unbounded: the tests count every attempt
  return opt;
}

std::size_t committed(const std::vector<AttemptRec>& attempts) {
  std::size_t n = 0;
  for (const AttemptRec& a : attempts) n += a.committed;
  return n;
}

TEST(Trace, RecordsBeginCommitAbortWithFootprints) {
  Telemetry tel(attempt_options());
  Machine m;
  m.set_telemetry(&tel);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 16, 0);
  m.run({.threads = 1, .body = [&](Context& c) {
    // A committing transaction touching 2 lines (16 cells span 2 lines;
    // read one, write the other).
    c.xbegin();
    (void)cells.at(0).load(c);
    cells.at(8).store(c, 1);
    c.xend();
    // An explicitly aborted one.
    try {
      c.xbegin();
      cells.at(0).store(c, 2);
      c.xabort(0x11);
    } catch (const TxAbort&) {
    }
  }});
  m.set_telemetry(nullptr);

  const std::vector<AttemptRec> attempts =
      tel.runs().at(0).attempts_in_order();
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(committed(attempts), 1u);

  const AttemptRec& commit = attempts[0];
  EXPECT_TRUE(commit.committed);
  EXPECT_EQ(commit.read_lines, 1u);
  EXPECT_EQ(commit.write_lines, 1u);

  const AttemptRec& abort = attempts[1];
  EXPECT_FALSE(abort.committed);
  EXPECT_EQ(abort.cause, AbortCause::kExplicit);
  EXPECT_EQ(abort.write_lines, 1u);
}

TEST(Trace, CycleStampsAreMonotonePerThread) {
  Telemetry tel(attempt_options());
  Machine m;
  m.set_telemetry(&tel);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 4, .body = [&](Context& c) {
    for (int i = 0; i < 20; ++i) {
      try {
        c.xbegin();
        cell.store(c, cell.load(c) + 1);
        c.compute(100);
        c.xend();
      } catch (const TxAbort&) {
      }
    }
  }});
  m.set_telemetry(nullptr);

  const std::vector<AttemptRec> attempts =
      tel.runs().at(0).attempts_in_order();
  std::vector<Cycles> last(4, 0);
  for (const AttemptRec& a : attempts) {
    EXPECT_GE(a.start, last[a.tid]);
    EXPECT_GE(a.end, a.start);
    last[a.tid] = a.end;
  }
  // Every one of the 80 attempts ends in exactly one commit or abort.
  EXPECT_EQ(attempts.size(), 80u);
  EXPECT_GE(committed(attempts), 1u);
}

TEST(Trace, DetachedTraceRecordsNothing) {
  Telemetry tel(attempt_options());
  Machine m;
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  auto body = [&](Context& c) {
    c.xbegin();
    cell.store(c, 1);
    c.xend();
  };
  m.set_telemetry(&tel);
  m.run({.threads = 1, .body = body});
  m.set_telemetry(nullptr);
  m.run({.threads = 1, .body = body});
  ASSERT_EQ(tel.runs().size(), 1u);
  EXPECT_EQ(tel.runs().at(0).attempts_in_order().size(), 1u);
}

}  // namespace
}  // namespace tsxhpc::sim
