// STAMP bayes: Bayesian network structure learning by hill climbing. A
// transaction evaluates a candidate edge insertion — scoring it requires
// reading a large slice of the sufficient-statistics (ADtree-like) table —
// and, if the score improves, inserts the edge and updates the cached
// scores. The huge read sets give bayes the highest single-thread tsx abort
// rate in Table 1 (64%), and the paper notes its timing should be
// discounted because search order affects the result.
#include "stamp/common.h"

namespace tsxhpc::stamp {

Result run_bayes(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);

  const std::size_t n_vars = scaled(cfg.scale, 24, 8);
  const std::size_t n_moves = scaled(cfg.scale, 192, 16);
  // Sufficient-statistics table: large enough that one scoring pass reads
  // multiple L1s' worth of lines.
  const std::size_t stats_words = scaled(cfg.scale, 8192 * 8, 1024);

  auto stats_table = SharedArray<std::uint64_t>::alloc(m, {.name = "bayes/stats"}, stats_words, 0);
  for (std::size_t i = 0; i < stats_words; i += 7) {
    stats_table.at(i).init(m, i * 2654435761u % 1000);
  }
  // Adjacency matrix (n_vars^2) and per-variable cached scores.
  auto adj = SharedArray<std::uint64_t>::alloc(m, {.name = "bayes/adj"}, n_vars * n_vars, 0);
  auto score = SharedArray<std::uint64_t>::alloc(m, {.name = "bayes/score"}, n_vars, 1000000);
  std::uint64_t accepted_total = 0;

  WorkCounter work(m, n_moves, 2);

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    Xoshiro256 rng(cfg.seed * 53 + c.tid());
    std::uint64_t local_accepted = 0;
    std::uint64_t b, e;
    while (work.next(c, b, e)) {
      for (std::uint64_t mv = b; mv < e; ++mv) {
        const std::size_t from = rng.next_below(n_vars);
        const std::size_t to = (from + 1 + rng.next_below(n_vars - 1)) % n_vars;
        const std::size_t slice = rng.next_below(8);
        bool accepted = false;
        t.atomic([&](TmAccess& tm) {
          accepted = false;
          if (tm.read(adj.addr(from * n_vars + to)) != 0 ||
              tm.read(adj.addr(to * n_vars + from)) != 0) {
            return;  // edge (or reverse) exists
          }
          // Score the candidate parent set: read a large strided slice of
          // the sufficient-statistics table (the ADtree walk).
          std::uint64_t s = 0;
          const std::size_t span = stats_words / 8;
          for (std::size_t i = 0; i < span; i += 8) {
            s += tm.read(stats_table.addr(slice * span + i));
          }
          tm.ctx().compute(span / 2);  // log-likelihood arithmetic
          const std::uint64_t old_score = tm.read(score.addr(to));
          const std::uint64_t new_score =
              old_score - 1 - s % 3;  // hill climbing: always a bit better
          if (new_score < old_score) {
            tm.write(adj.addr(from * n_vars + to), 1);
            tm.write(score.addr(to), new_score);
            accepted = true;
          }
        });
        if (accepted) local_accepted++;
      }
    }
    accepted_total += local_accepted;
  });

  // Invariants: the learned structure has no 2-cycles, and the accepted
  // count equals the number of edges present.
  std::uint64_t edges = 0;
  bool ok = true;
  for (std::size_t i = 0; i < n_vars; ++i) {
    for (std::size_t j = 0; j < n_vars; ++j) {
      const bool eij = adj.at(i * n_vars + j).peek(m) != 0;
      if (eij) {
        edges++;
        if (adj.at(j * n_vars + i).peek(m) != 0) ok = false;
      }
    }
  }
  ok = ok && edges == accepted_total;
  r.checksum = ok ? 0xBA1E5 : 0;
  return r;
}

}  // namespace tsxhpc::stamp
