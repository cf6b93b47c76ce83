#include "perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/fock_task.h"
#include "core/fock_update.h"
#include "core/symmetry.h"
#include "eri/eri_batch.h"
#include "eri/eri_engine.h"
#include "eri/shell_pair.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {

std::size_t ranks() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Checks::check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  if (!op_failed_) ++failed_;
  op_failed_ = true;
}

void Checks::check_close(const std::string& what, double got, double want,
                         double tol) {
  const double err = std::abs(got - want);
  char buf[160];
  std::snprintf(buf, sizeof(buf), " (got %.12g, want %.12g, |diff| %.3g > %.3g)",
                got, want, err, tol);
  check(err <= tol, what + buf);
}

Ledger::Ledger() : start_(Clock::now()) {}

double& Ledger::slot(const char* name) {
  for (auto& [row, seconds] : rows_) {
    if (row == name) return seconds;
  }
  rows_.emplace_back(name, 0.0);
  return rows_.back().second;
}

void Ledger::push(const char* row) {
  stack_.push_back({row, Clock::now(), mf::obs::trace_now_ns(), 0.0});
}

void Ledger::pop() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - frame.start).count();
  slot(frame.row) += elapsed - frame.child;
  if (!stack_.empty()) stack_.back().child += elapsed;
  // Emitted directly rather than through MF_TRACE_SPAN: the runtime gate
  // stays closed, so the library's own per-task and per-transfer span sites
  // record nothing and the trace holds only these coarse layer spans.
  mf::obs::TraceEvent event;
  event.ts_ns = frame.start_ns;
  event.dur_ns = mf::obs::trace_now_ns() - frame.start_ns;
  event.category = "perfbench";
  event.name = frame.row;
  mf::obs::trace_emit(event);
}

void Ledger::reference_pass(const std::function<void()>& pass) {
  time("obs.untraced_reference", [&] {
    muted_ = true;
    pass();
    muted_ = false;
  });
  mf::obs::set_metrics_enabled(true);
}

void Ledger::move(const char* from, const char* to, double seconds) {
  slot(from) -= seconds;
  slot(to) += seconds;
}

double Ledger::row(const char* name) const {
  for (const auto& [row, seconds] : rows_) {
    if (row == name) return seconds;
  }
  return 0.0;
}

double Ledger::wall() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void Ledger::print(std::FILE* out) const {
  const double wall_s = wall();
  double attributed = 0.0;
  std::fprintf(out, "\n%-34s %12s %8s\n", "layer row", "seconds", "share");
  for (const auto& [row, seconds] : rows_) {
    attributed += seconds;
    std::fprintf(out, "%-34s %12.6f %7.2f%%\n", row.c_str(), seconds,
                 100.0 * seconds / wall_s);
  }
  const double rest = wall_s - attributed;
  std::fprintf(out, "%-34s %12.6f %7.2f%%\n", "(unattributed)", rest,
               100.0 * rest / wall_s);
  std::fprintf(out, "%-34s %12.6f %7.2f%%\n\n", "wall", wall_s, 100.0);
}

std::vector<double> closed_loop(double seconds, const std::function<double()>& op,
                                int min_ops) {
  std::vector<double> times;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double longest = 0.0;
  do {
    const double before = elapsed();
    times.push_back(op());
    longest = std::max(longest, elapsed() - before);
  } while (static_cast<int>(times.size()) < min_ops ||
           elapsed() + longest <= seconds);
  print_samples("op_s", times);
  return times;
}

void print_samples(const char* name, const std::vector<double>& values) {
  std::printf("%s samples (%zu):", name, values.size());
  for (double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

mf::Molecule rigid_motion(const mf::Molecule& mol, std::uint64_t seed) {
  // Only motions that map every real solid harmonic up to l = 2 onto +-one
  // of its own shell's: sign flips and the x <-> y swap. A general rotation
  // (even z <-> x) mixes d functions, which moves Schwarz pair values and
  // so the screened quartet counts.
  static constexpr std::array<std::array<int, 3>, 2> kPerms = {
      {{0, 1, 2}, {1, 0, 2}}};
  mf::Rng rng(seed);
  const auto& perm = kPerms[rng.uniform_int(kPerms.size())];
  const std::uint64_t signs = rng.uniform_int(8);
  double shift[3];
  for (double& s : shift) s = rng.uniform(-4.0, 4.0);
  mf::Molecule out;
  for (const mf::Atom& atom : mol.atoms()) {
    const double in[3] = {atom.position.x, atom.position.y, atom.position.z};
    double r[3];
    for (int k = 0; k < 3; ++k) {
      r[k] = ((signs >> k) & 1 ? -1.0 : 1.0) * in[perm[k]] + shift[k];
    }
    out.add_atom(atom.z, mf::Vec3{r[0], r[1], r[2]});
  }
  return out;
}

mf::Matrix seeded_symmetric(std::size_t n, std::uint64_t seed) {
  mf::Rng rng(seed);
  mf::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m(i, j) = m(j, i) = rng.uniform(-0.5, 0.5);
    }
  }
  return m;
}

std::vector<std::size_t> function_map(const mf::Basis& original,
                                      const std::vector<std::size_t>& perm) {
  std::vector<std::size_t> map;
  map.reserve(original.num_functions());
  for (std::size_t s : perm) {
    for (std::size_t k = 0; k < original.shell_size(s); ++k) {
      map.push_back(original.shell_offset(s) + k);
    }
  }
  return map;
}

mf::Matrix permuted(const mf::Matrix& m, const std::vector<std::size_t>& map) {
  mf::Matrix out(map.size(), map.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    for (std::size_t j = 0; j < map.size(); ++j) out(i, j) = m(map[i], map[j]);
  }
  return out;
}

double ClassBuild::eri_total_s() const {
  double total = 0.0;
  for (double s : eri_s) total += s;
  return total;
}

std::uint64_t ClassBuild::total_quartets() const {
  std::uint64_t total = 0;
  for (std::uint64_t q : quartets) total += q;
  return total;
}

std::uint64_t ClassBuild::total_prim_quartets() const {
  std::uint64_t total = 0;
  for (std::uint64_t q : prim_quartets) total += q;
  return total;
}

ClassBuild serial_class_build(const mf::Basis& basis,
                              const mf::ScreeningData& screening,
                              const mf::Matrix& density,
                              const mf::Matrix& h_core) {
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  for (const mf::Shell& s : basis.shells()) {
    if (4 * s.l >= kNumClasses) {
      throw std::invalid_argument("serial_class_build: shells above d");
    }
  }
  ClassBuild out;
  const Clock::time_point start = Clock::now();
  const mf::EriEngineOptions eri_options;
  mf::EriEngine engine(eri_options);
  mf::Matrix w(basis.num_functions(), basis.num_functions());
  mf::DenseFockContext ctx{density, w};
  const mf::ShellPairList* pair_list =
      screening.has_pairs() ? &screening.pairs() : nullptr;
  mf::PairResolver bra_pairs(basis, pair_list, eri_options.primitive_threshold);
  mf::KetBatcher batcher;

  // The same task loop as fock_serial. A compute_batch call has just ended
  // when the engine's quartet counter moved since the last callback: the
  // time since the previous mark (enumeration plus the batch) is charged to
  // the batch's class, and each apply_quartet_update to digestion. Sums
  // only: one trace span per batch would overflow the trace buffers.
  std::uint64_t seen_quartets = 0, seen_prims = 0;
  Clock::time_point mark = start;
  for (std::size_t m = 0; m < basis.num_shells(); ++m) {
    for (std::size_t n = 0; n < basis.num_shells(); ++n) {
      if (!mf::symmetry_check(m, n) && m != n) continue;
      mark = Clock::now();
      mf::run_task_batched(
          basis, screening, pair_list, eri_options.primitive_threshold, m, n,
          bra_pairs, batcher, engine,
          [&](std::size_t mm, std::size_t pp, std::size_t nn, std::size_t qq,
              const double* eri, std::size_t eri_size) {
            if (engine.shell_quartets_computed() != seen_quartets) {
              const Clock::time_point now = Clock::now();
              const int l = basis.shell(mm).l + basis.shell(pp).l +
                            basis.shell(nn).l + basis.shell(qq).l;
              out.eri_s[l] += secs(now - mark);
              out.quartets[l] += engine.shell_quartets_computed() - seen_quartets;
              out.prim_quartets[l] +=
                  engine.primitive_quartets_computed() - seen_prims;
              seen_quartets = engine.shell_quartets_computed();
              seen_prims = engine.primitive_quartets_computed();
              mark = now;
            }
            mf::apply_quartet_update(basis, mm, pp, nn, qq, eri, eri_size,
                                     mf::quartet_degeneracy(mm, pp, nn, qq),
                                     ctx);
            const Clock::time_point now = Clock::now();
            out.digest_s += secs(now - mark);
            mark = now;
          });
    }
  }
  out.fock = mf::finalize_fock(h_core, w);
  out.integrals = engine.integrals_computed();
  out.wall_s = secs(Clock::now() - start);
  return out;
}

void set_class_metrics(Metrics& metrics, const ClassBuild& build) {
  static constexpr const char* kNames[kNumClasses] = {
      "eri.L0", "eri.L1", "eri.L2", "eri.L3", "eri.L4",
      "eri.L5", "eri.L6", "eri.L7", "eri.L8"};
  const double busy = build.eri_total_s();
  metrics.set("eri.quartets", static_cast<double>(build.total_quartets()),
              "count");
  metrics.set("eri.prim_quartets",
              static_cast<double>(build.total_prim_quartets()), "count");
  metrics.set("eri.busy_s", busy, "s");
  metrics.set("eri.t_int_us", busy / static_cast<double>(build.integrals) * 1e6,
              "us");
  metrics.set("eri.ns_per_prim_quartet",
              busy / static_cast<double>(build.total_prim_quartets()) * 1e9,
              "ns");
  for (int l = 0; l < kNumClasses; ++l) {
    const std::string name = kNames[l];
    metrics.set(name + ".s", build.eri_s[l], "s");
    metrics.set(name + ".quartets", static_cast<double>(build.quartets[l]),
                "count");
    metrics.set(name + ".prim_quartets",
                static_cast<double>(build.prim_quartets[l]), "count");
  }
  metrics.set("core.digest_s", build.digest_s, "s");
}

void GtFockTotals::add(const mf::GtFockResult& result, double seconds) {
  build_s.push_back(seconds);
  load_balance.push_back(result.load_balance());
  const double n = static_cast<double>(result.ranks.size());
  for (const mf::GtFockRankStats& r : result.ranks) {
    prefetch_s += r.prefetch_seconds / n;
    flush_s += r.flush_seconds / n;
    tasks_stolen += r.tasks_stolen;
    queue_atomics += r.queue_atomic_ops;
    wait_s += static_cast<double>(r.comm.wait_ns) * 1e-9;
  }
  compute_s += result.avg_compute_seconds();
  overhead_s += result.avg_overhead_seconds();
  steal_victims += result.avg_steal_victims();
  const mf::CommSummary comm = result.comm_summary();
  calls += comm.avg_calls;
  bytes += comm.avg_bytes;
}

void GtFockTotals::set_metrics(Metrics& metrics) const {
  const double builds = static_cast<double>(build_s.size());
  metrics.set("core.gtfock.build_s", median(build_s), "s");
  metrics.set("core.gtfock.compute_s", compute_s, "s");
  metrics.set("core.gtfock.prefetch_s", prefetch_s, "s");
  metrics.set("core.gtfock.flush_s", flush_s, "s");
  metrics.set("core.gtfock.overhead_s", overhead_s, "s");
  metrics.set("core.gtfock.load_balance", median(load_balance), "ratio");
  metrics.set("core.gtfock.steal_victims", steal_victims / builds, "count");
  metrics.set("core.gtfock.tasks_stolen", static_cast<double>(tasks_stolen),
              "count");
  metrics.set("core.gtfock.queue_atomics", static_cast<double>(queue_atomics),
              "count");
  metrics.set("ga.gtfock.calls", calls / builds, "count");
  metrics.set("ga.gtfock.mb", mf::to_megabytes(bytes / builds), "MB");
}

void check_gtfock_tasks(Checks& checks, const mf::GtFockResult& result,
                        std::size_t nshells) {
  std::uint64_t executed = 0;
  for (const mf::GtFockRankStats& r : result.ranks) {
    executed += r.tasks_owned + r.tasks_stolen;
  }
  checks.check(executed == mf::live_task_count(nshells),
               "GTFock build ran " + std::to_string(executed) + " tasks, want " +
                   std::to_string(mf::live_task_count(nshells)));
}

void set_fault_metrics(Metrics& metrics) {
  const mf::fault::FaultStats faults = mf::fault::stats();
  std::uint64_t retries = 0, failures = faults.total_kills();
  for (std::size_t c = 0; c < faults.retries.size(); ++c) {
    retries += faults.retries[c];
    failures += faults.exhausted[c] + faults.permanent[c];
  }
  metrics.set("fault.retries", static_cast<double>(retries), "count");
  metrics.set("fault.failures", static_cast<double>(failures), "count");
}

void set_size_metrics(
    Metrics& metrics,
    const std::vector<std::pair<const mf::Basis*, const mf::ScreeningData*>>&
        inputs) {
  double shells = 0.0, functions = 0.0, tasks = 0.0, sig = 0.0, prims = 0.0;
  for (const auto& [basis, screening] : inputs) {
    shells += static_cast<double>(basis->num_shells());
    functions += static_cast<double>(basis->num_functions());
    tasks += static_cast<double>(mf::live_task_count(basis->num_shells()));
    sig += static_cast<double>(screening->num_significant_pairs());
    prims += static_cast<double>(screening->pairs().num_prim_pairs());
  }
  metrics.set("chem.shells", shells, "count");
  metrics.set("chem.functions", functions, "count");
  metrics.set("core.tasks", tasks, "count");
  metrics.set("eri.sig_pairs", sig, "count");
  metrics.set("eri.prim_pairs", prims, "count");
}

void split_class_rows(Ledger& ledger, const char* build_row,
                      const ClassBuild& build) {
  // Static strings: ledger rows double as trace-event names.
  static constexpr const char* kRows[kNumClasses] = {
      "eri.class_L0", "eri.class_L1", "eri.class_L2",
      "eri.class_L3", "eri.class_L4", "eri.class_L5",
      "eri.class_L6", "eri.class_L7", "eri.class_L8"};
  for (int l = 0; l < kNumClasses; ++l) {
    if (build.quartets[l] > 0) ledger.move(build_row, kRows[l], build.eri_s[l]);
  }
  ledger.move(build_row, "core.digest", build.digest_s);
}

}  // namespace perfbench
