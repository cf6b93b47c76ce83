#pragma once
// perfbench: the performance benchmark's binary. One process runs one
// workload (BENCHMARK.json at the repository root lists them and says why
// each exists), reaching the library only through its public headers.
//
// Two modes:
//   * timed (--trace=0): repeated set-up and a closed loop of operations
//     (each issued only after the previous one finished, output-checked
//     outside its timing); prints the end-to-end metrics.
//   * traced (--trace=1): one pass in which every call into a layer is
//     timed from the benchmark's side by a Ledger and recorded as an obs
//     trace span; prints the layer table (rows sum to the wall time) and
//     the per-layer metrics.
// Either way the last stdout line is the result JSON:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "chem/basis_set.h"
#include "chem/molecule.h"
#include "core/fock_builder.h"
#include "eri/screening.h"
#include "linalg/matrix.h"

namespace perfbench {

/// water_cluster geometry seed of scf-water4 unless --water-seed is given;
/// the reference energy below belongs to it.
inline constexpr std::uint64_t kDefaultWaterSeed = 2026;
inline constexpr double kWater4Energy = -304.0738951091;
/// Schwarz tolerance tau of every workload (the paper's value).
inline constexpr double kTau = 1e-10;
/// Ranks per build: 4, never more than the hardware threads.
std::size_t ranks();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  /// Geometry seed of water_cluster (scf-water4).
  std::uint64_t water_seed = kDefaultWaterSeed;
  /// Seed of the symmetric density (fock-alkane20); defaults to --seed.
  std::uint64_t density_seed = 1;
  /// Chrome trace written by a traced run.
  std::string trace_out;
};

/// Named metrics in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Output checks. Every timed operation counts as one attempt; it fails
/// when any check on its output fails.
class Checks {
 public:
  void start_op() {
    ++attempted_;
    op_failed_ = false;
  }
  /// Records one check of the current operation; a failure is printed.
  void check(bool ok, const std::string& what);
  /// |got - want| <= tol.
  void check_close(const std::string& what, double got, double want,
                   double tol);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
};

/// Where a traced run's wall time went. time(row, f) runs f and charges its
/// self time (elapsed minus the time of nested time() calls) to `row`, and
/// records one obs trace span for it, so the rows plus the unattributed
/// remainder sum to the wall time since construction. Time measured inside
/// a call (the library's own timers) is re-attributed with move().
class Ledger {
 public:
  Ledger();

  template <typename F>
  decltype(auto) time(const char* row, F&& f) {
    if (muted_) return f();
    push(row);
    struct Pop {
      Ledger* ledger;
      ~Pop() { ledger->pop(); }
    } pop{this};
    return f();
  }

  /// Re-attributes `seconds` already charged to `from` to `to`.
  void move(const char* from, const char* to, double seconds);
  /// Seconds charged to `row` so far (0 when absent).
  double row(const char* name) const;
  /// Prints the layer table: rows, unattributed remainder, wall total.
  void print(std::FILE* out) const;

  /// While muted, time() only runs its callable.
  void set_muted(bool muted) { muted_ = muted; }

  /// Runs `pass` muted, as the untraced reference whose wall time the
  /// traced pass is compared with (obs.trace_overhead_frac), charged whole
  /// to one row. Then turns on the library's own metrics instrumentation
  /// (comm-wait timing, counters) for everything after it.
  void reference_pass(const std::function<void()>& pass);

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    const char* row;
    Clock::time_point start;
    std::int64_t start_ns;
    double child = 0.0;
  };
  void push(const char* row);
  void pop();
  double& slot(const char* name);
  double wall() const;

  Clock::time_point start_;
  std::vector<std::pair<std::string, double>> rows_;
  std::vector<Frame> stack_;
  bool muted_ = false;
};

/// The measured closed loop: runs `op` (returning its own timed seconds)
/// `min_ops` times and again while the next one is expected to end within
/// `seconds` of the loop's start. Prints and returns the per-op times.
std::vector<double> closed_loop(double seconds, const std::function<double()>& op,
                                int min_ops = 1);
/// Prints one line "<name> samples (n): v1 v2 ...".
void print_samples(const char* name, const std::vector<double>& values);

double median(std::vector<double> values);
/// Peak resident set size of this process, MB (1 MB = 1e6 bytes).
double peak_rss_mb();

/// `mol` under the rigid motion picked by `seed`: reflections and an x/y
/// swap (16 choices), then a shift of up to 4 bohr per axis. Energies and
/// screened quartet counts are invariant; coordinates and the spatial shell
/// order are not.
mf::Molecule rigid_motion(const mf::Molecule& mol, std::uint64_t seed);

/// Symmetric matrix with entries uniform in [-0.5, 0.5), drawn from `seed`.
mf::Matrix seeded_symmetric(std::size_t n, std::uint64_t seed);

/// Function-index map of a shell permutation: function i of `reordered`
/// is function map[i] of `original`, where reordered shell s is original
/// shell perm[s].
std::vector<std::size_t> function_map(const mf::Basis& original,
                                      const std::vector<std::size_t>& perm);
/// out(i, j) = m(map[i], map[j]).
mf::Matrix permuted(const mf::Matrix& m, const std::vector<std::size_t>& map);

/// Per angular-momentum class split of one serial build through the
/// production run_task_batched path (core/fock_task.h). Class L is the
/// total angular momentum la+lb+lc+ld of a quartet; L0 is (ss|ss).
inline constexpr int kNumClasses = 9;
struct ClassBuild {
  mf::Matrix fock;
  double wall_s = 0.0;
  double eri_s[kNumClasses] = {};  // EriEngine::compute_batch
  double digest_s = 0.0;           // apply_quartet_update
  std::uint64_t quartets[kNumClasses] = {};
  std::uint64_t prim_quartets[kNumClasses] = {};
  std::uint64_t integrals = 0;

  double eri_total_s() const;
  std::uint64_t total_quartets() const;
  std::uint64_t total_prim_quartets() const;
};
ClassBuild serial_class_build(const mf::Basis& basis,
                              const mf::ScreeningData& screening,
                              const mf::Matrix& density,
                              const mf::Matrix& h_core);

/// Adds the per-layer eri.* and core.digest_s metrics of a class build.
void set_class_metrics(Metrics& metrics, const ClassBuild& build);
/// Moves a class build's per-class ERI and digestion time out of the
/// ledger row that timed the whole build.
void split_class_rows(Ledger& ledger, const char* build_row,
                      const ClassBuild& build);

/// Threaded GTFock statistics over the builds of one pass.
struct GtFockTotals {
  std::vector<double> build_s;
  std::vector<double> load_balance;
  double compute_s = 0.0;   // sums over builds of the per-rank averages
  double prefetch_s = 0.0;
  double flush_s = 0.0;
  double overhead_s = 0.0;
  double steal_victims = 0.0;  // sum of per-build averages
  double calls = 0.0;          // sum of per-build per-rank averages
  double bytes = 0.0;
  double wait_s = 0.0;         // summed over ranks and builds
  std::uint64_t tasks_stolen = 0;
  std::uint64_t queue_atomics = 0;

  void add(const mf::GtFockResult& result, double seconds);
  /// core.gtfock.* and ga.gtfock.* metrics (ga.wait_s is left to the caller).
  void set_metrics(Metrics& metrics) const;
};

/// Checks that a threaded GTFock build ran every live task exactly once.
void check_gtfock_tasks(Checks& checks, const mf::GtFockResult& result,
                        std::size_t nshells);

/// fault.retries and fault.failures from fault::stats().
void set_fault_metrics(Metrics& metrics);
/// chem.shells, chem.functions, core.tasks (live GTFock tasks),
/// eri.sig_pairs and eri.prim_pairs, summed over the workload's screened
/// bases.
void set_size_metrics(
    Metrics& metrics,
    const std::vector<std::pair<const mf::Basis*, const mf::ScreeningData*>>&
        inputs);

struct Result {
  Metrics metrics;
  Checks checks;
};

Result run_scf_water4(const Args& args);
Result run_fock_alkane20(const Args& args);
Result run_des_sweep(const Args& args);

}  // namespace perfbench
