// scf-water4: a chemist's time to solution. One RHF SCF to convergence on
// water_cluster(4)/cc-pVDZ with the threaded GTFock builder installed as the
// Fock step and canonical purification with DIIS as the density step.

#include <memory>

#include "chem/molecule_builders.h"
#include "core/fock_serial.h"
#include "core/perf_model.h"
#include "core/shell_reorder.h"
#include "eri/one_electron.h"
#include "linalg/eigen.h"
#include "perfbench.h"
#include "scf/hf.h"
#include "util/timer.h"

namespace perfbench {
namespace {

// Set-up is ~0.1 s and noisy, so its median is taken over many.
constexpr int kSetups = 15;

// Everything a run keeps between SCFs. Heap-held: HartreeFock and the
// builder keep references to the basis and the screening.
struct Water4 {
  mf::Basis basis;
  std::unique_ptr<mf::HartreeFock> hf;
  std::unique_ptr<mf::GtFockBuilder> gtfock;
  // Used by the installed Fock step during an SCF.
  Ledger* ledger = nullptr;
  Checks* checks = nullptr;
  mf::Matrix last_density;
  GtFockTotals builds;
};

std::unique_ptr<Water4> setup(const Args& args, Ledger& ledger) {
  auto w = std::make_unique<Water4>();
  const mf::Molecule mol =
      rigid_motion(mf::water_cluster(4, args.water_seed), args.seed);
  const mf::Basis atom_order = ledger.time("chem.basis", [&] {
    return mf::Basis(mol, mf::BasisLibrary::builtin("cc-pvdz"));
  });
  w->basis = ledger.time("core.reorder",
                         [&] { return mf::apply_reordering(atom_order, {}); });
  mf::ScfOptions options;
  options.tau = kTau;
  options.solver = mf::DensitySolver::kPurification;
  // Screening with the shell-pair list, one-electron integrals and X.
  w->hf = ledger.time("scf.init", [&] {
    return std::make_unique<mf::HartreeFock>(w->basis, options);
  });
  mf::GtFockOptions gopts;
  gopts.nprocs = ranks();
  w->gtfock = ledger.time("core.gtfock_init", [&] {
    return std::make_unique<mf::GtFockBuilder>(w->basis, w->hf->screening(),
                                               gopts);
  });
  w->ledger = &ledger;
  Water4* state = w.get();
  w->hf->set_fock_builder([state](const mf::Matrix& d, const mf::Matrix& h) {
    state->last_density = d;
    mf::WallTimer timer;
    mf::GtFockResult r = state->ledger->time(
        "core.gtfock_build", [&] { return state->gtfock->build(d, h); });
    state->builds.add(r, timer.seconds());
    check_gtfock_tasks(*state->checks, r, state->basis.num_shells());
    return std::move(r.fock);
  });
  return w;
}

struct ScfRun {
  mf::ScfResult result;
  mf::Matrix oracle;  // fock_serial at the density of the final build
  double seconds = 0.0;
};

// One timed SCF, then its output checks.
ScfRun scf_op(Water4& w, const Args& args, Checks& checks, Ledger& ledger) {
  ScfRun run;
  checks.start_op();
  w.builds = GtFockTotals{};
  w.checks = &checks;
  mf::WallTimer timer;
  run.result = ledger.time("scf.run", [&] { return w.hf->run(); });
  run.seconds = timer.seconds();

  checks.check(run.result.converged, "SCF did not converge");
  if (args.water_seed == kDefaultWaterSeed) {
    checks.check_close("SCF energy", run.result.energy, kWater4Energy, 1e-8);
  }
  run.oracle = ledger.time("core.fock_serial", [&] {
    return mf::fock_serial(w.basis, w.hf->screening(), w.last_density,
                           w.hf->core());
  });
  checks.check_close("final F vs fock_serial",
                     mf::max_abs_diff(run.result.fock, run.oracle), 0.0, 1e-10);
  return run;
}

Result timed(const Args& args) {
  Result out;
  Ledger muted;
  muted.set_muted(true);
  std::vector<double> setup_s;
  std::unique_ptr<Water4> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    mf::WallTimer timer;
    w = setup(args, muted);
    setup_s.push_back(timer.seconds());
  }
  print_samples("setup_s", setup_s);
  const std::vector<double> ops = closed_loop(args.seconds, [&] {
    return scf_op(*w, args, out.checks, muted).seconds;
  });
  out.metrics.set("op_s", median(ops), "s");
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Result traced(const Args& args) {
  Result out;
  Metrics& m = out.metrics;
  Ledger ledger;
  std::unique_ptr<Water4> w = setup(args, ledger);
  // The pieces HartreeFock's constructor bundles, timed one by one (the
  // scf.init row above holds the same work once more).
  mf::ScreeningOptions sopts;
  sopts.tau = kTau;
  ledger.time("eri.screening",
              [&] { return mf::ScreeningData(w->basis, sopts); });
  const mf::Matrix s = ledger.time("eri.one_electron", [&] {
    mf::core_hamiltonian(w->basis);  // H = T + V; S is kept for X below
    return mf::overlap_matrix(w->basis);
  });
  ledger.time("linalg.inverse_sqrt", [&] { return mf::inverse_sqrt(s); });

  double untraced_s = 0.0;
  ledger.reference_pass(
      [&] { untraced_s = scf_op(*w, args, out.checks, ledger).seconds; });

  const ScfRun run = scf_op(*w, args, out.checks, ledger);
  double density_s = 0.0;
  int purification_iters = 0;
  for (const mf::ScfIterationInfo& it : run.result.history) {
    density_s += it.density_seconds;
    purification_iters += it.purification_iterations;
  }
  ledger.move("scf.run", "linalg.density", density_s);

  const ClassBuild classes = ledger.time("core.serial_class_build", [&] {
    return serial_class_build(w->basis, w->hf->screening(), w->last_density,
                              w->hf->core());
  });
  split_class_rows(ledger, "core.serial_class_build", classes);
  out.checks.start_op();
  out.checks.check_close("class-split serial build vs fock_serial",
                         mf::max_abs_diff(classes.fock, run.oracle), 0.0,
                         1e-10);
  const double t_int = ledger.time("core.calibrate_t_int", [&] {
    return mf::calibrate_t_int(w->basis, w->hf->screening(), 1024);
  });

  m.set("chem.basis_s", ledger.row("chem.basis"), "s");
  set_size_metrics(m, {{&w->basis, &w->hf->screening()}});
  m.set("eri.screening_s", ledger.row("eri.screening"), "s");
  m.set("eri.one_electron_s", ledger.row("eri.one_electron"), "s");
  set_class_metrics(m, classes);
  m.set("core.serial_fock_s", ledger.row("core.fock_serial"), "s");
  w->builds.set_metrics(m);
  m.set("ga.wait_s", w->builds.wait_s, "s");
  m.set("core.calibrated_t_int_us", t_int * 1e6, "us");
  m.set("linalg.density_s", density_s, "s");
  m.set("linalg.purification_iters", purification_iters, "count");
  m.set("scf.iterations", run.result.iterations, "count");
  m.set("scf.fock_s", ledger.row("core.gtfock_build"), "s");
  m.set("scf.other_s", ledger.row("scf.run"), "s");
  m.set("obs.trace_overhead_frac", run.seconds / untraced_s - 1.0, "frac");
  set_fault_metrics(m);
  ledger.print(stdout);
  return out;
}

}  // namespace

Result run_scf_water4(const Args& args) {
  return args.trace ? traced(args) : timed(args);
}

}  // namespace perfbench
