// des-sweep: the discrete-event simulators across the paper's core counts,
// 12..3888, on the scaled C54H18 (graphene) and C30H62 (alkane) molecules
// with cc-pVDZ and t_int pinned at the paper's 4.76 us. No ERI runs in the
// timed sweep; its inputs (screening in both orderings, the task-cost model
// and the NWChem task table) are built in the set-up, without any cache.
// The inputs do not depend on --seed.

#include <cmath>
#include <memory>

#include "baseline/nwchem_sim.h"
#include "chem/molecule_builders.h"
#include "core/gtfock_sim.h"
#include "core/perf_model.h"
#include "core/shell_reorder.h"
#include "core/symmetry.h"
#include "core/task_cost.h"
#include "obs/analysis.h"
#include "perfbench.h"
#include "util/timer.h"

namespace perfbench {
namespace {

constexpr double kPaperTInt = 4.76e-6;
constexpr std::size_t kCores[] = {12, 48, 108, 192, 432, 768, 1728, 3888};

struct Case {
  const char* name;
  mf::Basis atom_basis;
  mf::Basis basis;
  std::unique_ptr<mf::ScreeningData> screening;
  std::unique_ptr<mf::ScreeningData> atom_screening;
  std::unique_ptr<mf::TaskCostModel> costs;
  std::unique_ptr<mf::NwchemTaskTable> nwchem_tasks;
};

std::vector<std::unique_ptr<Case>> setup(Ledger& ledger) {
  std::vector<std::unique_ptr<Case>> cases;
  const std::pair<const char*, mf::Molecule> molecules[] = {
      {"C54H18", mf::graphene_flake(3)}, {"C30H62", mf::linear_alkane(30)}};
  mf::ScreeningOptions sopts;
  sopts.tau = kTau;
  for (const auto& [name, mol] : molecules) {
    auto c = std::make_unique<Case>();
    c->name = name;
    c->atom_basis = ledger.time("chem.basis", [&] {
      return mf::Basis(mol, mf::BasisLibrary::builtin("cc-pvdz"));
    });
    c->basis = ledger.time(
        "core.reorder", [&] { return mf::apply_reordering(c->atom_basis, {}); });
    ledger.time("eri.screening", [&] {
      c->screening = std::make_unique<mf::ScreeningData>(c->basis, sopts);
      c->atom_screening =
          std::make_unique<mf::ScreeningData>(c->atom_basis, sopts);
    });
    c->costs = ledger.time("core.task_cost", [&] {
      return std::make_unique<mf::TaskCostModel>(c->basis, *c->screening);
    });
    c->nwchem_tasks = ledger.time("baseline.nwchem_tasks", [&] {
      return std::make_unique<mf::NwchemTaskTable>(c->atom_basis,
                                                   *c->atom_screening);
    });
    cases.push_back(std::move(c));
  }
  return cases;
}

bool within_1pct(double got, double want) {
  return std::abs(got - want) <= 0.01 * std::abs(want);
}

struct Point {
  mf::GtFockSimResult gtfock;
  mf::NwchemSimResult nwchem;
};

void check_point(const Case& c, std::size_t cores, const Point& p,
                 const mf::obs::DerivedMetrics& d, Checks& checks) {
  const std::string at =
      std::string(c.name) + " @" + std::to_string(cores) + " cores: ";
  checks.check(within_1pct(d.t_fock, p.gtfock.fock_time()) &&
                   within_1pct(d.avg_finish, p.gtfock.avg_fock_time()) &&
                   within_1pct(d.avg_compute, p.gtfock.avg_comp_time()) &&
                   within_1pct(d.load_balance, p.gtfock.load_balance()),
               at + "analyzer disagrees with the simulator by over 1%");
  std::uint64_t gt_tasks = 0;
  for (const mf::SimRankReport& r : p.gtfock.ranks) {
    gt_tasks += r.tasks_owned + r.tasks_stolen;
  }
  checks.check(gt_tasks == mf::live_task_count(c.basis.num_shells()),
               at + "GTFock simulation ran " + std::to_string(gt_tasks) +
                   " tasks");
  std::uint64_t nw_tasks = 0;
  for (const mf::NwchemSimRankReport& r : p.nwchem.ranks) {
    nw_tasks += r.tasks_executed;
  }
  checks.check(nw_tasks == c.nwchem_tasks->num_tasks(),
               at + "NWChem simulation ran " + std::to_string(nw_tasks) +
                   " tasks");
}

// One full sweep; returns its time, which leaves out the per-point checks.
// `at_max_cores`, when given, receives each molecule's 3888-core point.
double sweep_op(const std::vector<std::unique_ptr<Case>>& cases,
                Checks& checks, Ledger& ledger,
                std::vector<Point>* at_max_cores) {
  checks.start_op();
  mf::MachineParams machine;
  machine.t_int = kPaperTInt;
  double seconds = 0.0;
  for (const auto& c : cases) {
    for (std::size_t cores : kCores) {
      Point p;
      mf::WallTimer timer;
      mf::GtFockSimOptions gopts;
      gopts.total_cores = cores;
      gopts.machine = machine;
      gopts.collect_timeline = true;
      p.gtfock = ledger.time("core.gtfock_sim", [&] {
        return mf::simulate_gtfock(c->basis, *c->screening, *c->costs, gopts);
      });
      const mf::obs::RunAnalysis analysis = ledger.time(
          "obs.analyze", [&] { return mf::obs::analyze_timeline(p.gtfock.timeline); });
      mf::NwchemSimOptions nopts;
      nopts.total_cores = cores;
      nopts.machine = machine;
      p.nwchem = ledger.time("baseline.nwchem_sim", [&] {
        return mf::simulate_nwchem(*c->nwchem_tasks, nopts);
      });
      seconds += timer.seconds();
      check_point(*c, cores, p, analysis.metrics, checks);
      if (at_max_cores != nullptr && cores == kCores[std::size(kCores) - 1]) {
        p.gtfock.timeline = {};
        at_max_cores->push_back(std::move(p));
      }
    }
  }
  return seconds;
}

Result timed(const Args& args) {
  Result out;
  Ledger muted;
  muted.set_muted(true);
  // One set-up only: it takes 11-17 s on a 4-core Xeon VM, against
  // 0.1-0.5 s for the other workloads' set-ups.
  mf::WallTimer timer;
  const auto cases = setup(muted);
  const double setup_s = timer.seconds();
  const std::vector<double> ops = closed_loop(args.seconds, [&] {
    return sweep_op(cases, out.checks, muted, nullptr);
  });
  out.metrics.set("op_s", median(ops), "s");
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Result traced() {
  Result out;
  Metrics& m = out.metrics;
  Ledger ledger;
  const auto cases = setup(ledger);

  // The first sweep of a process runs ~20% slow (cold allocator and
  // caches), so the reference is the second of two.
  double untraced_s = 0.0;
  ledger.reference_pass([&] {
    sweep_op(cases, out.checks, ledger, nullptr);
    untraced_s = sweep_op(cases, out.checks, ledger, nullptr);
  });
  std::vector<Point> at_max;
  const double traced_s = sweep_op(cases, out.checks, ledger, &at_max);
  const double t_int = ledger.time("core.calibrate_t_int", [&] {
    return mf::calibrate_t_int(cases[0]->basis, *cases[0]->screening, 1024);
  });

  double quartets = 0.0, nwchem_tasks = 0.0;
  std::vector<std::pair<const mf::Basis*, const mf::ScreeningData*>> inputs;
  for (const auto& c : cases) {
    quartets += static_cast<double>(c->costs->total_quartets());
    nwchem_tasks += static_cast<double>(c->nwchem_tasks->num_tasks());
    inputs.emplace_back(&c->basis, c->screening.get());
  }
  m.set("chem.basis_s", ledger.row("chem.basis"), "s");
  set_size_metrics(m, inputs);
  m.set("baseline.nwchem.tasks", nwchem_tasks, "count");
  m.set("eri.screening_s", ledger.row("eri.screening"), "s");
  m.set("eri.quartets", quartets, "count");
  m.set("core.calibrated_t_int_us", t_int * 1e6, "us");
  m.set("core.task_cost_s", ledger.row("core.task_cost"), "s");
  m.set("core.gtfock_sim_s", ledger.row("core.gtfock_sim"), "s");
  m.set("baseline.nwchem_tasks_s", ledger.row("baseline.nwchem_tasks"), "s");
  m.set("baseline.nwchem_sim_s", ledger.row("baseline.nwchem_sim"), "s");
  m.set("obs.analyze_s", ledger.row("obs.analyze"), "s");
  m.set("obs.trace_overhead_frac", traced_s / untraced_s - 1.0, "frac");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string mol = std::string("dsim.") + cases[i]->name;
    const Point& p = at_max[i];
    m.set(mol + ".gtfock.t_fock_s", p.gtfock.fock_time(), "sim_s");
    m.set(mol + ".gtfock.comm_mb", p.gtfock.avg_comm_megabytes(), "MB");
    m.set(mol + ".gtfock.load_balance", p.gtfock.load_balance(), "ratio");
    m.set(mol + ".gtfock.steal_victims", p.gtfock.avg_steal_victims(), "count");
    m.set(mol + ".nwchem.t_fock_s", p.nwchem.fock_time(), "sim_s");
    m.set(mol + ".nwchem.comm_calls", p.nwchem.avg_comm_calls(), "count");
  }
  set_fault_metrics(m);
  ledger.print(stdout);
  return out;
}

}  // namespace

Result run_des_sweep(const Args& args) {
  return args.trace ? traced() : timed(args);
}

}  // namespace perfbench
