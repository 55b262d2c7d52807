"""Experiment harness: reproducible comparisons and falsification campaigns.

Configs are flat key-value text files with dotted section names (see
README for the schema).  Every experiment derives per-repetition seeds as
base_seed + repetition index and writes deterministic artifacts: rerunning
the same config produces byte-identical files.  Wall-clock timings are
printed to the console only, never persisted, to keep outputs reproducible.

An experiment first runs (searches or trials, results kept in memory) and
then renders: `_compare_outputs` and `_falsify_outputs` turn the results
into the text of every derived artifact.  The run writes that text; `replay`
rebuilds the same inputs from the persisted archives and snapshot
checkpoints, or from the trial round logs, renders them through the same
functions and compares the bytes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy  # submodules load on first use, keeping `import sasbt` cheap

from . import indicators, scenario
from .arx import ArxConfig, siso_rows
from .falsify import (BENCHMARK_SYSTEMS, FalsifyResult, RoundLog, SignalParam,
                      benchmark_sut, falsification_stats, falsify,
                      format_stats_row, random_baseline)
from .guidance import DtConfig, nsga2_dt, stage_checkpoints
from .search import EvaluationArchive, SearchConfig, evolve
from .stl import Formula, compile_requirement, format_requirement, parse_requirement

ALPHA = 0.05


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------- flat config files ----------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `section.key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


class _Cfg:
    """Typed access with consumption tracking so unknown keys are rejected."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.used: set[str] = set()

    def get(self, key: str, default):
        """The value of `key` parsed as the type of `default` (str, int,
        float, or a tuple of floats of the default's length; a None default
        reads as float), or `default` when the key is absent."""
        if key not in self.raw:
            return default
        self.used.add(key)
        v = self.raw[key]
        if isinstance(default, str):
            return v
        if isinstance(default, tuple):
            parse, expected = _floats, "comma-separated numbers"
        elif isinstance(default, int):
            parse, expected = int, "integer"
        else:
            parse, expected = float, "number"
        try:
            value = parse(v)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {expected}, got {v!r}") from exc
        if isinstance(default, tuple) and len(value) != len(default):
            count = {2: "two", 4: "four"}.get(len(default), str(len(default)))
            raise ConfigError(f"{key} needs {count} numbers, got {v!r}")
        return value

    def section(self, prefix: str, base, **fixed):
        """`base` with every field not in `fixed` read from `prefix + field`."""
        return replace(base, **fixed, **{
            f.name: self.get(prefix + f.name, getattr(base, f.name))
            for f in fields(base) if f.name not in fixed})

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; built from a config file plus CLI
    overrides, then validated before any simulation runs."""

    kind: str = "compare"
    budget: int = 1000
    repetitions: int = 10
    base_seed: int = 1
    sim: scenario.SimConfig = field(default_factory=scenario.SimConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    dt: DtConfig = field(default_factory=DtConfig)
    policy: indicators.DistinctnessPolicy = field(
        default_factory=indicators.DistinctnessPolicy)
    # falsification experiments
    system: str = "lti2"
    requirement: Formula | None = None
    signal: SignalParam = field(default_factory=SignalParam)
    real_budget: int = 300
    surrogate_budget: int = 300
    arx: ArxConfig = field(default_factory=ArxConfig)
    method: str = "anneal"
    n_initial: int = 2

    def validate(self) -> None:
        if self.kind not in ("compare", "falsify"):
            raise ConfigError(f"unknown experiment kind: {self.kind!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        try:
            if self.kind == "compare":
                self._validate_compare()
            else:
                self._validate_falsify()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _validate_compare(self) -> None:
        self.sim.validate()
        self.search.validate()
        self.dt.validate()
        self.policy.validate()
        pop = self.search.population
        if self.budget < 2 * pop:
            raise ConfigError(f"budget {self.budget} below two populations of {pop}")
        if self.budget % pop:
            raise ConfigError(
                f"budget {self.budget} is not a multiple of the population {pop}; "
                "both algorithms must get the same real-evaluation budget")
        if self.dt.budget != self.budget:
            raise ConfigError(
                f"unequal budgets: search {self.budget} vs tree-guided {self.dt.budget}")

    def _validate_falsify(self) -> None:
        if self.requirement is None:
            raise ConfigError("falsify experiments need falsify.requirement")
        self.signal.validate()
        try:
            compile_requirement(self.requirement, self.signal.period,
                                self.signal.n_samples)
        except ValueError as exc:
            raise ConfigError(
                f"falsify.requirement: {exc} (a signal of {self.signal.n_samples} "
                f"samples at period {self.signal.period:g})") from exc
        if self.real_budget < 1 or self.surrogate_budget < 1:
            raise ConfigError("falsification budgets must be >= 1")
        if self.method not in ("anneal", "random"):
            raise ConfigError(f"unknown falsification method: {self.method!r}")
        if self.n_initial < 1:
            raise ConfigError("n_initial must be >= 1")
        self._validate_arx()
        if self.system not in BENCHMARK_SYSTEMS:
            raise ConfigError(f"unknown benchmark system: {self.system!r}")

    def _validate_arx(self) -> None:
        """The first surrogate fit, on the `n_initial` real traces, must have
        a regression row per coefficient; checked here, not after those
        simulations have run."""
        na, nb, nk = self.arx.na, self.arx.nb, self.arx.nk
        for name, value in (("na", na), ("nb", nb), ("nk", nk)):
            if value < 0:
                raise ConfigError(f"falsify.arx_{name} must be >= 0, got {value}")
        if na + nb == 0:
            raise ConfigError("falsify.arx_na and falsify.arx_nb are both 0: "
                              "the surrogate would have no coefficients")
        rows = self.n_initial * siso_rows(self.arx, self.signal.n_samples)
        if rows < na + nb:
            raise ConfigError(
                f"falsify.arx_na/arx_nb/arx_nk = {na}/{nb}/{nk} leave {rows} "
                f"regression rows in falsify.n_initial = {self.n_initial} traces of "
                f"{self.signal.n_samples} samples, fewer than the {na + nb} coefficients")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Read `experiment.*` and the sections of the experiment's kind; a
        section key is the field name of its dataclass."""
        cfg = _Cfg(parse_config_text(text))
        kind = cfg.get("experiment.kind", "compare")
        if kind not in ("compare", "falsify"):
            raise ConfigError(f"unknown experiment kind: {kind!r}")
        self = cls(kind=kind)
        for name in ("budget", "repetitions", "base_seed"):
            setattr(self, name, cfg.get("experiment." + name, getattr(self, name)))
        if kind == "compare":
            self.sim = cfg.section("sim.", self.sim, input_bounds=tuple(
                cfg.get("sim.bounds_" + name, bounds)
                for name, bounds in zip(scenario.INPUT_NAMES, self.sim.input_bounds)))
            # generations derive from the budget and seeds from the repetition
            self.search = cfg.section("search.", self.search, generations=0, seed=0)
            self.dt = cfg.section("dt.", self.dt, budget=self.budget, seed=0, search=replace(
                self.search,
                population=cfg.get("dt.population", self.dt.search.population),
                generations=cfg.get("dt.generations", self.dt.search.generations)))
            self.policy = cfg.section("distinct.", self.policy)
        else:
            for name in ("system", "real_budget", "surrogate_budget", "method",
                         "n_initial"):
                setattr(self, name, cfg.get("falsify." + name, getattr(self, name)))
            req = cfg.get("falsify.requirement", "")
            if req:
                try:
                    self.requirement = parse_requirement(req)
                except ValueError as exc:
                    raise ConfigError(f"falsify.requirement: {exc}") from exc
            self.arx = cfg.section("falsify.arx_", self.arx)
            self.signal = cfg.section("signal.", self.signal)
        cfg.reject_unknown()
        self.validate()
        return self

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)


# ---------- rendering results to artifact text ----------

ALGORITHMS = ("nsga2", "nsga2dt")
METRICS = ("hv", "gd", "spread", "distinct_critical")


def _run_id(algorithm: str, repetition: int) -> str:
    return f"{algorithm}-r{repetition:02d}"


def _compare_aggregate(tagged: list[tuple[str, dict]], quarter: int) -> dict:
    """Cross-repetition medians, ratio and rank-sum test over per-run
    (algorithm, summary) pairs."""
    def pick(tag: str, key: str) -> list:
        return [s[key] for algorithm, s in tagged if algorithm == tag]

    plain = pick("nsga2", "distinct_critical")
    guided = pick("nsga2dt", "distinct_critical")
    med_plain = float(np.median(plain))
    med_guided = float(np.median(guided))
    ratio = med_guided / med_plain if med_plain > 0 else None
    if len(plain) >= 2 and (np.ptp(plain + guided) > 0):
        pvalue = float(scipy.stats.mannwhitneyu(guided, plain, alternative="two-sided").pvalue)
    else:
        pvalue = None
    return {
        "distinct_critical_median": {"nsga2": med_plain, "nsga2dt": med_guided},
        "distinct_critical_ratio": ratio,
        "ranksum_pvalue": pvalue,
        "alpha": ALPHA,
        "significant": bool(pvalue is not None and pvalue < ALPHA),
        "hv_at_quarter_budget_median": {
            "nsga2": float(np.median(pick("nsga2", "hv_at_quarter_budget"))),
            "nsga2dt": float(np.median(pick("nsga2dt", "hv_at_quarter_budget"))),
        },
        "quarter_budget_evaluations": quarter,
    }


def _compare_outputs(head: dict, runs: list[dict]) -> dict[str, str]:
    """Text of snapshots.csv, plots.csv and report.json.

    `head` is report.json without its runs and aggregate.  Each run carries
    its algorithm, repetition, archive and checkpoints, the (stage,
    evaluations) pairs whose archive prefixes are scored; the last one must
    cover the whole archive, since its row is the run's final summary.
    Every prefix of every run is scored against one reference built from
    all archives.
    """
    policy = indicators.DistinctnessPolicy(**head["distinctness"])
    quarter = head["budget"] // 4
    arrays = [(r["archive"].objective_array(), r["archive"].genome_array(),
               r["archive"].critical_array()) for r in runs]
    ref = indicators.build_reference([objs for objs, _, _ in arrays])
    snapshots = ["run_id,stage,evaluations,hv,gd,spread,distinct_critical\n"]
    plots = ["algorithm,repetition,evaluations,metric,value\n"]
    report_runs = []
    for r, (objs, genomes, critical) in zip(runs, arrays):
        run_id = _run_id(r["algorithm"], r["repetition"])
        counts = [count for _, count in r["checkpoints"]]
        if not counts or counts[-1] != len(objs):
            raise ValueError(f"{run_id}: checkpoints do not end at the archive "
                             f"length {len(objs)}")
        *rows, at_quarter = indicators.prefix_indicators(
            objs, genomes, critical, counts + [quarter], ref, policy)
        for (stage, count), v in zip(r["checkpoints"], rows):
            snapshots.append(f"{run_id},{stage},{count},{v['hv']!r},{v['gd']!r},"
                             f"{v['spread']!r},{v['distinct_critical']}\n")
            plots.extend(f"{r['algorithm']},{r['repetition']},{count},{metric},"
                         f"{float(v[metric])!r}\n" for metric in METRICS)
        final = rows[-1]
        report_runs.append({
            "run_id": run_id, "algorithm": r["algorithm"],
            "seed": head["base_seed"] + r["repetition"],
            "repetition": r["repetition"], "archive_csv": f"archive_{run_id}.csv",
            "snapshots_csv": "snapshots.csv",
            "summary": {"evaluations": len(objs),
                        "distinct_critical": final["distinct_critical"],
                        "final_hv": final["hv"], "final_gd": final["gd"],
                        "final_spread": final["spread"],
                        "hv_at_quarter_budget": at_quarter["hv"]}})
    aggregate = _compare_aggregate(
        [(r["algorithm"], r["summary"]) for r in report_runs], quarter)
    report = {**head, "runs": report_runs, "aggregate": aggregate}
    return {"snapshots.csv": "".join(snapshots), "plots.csv": "".join(plots),
            "report.json": json.dumps(report, indent=2, sort_keys=True)}


def _falsify_outputs(head: dict, results: list[FalsifyResult]) -> dict[str, str]:
    """Text of each trial_NN.jsonl round log, stats.csv and report.json.

    `head` is report.json without its trials and stats; trial i of
    `results` ran with seed base_seed + i.
    """
    texts = {f"trial_{i:02d}.jsonl": "".join(
        json.dumps(asdict(r), sort_keys=True) + "\n" for r in res.rounds)
        for i, res in enumerate(results)}
    stats = falsification_stats(results)
    texts["stats.csv"] = ("requirement,FR,mean,median\n" + format_stats_row(
        f"{head['system']}: {head['requirement']}", stats) + "\n")
    report = {
        **head,
        "trials": [{"trial": i, "seed": head["base_seed"] + i,
                    "falsified": r.falsified,
                    "real_simulations": r.real_simulations}
                   for i, r in enumerate(results)],
        "stats": {"FR": stats.fr, "mean": stats.mean_sims,
                  "median": stats.median_sims},
    }
    texts["report.json"] = json.dumps(report, indent=2, sort_keys=True)
    return texts


def _write(out: Path, texts: dict[str, str]) -> dict:
    """Write rendered artifacts; returns the report they contain."""
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return json.loads(texts["report.json"])


def _stripe(run, tasks: list, send) -> None:
    """Send a worker's results to the caller, or the exception that stopped it."""
    try:
        send.send([run(t) for t in tasks])
    except Exception as exc:
        send.send(exc)


def _in_parallel(run, tasks: list) -> list:
    """`[run(t) for t in tasks]`; task i runs on worker i mod W, W = usable CPUs
    capped at len(tasks).  The caller runs the last stripe and forks a child for
    each other one.  Tasks seed their own generators, so no result depends on W."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)), len(tasks)) if affinity else 1
    if workers <= 1:
        return [run(t) for t in tasks]
    import multiprocessing  # at use: keeps `import sasbt` cheap

    context = multiprocessing.get_context("fork")  # a spawned child re-imports sasbt
    children = []
    try:
        for w in range(workers - 1):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_stripe, args=(run, tasks[w::workers], send))
            child.start()  # flushes stdout and stderr before forking
            send.close()  # so a child that dies leaves its pipe at EOF
            children.append((child, receive))
        stripes = [None] * (workers - 1) + [[run(t) for t in tasks[workers - 1::workers]]]
        for w, (child, receive) in enumerate(children):
            try:
                stripes[w] = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"worker process exited with code {child.exitcode} "
                                   "before sending its results") from None
            if isinstance(stripes[w], Exception):
                raise stripes[w]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return [stripes[i % workers][i // workers] for i in range(len(tasks))]


# ---------- compare experiment ----------


def run_compare(config: ExperimentConfig, out_dir, *, quiet: bool = False) -> dict:
    """Equal-budget comparison of the plain and tree-guided searches.

    Writes per-run archive CSVs, cross-referenced indicator snapshots,
    long-format plot data, per-iteration region reports and report.json.
    Returns the report dictionary.
    """
    config.validate()
    if config.kind != "compare":
        raise ConfigError("run_compare needs a compare-kind config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space = scenario.search_space(config.sim)
    evaluator = scenario.make_evaluator(config.sim)
    pop = config.search.population
    generations = config.budget // pop - 1

    def search(task: tuple[str, int]) -> dict:
        algorithm, rep = task
        seed = config.base_seed + rep
        t0 = time.perf_counter()
        if algorithm == "nsga2":
            _, archive = evolve(space, replace(config.search, generations=generations,
                                               seed=seed), evaluator, run_id=rep)
            checkpoints = [("g%02d" % g, pop * (g + 1)) for g in range(generations + 1)]
            regions = None
        else:
            result = nsga2_dt(space, evaluator, replace(config.dt, seed=seed))
            archive, checkpoints = result.archive, stage_checkpoints(result.stages)
            regions = {"repetition": rep, "seed": seed, "iterations": result.iterations}
        return {"algorithm": algorithm, "repetition": rep, "archive": archive,
                "checkpoints": checkpoints, "regions": regions,
                "seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    runs = _in_parallel(search, [(algorithm, rep) for rep in range(config.repetitions)
                                 for algorithm in ALGORITHMS])
    wall = time.perf_counter() - t0
    if not quiet:
        for plain, guided in zip(runs[::2], runs[1::2]):
            print(f"rep {plain['repetition']}: nsga2 {len(plain['archive'])} evals "
                  f"({plain['seconds']:.1f}s), nsga2dt {len(guided['archive'])} evals "
                  f"({guided['seconds']:.1f}s)")

    region_reports = [r["regions"] for r in runs if r["regions"]]
    for r in runs:
        run_id = _run_id(r["algorithm"], r["repetition"])
        r["archive"].to_csv(out / f"archive_{run_id}.csv")
    with open(out / "regions.json", "w", encoding="utf-8") as fh:
        json.dump(region_reports, fh, indent=2, sort_keys=True)
    head = {
        "kind": "compare",
        "budget": config.budget,
        "repetitions": config.repetitions,
        "base_seed": config.base_seed,
        "population": pop,
        "generations": generations,
        "distinctness": {"mode": config.policy.mode,
                         "min_vars": config.policy.min_vars,
                         "epsilon": config.policy.epsilon},
    }
    report = _write(out, _compare_outputs(head, runs))
    if not quiet:
        aggregate = report["aggregate"]
        med = aggregate["distinct_critical_median"]
        ratio, pvalue = (aggregate["distinct_critical_ratio"],
                         aggregate["ranksum_pvalue"])
        print(f"distinct critical medians: nsga2 {med['nsga2']:g}, "
              f"nsga2dt {med['nsga2dt']:g} (ratio "
              f"{'undefined' if ratio is None else format(ratio, '.2f')}, "
              f"p {'n/a' if pvalue is None else format(pvalue, '.4g')})")
        print(f"wall time {wall:.1f}s (not persisted)")
    return report


# ---------- falsification experiment ----------


def run_falsify(config: ExperimentConfig, out_dir, *, quiet: bool = False) -> dict:
    """Repeated falsification trials with derived seeds; writes per-trial
    JSONL round logs, the FR/mean/median stats table and report.json."""
    config.validate()
    if config.kind != "falsify":
        raise ConfigError("run_falsify needs a falsify-kind config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sut = partial(benchmark_sut, config.system)

    def trial(seed: int) -> FalsifyResult:
        if config.method == "random":
            return random_baseline(sut, config.requirement, config.signal,
                                   real_budget=config.real_budget, seed=seed)
        return falsify(sut, config.requirement, config.signal, real_budget=config.real_budget,
                       surrogate_budget=config.surrogate_budget, arx=config.arx,
                       n_initial=config.n_initial, seed=seed)

    t0 = time.perf_counter()
    results = _in_parallel(trial, [config.base_seed + i for i in range(config.repetitions)])
    wall = time.perf_counter() - t0
    if not quiet:
        for i, res in enumerate(results):
            print(f"trial {i}: {'falsified' if res.falsified else 'exhausted'} "
                  f"after {res.real_simulations} real simulations")

    head = {
        "kind": "falsify",
        "system": config.system,
        "requirement": format_requirement(config.requirement),
        "method": config.method,
        "real_budget": config.real_budget,
        "surrogate_budget": config.surrogate_budget,
        "repetitions": config.repetitions,
        "base_seed": config.base_seed,
        "n_initial": config.n_initial,
        "arx": asdict(config.arx),
        "signal": asdict(config.signal),
    }
    report = _write(out, _falsify_outputs(head, results))
    if not quiet:
        print(f"FR {report['stats']['FR']}/{config.repetitions}; "
              f"wall time {wall:.1f}s (not persisted)")
    return report


# ---------- scoring and replay ----------


def score_archive(archive_path) -> dict:
    """Final indicators of one archive, scored against itself (its own
    objective ranges and final non-dominated front)."""
    archive = EvaluationArchive.from_csv(archive_path)
    if len(archive) == 0:
        raise ConfigError(f"archive {archive_path} is empty")
    objs = archive.objective_array()
    [vals] = indicators.prefix_indicators(
        objs, archive.genome_array(), archive.critical_array(), [len(archive)],
        indicators.build_reference([objs]))
    return {"evaluations": len(archive), **vals}


def _compare_inputs(out: Path, head: dict) -> list[dict]:
    """The runs of a compare experiment as _compare_outputs takes them:
    each archive CSV with the (stage, evaluations) checkpoints that
    snapshots.csv lists for its run."""
    checkpoints: dict[str, list[tuple[str, int]]] = {}
    with open(out / "snapshots.csv", "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            run_id, stage, count = line.split(",")[:3]
            checkpoints.setdefault(run_id, []).append((stage, int(count)))
    return [{"algorithm": algorithm, "repetition": rep,
             "archive": EvaluationArchive.from_csv(
                 out / f"archive_{_run_id(algorithm, rep)}.csv"),
             "checkpoints": checkpoints.get(_run_id(algorithm, rep), [])}
            for rep in range(head["repetitions"]) for algorithm in ALGORITHMS]


def _trial_result(path: Path) -> FalsifyResult:
    """A trial's result as far as its round log records it: a trial stops
    at its first real violation, so it is falsified exactly when the last
    logged robustness is negative."""
    with open(path, "r", encoding="utf-8") as fh:
        rounds = [RoundLog(**json.loads(line)) for line in fh if line.strip()]
    falsified = bool(rounds) and rounds[-1].real_robustness < 0.0
    return FalsifyResult(falsified, len(rounds), None, None, rounds)


def _first_difference(found: str, expected: str) -> str:
    for lineno, (a, b) in enumerate(zip(found.splitlines(), expected.splitlines()), 1):
        if a != b:
            return f"line {lineno}: {a!r} vs recomputed {b!r}"
    return "line counts differ"


def replay(out_dir, *, quiet: bool = False) -> bool:
    """Re-render every derived artifact of an output directory from its
    inputs (the archives and snapshot checkpoints, or the trial round logs)
    through the code that wrote it, and compare the bytes.  Returns True
    when every file matches."""
    out = Path(out_dir)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json under {out_dir}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    kind = report.get("kind")
    if kind not in ("compare", "falsify"):
        raise ConfigError(f"report kind {kind!r} not replayable")
    try:
        head = {k: v for k, v in report.items()
                if k not in ("runs", "aggregate", "trials", "stats")}
        if kind == "compare":
            expected = _compare_outputs(head, _compare_inputs(out, head))
        else:
            expected = _falsify_outputs(
                head, [_trial_result(out / f"trial_{i:02d}.jsonl")
                       for i in range(head["repetitions"])])
    except (KeyError, TypeError, ValueError) as exc:
        if not quiet:
            print(f"replay cannot re-render the artifacts: {exc!r}")
        return False
    ok = True
    for name, text in expected.items():
        path = out / name
        found = path.read_text(encoding="utf-8") if path.exists() else None
        if found != text:
            ok = False
            if not quiet:
                print(f"mismatch {name}: " + ("file missing" if found is None
                                              else _first_difference(found, text)))
    if not quiet:
        print("replay OK" if ok else "replay found mismatches")
    return ok
