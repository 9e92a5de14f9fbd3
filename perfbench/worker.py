"""One workload against ``knotoid_casson``, in a fresh interpreter.

``run.py`` starts this script with the program's ``src`` directory on
``PYTHONPATH``.  It measures for ``--seconds`` and prints one JSON object:
the untraced run's end-to-end figures, or with ``--trace 1`` the per-layer
figures.  Both runs check every output they produce and count operations
attempted and failed.  Load comes from this one thread; the only other threads are the
ones ``evaluate_catalog`` starts itself in the traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from knotoid_casson import (
    IllegalMoveError,
    all_loop_classes,
    apply,
    build_planar_map,
    casson_homological,
    casson_pm,
    dual_arc,
    enumerate_moves,
    evaluate_catalog,
    full_report,
    inverse_move,
    iter_walk,
    load_catalog,
    parse_knotoid_code,
    read_code_blocks,
    skew_pairs,
    verify_skein,
)
from knotoid_casson import skew as skew_module

# Steps of the probe walk on the probe codes of workloads that do not walk.
PROBE_STEPS = 5
# Fresh set-up launches per untraced run, spread evenly over its timed rounds.
SETUP_LAUNCHES = 20
# A fresh interpreter imports the program and turns the input files into
# program objects: what every command-line call pays before its work.
SETUP_SNIPPET = "import sys; from knotoid_casson import load_catalog; load_catalog(sys.argv[1])"

now = time.perf_counter


class Tally:
    """Operations attempted and failed, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {'; '.join(errors[:3])}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_check(report, entry: dict) -> list[str]:
    actual = report.to_json_dict()
    return checks.report_errors(actual, entry["expected"]) + checks.property_errors(actual)


def rounds_within(seconds: float, clock=now):
    """Yield once per round: at least once, and again while another round as
    long as the last one would still end within ``seconds`` of ``clock``."""
    start = clock()
    while True:
        began = clock()
        yield
        ended = clock()
        if ended - start + (ended - began) > seconds:
            return


class SetUp:
    """Wall times of fresh set-up launches, spread evenly over a run.

    ``due()`` is called between units and launches whenever the run's clock
    has passed the next of ``launches`` evenly spaced moments of ``seconds``;
    ``finish()`` makes the launches whose moments came after the last round.
    So every run makes the same number of launches, and they sample the
    machine across the whole run, not just before and after it.  Launches
    are left out of the run's clock and of every unit's time.  Each is
    awaited with a blocking wait, which returns as soon as the child exits.
    """

    def __init__(self, codes: Path, seconds: float, launches: int) -> None:
        self.codes = codes
        self.moments = [(k + 0.5) * seconds / launches for k in range(launches)]
        self.times: list[float] = []
        self.spent = 0.0
        self.start = now()

    def clock(self) -> float:
        return now() - self.start - self.spent

    def due(self) -> None:
        while len(self.times) < len(self.moments) and self.clock() >= self.moments[len(self.times)]:
            self.launch()

    def finish(self) -> float:
        """Make the remaining launches; the median set-up time."""
        while len(self.times) < len(self.moments):
            self.launch()
        return statistics.median(self.times)

    def launch(self) -> None:
        t0 = now()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(self.codes)], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        spent = now() - t0
        self.times.append(spent)
        self.spent += spent


def largest_class(entries, plan) -> list:
    """The codes with the most crossings, with their expected values."""
    top = max(code.n_crossings for _, code in entries)
    return [(name, code, entry) for (name, code), entry in zip(entries, plan["entries"])
            if code.n_crossings == top]


def time_largest(largest: list, tally: Tally, setup: SetUp) -> list[float]:
    """One report of each code in the largest class, on workloads whose
    rounds do not report that class themselves."""
    times = []
    for name, code, entry in largest:
        setup.due()
        t0 = now()
        report = full_report(code, name)
        times.append(now() - t0)
        tally.record(name, report_check(report, entry))
    return times


# ---------------------------------------------------------------------------
# untraced runs: end-to-end figures


class Rounds:
    """Timings of an untraced run, made of whole rounds of the same units.

    Each round keeps its total time, its median unit time and its median
    report time of the largest codes; the figures are medians over rounds.
    Keeping three numbers per round, not every unit's time, keeps the
    worker's memory independent of how many rounds fit in a run.
    """

    def __init__(self) -> None:
        self.units = 0                   # units in one round
        self.busy: list[float] = []
        self.unit_medians: list[float] = []
        self.largest_medians: list[float] = []

    def add(self, busy: float, unit_times: list[float], largest_times: list[float]) -> None:
        self.busy.append(busy)
        self.unit_medians.append(statistics.median(unit_times))
        self.largest_medians.append(statistics.median(largest_times))

    def metrics(self, setup_s: float, rss_mb: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "codes_per_s": (self.units / statistics.median(self.busy), "1/s"),
            "report_ms_p50": (1000.0 * statistics.median(self.unit_medians), "ms"),
            "largest_report_s": (statistics.median(self.largest_medians), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


def run_reports(work: Path, entries, plan, seconds: float, tally: Tally) -> dict:
    """sharp_family and product_chain: one full_report per code of the round."""
    by_name = {name: (code, entry) for (name, code), entry in zip(entries, plan["entries"])}
    largest_names = {name for name, _, _ in largest_class(entries, plan)}
    full_report(entries[0][1], entries[0][0])  # one-time costs of a first call stay out
    m = Rounds()
    m.units = len(plan["round"])
    setup = SetUp(work / "codes", seconds, SETUP_LAUNCHES)
    for _ in rounds_within(seconds, setup.clock):
        times, largest = [], []
        for name in plan["round"]:
            code, entry = by_name[name]
            setup.due()
            t0 = now()
            report = full_report(code, name)
            dt = now() - t0
            times.append(dt)
            if name in largest_names:
                largest.append(dt)
            tally.record(name, report_check(report, entry))
        m.add(sum(times), times, largest)
    rss = peak_rss_mb()
    return m.metrics(setup.finish(), rss)


def _walk(code, name, entry, steps, tally: Tally, on_step=None):
    """One walk; each step is timed with the report of the code it reaches."""
    walk = iter_walk(code, steps, entry["walk_seed"])
    current = code
    times = []
    tail = 0.0
    while True:
        t0 = now()
        try:
            move, current = next(walk)
        except StopIteration:
            tail = now() - t0
            break
        t1 = now()
        report = full_report(current, name)
        times.append(now() - t0)
        if on_step is not None:
            on_step(move, current, t1 - t0)
        tally.record(name, checks.invariant_errors(report.to_json_dict(), entry["expected"]))
    return current, times, tail


def check_enumeration(code, tally: Tally, what: str) -> tuple[int, float]:
    """Every enumerated move applies and its inverse restores the code."""
    t0 = now()
    moves = enumerate_moves(code)
    spent = now() - t0
    errors = []
    for move in moves:
        try:
            if apply(apply(code, move), inverse_move(move)) != code:
                errors.append(f"{move.kind} at {move.gaps or move.positions} not undone")
        except IllegalMoveError as exc:
            errors.append(f"{move.kind} at {move.gaps or move.positions}: {exc!r}")
    tally.record(what, errors)
    return len(moves), spent


def run_walks(work: Path, entries, plan, seconds: float, tally: Tally) -> dict:
    """move_walks: walk steps, each with the report of the code it reaches.

    Every round repeats the same seeded walks, so it performs the same steps.
    """
    steps = plan["steps"]
    largest = largest_class(entries, plan)
    m = Rounds()
    endpoints = {}
    setup = SetUp(work / "codes", seconds, SETUP_LAUNCHES)
    for _ in rounds_within(seconds, setup.clock):
        busy = 0.0
        step_times = []
        for w, ((name, code), entry) in enumerate(zip(entries, plan["entries"])):
            setup.due()
            end, times, tail = _walk(code, name, entry, steps, tally)
            step_times += times
            busy += sum(times) + tail
            endpoints.setdefault(w, end)
        m.units = len(step_times)
        m.add(busy, step_times, time_largest(largest, tally, setup))
    rss = peak_rss_mb()
    for w in plan["enumerate_walks"]:
        check_enumeration(endpoints[w], tally, f"enumerate endpoint of walk {w}")
    return m.metrics(setup.finish(), rss)


def check_paper_table(plan, tally: Tally) -> None:
    """The paper's table knotoids and their switched images, parsed and reported
    by the program: each row against the oracle and the table up to switch, and
    verify_skein at one crossing against the oracle's two sides."""
    for row in plan["paper"]:
        code = parse_knotoid_code(row["text"])
        actual = full_report(code, row["name"]).to_json_dict()
        skein = verify_skein(code, row["skein"]["crossing"])
        tally.record(row["name"], checks.report_errors(actual, row["expected"])
                     + checks.property_errors(actual) + checks.paper_errors(actual, row["table"])
                     + checks.skein_errors(skein.as_dict(), row["skein"]))


RUNNERS = {
    "sharp_family": run_reports,
    "product_chain": run_reports,
    "move_walks": run_walks,
}


# ---------------------------------------------------------------------------
# traced run: per-layer figures


class Trace:
    """Per-layer busy time and counts of one round.

    Spans are summed per unit (a code's name, a walk's base, a probe) and
    layer, as ``[calls, seconds]``; the trace file holds these sums.
    """

    def __init__(self) -> None:
        self.times: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: dict[str, dict[str, list]] = {}

    def call(self, layer: str, unit: str, fn, *args):
        t0 = now()
        result = fn(*args)
        self.add_time(layer, unit, now() - t0)
        return result

    def add_time(self, layer: str, unit: str, seconds: float) -> None:
        self.times[layer] = self.times.get(layer, 0.0) + seconds
        span = self.spans.setdefault(unit, {}).setdefault(layer, [0, 0.0])
        span[0] += 1
        span[1] += seconds

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


# End-to-end and per-layer metrics in the order BENCHMARK.json declares them: names ending
# in _s are seconds per traced round, the ratio is steps performed per step
# requested, and the rest are counts per round.
END_TO_END = ("setup_s", "codes_per_s", "report_ms_p50", "largest_report_s", "peak_rss_mb")
PER_LAYER = (
    "codes.parse_s", "codes.items",
    "skew.pairs_s", "skew.pm_s", "skew.pairs", "skew.listings_per_report",
    "homology.ch_s", "homology.ch_self_s", "homology.subgroups",
    "planar.map_s", "planar.arc_s", "planar.loops_s", "planar.loops_self_s",
    "planar.faces", "planar.arc_steps",
    "analysis.report_s", "analysis.json_s", "analysis.load_s", "analysis.catalog_s",
    "analysis.write_s",
    "skein.verify_s", "skein.checks",
    "moves.walk_s", "moves.steps_requested", "moves.steps_performed", "moves.performed_ratio",
    "moves.r1_steps", "moves.r2_steps", "moves.r3_steps", "moves.enumerate_s", "moves.enumerated",
)
MOVE_LAYERS = {"R1Insert": "r1", "R1Delete": "r1", "R2Insert": "r2", "R2Delete": "r2", "R3": "r3"}


def count_listings(code) -> int:
    """How many times one full_report lists the skew pairs of ``code``."""
    calls = [0]
    original = skew_module.skew_pairs

    def counting(c):
        calls[0] += 1
        return original(c)

    skew_module.skew_pairs = counting
    try:
        full_report(code)
    finally:
        skew_module.skew_pairs = original
    return calls[0]


def to_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2)


def trace_code(tr: Trace, name: str, code, entry: dict, tally: Tally) -> None:
    """Each layer's public function called separately on one code."""
    upper, lower = tr.call("skew.pairs_s", name, skew_pairs, code)
    tr.count("skew.pairs", len(upper) + len(lower))
    tr.call("skew.pm_s", name, casson_pm, code)
    pmap = tr.call("planar.map_s", name, build_planar_map, code)
    tr.count("planar.faces", pmap.num_faces)
    arc = tr.call("planar.arc_s", name, dual_arc, pmap)
    tr.count("planar.arc_steps", len(arc.steps))
    classes = tr.call("planar.loops_s", name, all_loop_classes, code)
    ch_plus, ch_minus = tr.call("homology.ch_s", name, casson_homological, code, classes)
    tr.count("homology.subgroups", len({s for s, _ in ch_plus} | {s for s, _ in ch_minus}))
    report = tr.call("analysis.report_s", name, full_report, code, name)
    tr.call("analysis.json_s", name, to_json, report)
    errors = []
    if code.labels:
        skein = tr.call("skein.verify_s", name, verify_skein, code, code.labels[0])
        tr.count("skein.checks")
        errors += checks.skein_errors(skein.as_dict(), None)
    actual = report.to_json_dict()
    if "walk_seed" in entry:
        errors += checks.invariant_errors(actual, entry["expected"])
    else:
        errors += checks.report_errors(actual, entry["expected"]) + checks.property_errors(actual)
    tally.record(name, errors)


def trace_moves(tr: Trace, code, name: str, entry: dict, steps: int, tally: Tally):
    """A walk timed inside iter_walk only; returns the codes it reaches."""
    reached = []

    def on_step(move, current, seconds):
        tr.add_time("moves.walk_s", name, seconds)
        tr.count("moves.steps_performed")
        tr.count(f"moves.{MOVE_LAYERS[move.kind]}_steps")
        reached.append(current)

    tr.count("moves.steps_requested", steps)
    end, _, tail = _walk(code, name, entry, steps, tally, on_step)
    tr.add_time("moves.walk_s", name, tail)
    return end, reached


def trace_enumerate(tr: Trace, code, what: str, tally: Tally) -> None:
    listed, spent = check_enumeration(code, tally, what)
    tr.add_time("moves.enumerate_s", what, spent)
    tr.count("moves.enumerated", listed)


def trace_round(work: Path, entries, plan, texts: list[str], tally: Tally) -> Trace:
    workload = plan["workload"]
    codes_dir = work / "codes"
    tr = Trace()
    for k, text in enumerate(texts):
        blocks = tr.call("codes.parse_s", f"file{k}", read_code_blocks, text)
        tr.count("codes.items", sum(len(code.word) for _, code in blocks))
    tr.call("analysis.load_s", "catalog", load_catalog, codes_dir)
    tr.call("analysis.catalog_s", "catalog", evaluate_catalog, codes_dir, work / "trace_out")
    catalog_work = tr.times["analysis.catalog_s"] - tr.times["analysis.load_s"]
    if workload == "move_walks":
        # the catalog here is the walk bases, which no traced layer reports on
        for name, code in entries:
            t0 = now()
            to_json(full_report(code, name))
            catalog_work -= now() - t0
        steps = plan["steps"]
        endpoints = []
        for (name, code), entry in zip(entries, plan["entries"]):
            end, reached = trace_moves(tr, code, name, entry, steps, tally)
            endpoints.append(end)
            for current in reached:
                trace_code(tr, name, current, entry, tally)
        for w in plan["enumerate_walks"]:
            trace_enumerate(tr, endpoints[w], f"walk{w}", tally)
    else:
        for (name, code), entry in zip(entries, plan["entries"]):
            trace_code(tr, name, code, entry, tally)
        catalog_work -= tr.times["analysis.report_s"] + tr.times["analysis.json_s"]
        for probe in plan["probes"]:
            code = parse_knotoid_code(probe["text"])
            trace_moves(tr, code, probe["name"], probe, PROBE_STEPS, tally)
            trace_enumerate(tr, code, probe["name"], tally)
    tr.times["analysis.write_s"] = catalog_work
    tr.count("skew.listings_per_report", count_listings(entries[0][1]))
    return tr


def per_layer(rounds: list[Trace]) -> dict:
    """Each layer's time per round as a median over rounds; counts of the first round."""
    def med(layer):
        return statistics.median(r.times.get(layer, 0.0) for r in rounds)

    counts = rounds[0].counts
    requested = counts.get("moves.steps_requested", 0)
    derived = {
        "homology.ch_self_s": med("homology.ch_s") - med("skew.pairs_s"),
        "planar.loops_self_s": med("planar.loops_s") - med("planar.map_s") - med("planar.arc_s"),
    }
    out = {}
    for name in PER_LAYER:
        if name == "moves.performed_ratio":
            out[name] = (counts.get("moves.steps_performed", 0) / requested if requested else 0.0, "ratio")
        elif name.endswith("_s"):
            out[name] = (derived[name] if name in derived else med(name), "s")
        else:
            out[name] = (counts.get(name, 0), "count")
    return out


def run_traced(work: Path, entries, plan, seconds: float, tally: Tally, trace_file: Path) -> dict:
    texts = [p.read_text() for p in sorted((work / "codes").iterdir())]
    rounds = []
    for _ in rounds_within(seconds):
        rounds.append(trace_round(work, entries, plan, texts, tally))
    same = all(r.counts == rounds[0].counts for r in rounds)
    tally.record("trace counts", [] if same else ["count metrics differ between rounds"])
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": plan["workload"],
        "seed": plan["seed"],
        "rounds": len(rounds),
        "spans": rounds[0].spans,
    }))
    return per_layer(rounds)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    entries = load_catalog(args.work / "codes")
    plan = json.loads((args.work / "expected.json").read_text())
    if [name for name, _ in entries] != [e["name"] for e in plan["entries"]]:
        print("inputs and expected values disagree", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        metrics = run_traced(args.work, entries, plan, args.seconds, tally, args.trace_file)
    else:
        metrics = RUNNERS[plan["workload"]](args.work, entries, plan, args.seconds, tally)
    check_paper_table(plan, tally)
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
