"""The poslog benchmark: seeded CLI request streams, checked and timed.

    python3 perfbench/run.py --workload posetify-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  One client sends the requests of a stream in a closed
loop, one after the other, from a worker process that calls
``poslog.cli.main`` in process.  Every pass over the stream starts a fresh
worker, so the package's caches start empty.  Passes repeat until
``--seconds`` are spent (at least one pass), and each request is timed by
its best pass.  The last line of stdout is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import outcomes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 20
# Every run ends within this many seconds, whatever happens.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def request_key(req: dict) -> str:
    """Identity of a request: the command with each input file replaced
    by its content."""
    files = req["files"]
    return json.dumps([files[a[1:]] if a.startswith("@") else a
                       for a in req["argv"]])


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, ends_by: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ends_by = ends_by
        self.workers = 0
        self.requests = workloads.build(workload, seed)
        self.deadline_cpu_s = workloads.DEADLINE_CPU_S
        self.digest = workloads.digest(self.requests)
        self.workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                                    f"{workload}-{seed}-{os.getpid()}")

    def remaining(self) -> float:
        return self.ends_by - time.perf_counter()

    def _subprocess(self, args: list) -> str:
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time before a pass could start")
        # String hashing, and so set order, is seeded per worker from the run's
        # seed: a run repeats exactly, while its passes still differ in hash
        # order, which the stdout comparison between passes relies on.
        self.workers += 1
        env = dict(os.environ, PYTHONHASHSEED=str((self.seed * 1000 + self.workers) % 2**32))
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: a worker did not finish within "
                             f"{RUN_LIMIT_S:.0f} s of the run's start")
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-600:]}")
        return proc.stdout

    def write_inputs(self) -> list:
        inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(inputs)
        rel = os.path.relpath(inputs, ROOT)
        plan = []
        for req in self.requests:
            for name, text in req["files"].items():
                with open(os.path.join(inputs, name), "w") as fh:
                    fh.write(text)
            plan.append({"id": req["id"], "check": req["check"],
                         "argv": [os.path.join(rel, a[1:]) if a.startswith("@") else a
                                  for a in req["argv"]]})
        return plan

    def setup_samples(self, count: int) -> list:
        return [json.loads(self._subprocess(["--probe"]))["import_s"]
                for _ in range(count)]

    def one_pass(self, plan: list, traced: bool, k: int, overran: dict) -> dict:
        """Run the plan in a fresh worker.  A request in ``overran`` (index
        -> result) overran its deadline in an earlier pass: it is not sent
        again, and its earlier result stands for this pass too."""
        plan_path = os.path.join(self.workdir, f"plan-{k}.json")
        results_path = os.path.join(self.workdir, f"results-{k}.json")
        with open(plan_path, "w") as fh:
            json.dump({"requests": [r for i, r in enumerate(plan) if i not in overran],
                       "trace": traced, "deadline_cpu_s": self.deadline_cpu_s}, fh)
        self._subprocess([plan_path, results_path])
        with open(results_path) as fh:
            summary = json.load(fh)
        sent = iter(summary["results"])
        summary["results"] = [dict(overran[i], carried=True) if i in overran else next(sent)
                              for i in range(len(plan))]
        for i, res in enumerate(summary["results"]):
            if res["deadline"]:
                overran.setdefault(i, res)
        summary["traced"] = traced
        return summary

    def execute(self, trace: bool) -> tuple:
        """Set up, then run passes until the time is spent."""
        started = time.perf_counter()
        os.makedirs(self.workdir)
        try:
            plan = self.write_inputs()
            self.setup_samples(1)  # the first import compiles byte code
            setup: list = []
            passes = []
            overran: dict = {}
            while True:
                # The import probes are spread evenly over the run: the host's
                # speed changes every few seconds, and their median should not
                # hang on one moment of it.
                due = SETUP_PROBES * (time.perf_counter() - started) / self.seconds
                setup += self.setup_samples(max(0, min(int(due) + 1, SETUP_PROBES) - len(setup)))
                begin = time.perf_counter()
                if trace:  # untraced and traced passes alternate
                    passes.append(self.one_pass(plan, False, len(passes), overran))
                passes.append(self.one_pass(plan, trace, len(passes), overran))
                last = time.perf_counter() - begin
                # start another round only if it is expected to end in time
                if time.perf_counter() - started + last > self.seconds:
                    break
            setup += self.setup_samples(max(0, SETUP_PROBES - len(setup)))
            return setup, passes
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def classify_all(requests: list, passes: list) -> list:
    """``(pass index, request, result, class, reason)`` for every request
    executed, with the cross-request checks applied: identical requests
    must print identical stdout, and isomorphic inputs must give lifted
    structures of one size."""
    seen: dict = {}
    sizes: dict = {}
    rows = []
    for p, summary in enumerate(passes):
        for req, res in zip(requests, summary["results"]):
            cls, reason = outcomes.classify(req, res)
            key = request_key(req)
            if cls in outcomes.PASSES:
                first = seen.setdefault(key, res["stdout_sha"])
                if first != res["stdout_sha"]:
                    cls, reason = "wrong", "stdout differs from an earlier identical request"
            group = req["check"].get("group")
            if cls == "ok" and group:
                sizes.setdefault(group, set()).update(res["facts"]["sizes"])
            rows.append([p, req, res, cls, reason])
    for row in rows:
        group = row[1]["check"].get("group")
        if row[3] == "ok" and group and len(sizes[group]) > 1:
            row[3], row[4] = "wrong", f"sizes {sorted(sizes[group])} on isomorphic inputs"
    return rows


def best_times(passes: list) -> list:
    """Each request's least time over ``passes``.  The host's speed drifts
    and other work on it only ever adds time, so the best of several
    identical passes is what repeats from run to run."""
    return [min(times) for times in zip(*([r["wall_s"] for r in p["results"]]
                                          for p in passes))]


def summarize(run: Run, trace: bool, setup: list, passes: list) -> tuple:
    """``(result object, report lines)`` of one workload run."""
    rows = classify_all(run.requests, passes)
    counts = {c: 0 for c in outcomes.CLASSES}
    for row in rows:
        counts[row[3]] += 1
    attempted = len(rows)
    failed = sum(counts[c] for c in outcomes.FAILS)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n = len(run.requests)
    lines = [f"workload {run.workload}, seed {run.seed}: {n} requests, "
             f"plan digest {run.digest}; {len(untraced)} untraced and "
             f"{len(traced)} traced passes"]

    best = best_times(untraced)
    metrics = {}
    if not trace:
        # a failed request counts as missing any latency limit: at least the deadline
        failing = {r[1]["id"] for r in rows if r[3] in outcomes.FAILS}
        latencies = [max(t, run.deadline_cpu_s) if req["id"] in failing else t
                     for req, t in zip(run.requests, best)]
        metrics = {
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh imports of poslog.cli"),
            "wall_s": (sum(best), "s",
                       f"sum over {n} requests of each one's best of {len(untraced)} passes"),
            "req_p50_ms": (1000 * percentile(latencies, 0.5), "ms",
                           f"n={n} requests, each its best of {len(untraced)} passes"),
            "req_p90_ms": (1000 * percentile(latencies, 0.9), "ms",
                           f"n={n}; failures count as {run.deadline_cpu_s:g} s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB",
                            f"median over {len(untraced)} passes"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio",
                           f"{attempted - failed} of {attempted} requests passed"),
        }
    else:
        for name, unit, _, _ in tracing.METRICS:
            values = [p["layers"][name] for p in traced]
            if unit == "s":
                metrics[name] = (statistics.median(values), unit,
                                 f"median over {len(traced)} traced passes")
            else:
                metrics[name] = (values[0], unit, "")
                if any(v != values[0] for v in values):
                    lines.append(f"NOTE {name} differs between traced passes: {values}")
        # over the requests the traced passes sent: an overrun request is
        # timed once, untraced, and carried into the passes after it
        sent = [i for i in range(n) if not any(p["results"][i].get("carried") for p in traced)]
        best_traced = best_times(traced)
        plain = sum(best[i] for i in sent)
        with_spans = sum(best_traced[i] for i in sent)
        metrics["trace.untraced_wall_s"] = (plain, "s", f"best of {len(untraced)} untraced "
                                            f"passes, {len(sent)} requests")
        metrics["trace.wall_s"] = (with_spans, "s", f"best of {len(traced)} traced passes, "
                                   f"{len(sent)} requests")
        metrics["trace.overhead_ratio"] = (with_spans / plain, "ratio",
                                           "traced wall_s over untraced wall_s")
        lines.append(f"tracing overhead: traced wall_s {with_spans:.3f} s against "
                     f"untraced {plain:.3f} s (x{with_spans / plain:.3f}); "
                     f"{max(p['spans'] for p in traced)} spans per pass")
        count_text = json.dumps({name: metrics[name][0] for name, unit, _, _ in tracing.METRICS
                                 if unit != "s"}, sort_keys=True)
        lines.append("per-layer counts digest " +
                     hashlib.sha256(count_text.encode()).hexdigest()[:16])
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    lines.append("outcomes: " + " ".join(f"{c}={counts[c]}" for c in outcomes.CLASSES) +
                 f"; fail_ratio {failed / attempted:.4f}")
    refused = [r for r in rows if r[3] == "refused"]
    lines.append(f"refused: {len(refused)} requests, "
                 f"{sum(r[2]['wall_s'] for r in refused):.3f} s in total")
    reported = set()
    for p, req, res, cls, reason in rows:
        if cls in outcomes.FAILS and req["id"] not in reported:
            reported.add(req["id"])
            lines.append(f"FAILED {req['id']} [{cls}] {req['note']}: {reason}")
    result = {"correct": counts["wrong"] == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "poslog", "cli.py")):
        print(f"no poslog sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = Run(name, args.seed, args.seconds,
                      time.perf_counter() + RUN_LIMIT_S)
            setup, passes = run.execute(bool(args.trace))
            result, lines = summarize(run, bool(args.trace), setup, passes)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
