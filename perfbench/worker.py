"""One pass of a request plan, in a fresh interpreter.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py PLAN RESULTS

Run from the root of a checkout.  ``--probe`` prints the time that
importing ``poslog.cli`` takes, which every CLI call pays.  Otherwise the
worker runs every request of the plan in order through ``poslog.cli.main``
in this process, so the package's caches start empty and fill as they do
in a ``poslog`` session, and writes one JSON object with a result per
request, the process's peak RSS and, when the plan asks for tracing, the
per-layer metrics.  Only the time inside ``main`` counts as request time.
"""

import os
import sys
import time


def import_program(root: str):
    """Import ``poslog.cli`` from ``root/src`` and time the import."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import poslog.cli
    elapsed = time.perf_counter() - start
    package = os.path.dirname(os.path.abspath(sys.modules["poslog"].__file__))
    if package != os.path.join(src, "poslog"):
        raise SystemExit(f"poslog was imported from {package}, not from {src}")
    return poslog.cli, elapsed


class DeadlineExceeded(BaseException):
    """Raised from the CPU-time signal; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def run_pass(cli, plan: dict) -> dict:
    import contextlib
    import hashlib
    import io
    import resource
    import signal

    import outcomes

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    armed = [False]

    def on_deadline(signum, frame):
        if not armed[0]:
            return
        if tracer is not None and frame.f_code.co_filename == tracing.__file__:
            # never cut a span's bookkeeping in half: retry just after it
            signal.setitimer(signal.ITIMER_PROF, 0.001)
            return
        armed[0] = False
        raise DeadlineExceeded()

    signal.signal(signal.SIGPROF, on_deadline)
    results = []
    stdout_bytes = 0
    refused_n, refused_s = 0, 0.0
    for req in plan["requests"]:
        if tracer is not None:
            tracer.begin(req["id"])
        out, err = io.StringIO(), io.StringIO()
        rc, exception, deadline = None, None, False
        armed[0] = True
        signal.setitimer(signal.ITIMER_PROF, plan["deadline_cpu_s"])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(req["argv"])
            armed[0] = False
        except DeadlineExceeded:
            deadline = True
        except Exception as exc:
            armed[0] = False
            exception = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        wall = time.perf_counter() - start
        data = out.getvalue().encode()
        stdout_bytes += len(data)
        if rc == 2:
            refused_n += 1
            refused_s += wall
        results.append({"rc": rc, "exception": exception, "deadline": deadline,
                        "wall_s": wall, "stdout": data,
                        "stdout_sha": hashlib.sha256(data).hexdigest(),
                        "stderr": err.getvalue()[:200]})
        del out
    # read before the outputs are parsed, which would add to the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for req, res in zip(plan["requests"], results):
        data = res.pop("stdout")
        res["facts"] = None
        if res["rc"] == 0 and not res["deadline"]:
            try:
                res["facts"] = outcomes.extract(req["check"], data.decode())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                res["facts"] = {"error": f"{type(exc).__name__}: {exc}"}
    summary = {"results": results, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        hits = sys.modules["poslog.functors"].powerset.cache_info()
        pass_values = {
            "cli.stdout_bytes": stdout_bytes,
            "cli.refused.count": refused_n,
            "cli.refused.s": refused_s,
            "functors.powerset.hit_ratio":
                hits.hits / (hits.hits + hits.misses) if hits.hits + hits.misses else 0.0,
        }
        summary["layers"] = tracing.layer_metrics(tracer, pass_values)
        summary["spans"] = len(tracer.start_col)
    return summary


def main() -> int:
    root = os.getcwd()
    cli, elapsed = import_program(root)
    import json
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"import_s": elapsed}))
        return 0
    plan_path, results_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    summary = run_pass(cli, plan)
    with open(results_path, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
