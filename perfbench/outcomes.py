"""Outcome classes of one request, and the checks behind them.

A request passes as one of three classes:

``ok``        exit 0, every two-route flag in the output is true and the
              answer matches the oracle the stream carries
``refused``   exit 2, a budget refusal, which is a correct answer
``rejected``  exit 3 on an input built to be malformed

and fails as one of three:

``wrong``     any other exit code, a false flag, an answer that misses its
              oracle, or stdout that differs from an earlier identical
              request
``exception`` the call raised instead of returning an exit code
``deadline``  the call overran the per-request CPU deadline

Only ``wrong`` means an incorrect answer; the other two failures mean no
answer at all.
"""

from __future__ import annotations

import json

PASSES = ("ok", "refused", "rejected")
FAILS = ("wrong", "exception", "deadline")
CLASSES = PASSES + FAILS


def extract(check: dict, stdout: str) -> dict:
    """The facts of an exit-0 answer that the classifier needs, so that the
    worker never ships whole outputs back."""
    kind = check["kind"]
    if kind == "verify":
        lines = stdout.splitlines()
        return {"pass": sum(l.startswith("PASS ") for l in lines),
                "failed_checks": [l[5:].split(":")[0] for l in lines if l.startswith("FAIL ")]}
    data = json.loads(stdout)
    if kind == "posetify":
        facts = {"agree": data.get("agree", True)}
        if "result" in data:
            facts["sizes"] = [data["result"]["size"]]
        else:
            facts["sizes"] = [data["generic"]["size"], data["closed"]["size"]]
        return facts
    if kind == "positivize":
        return {"agree": data.get("agree"), "sizes": [data["result_size"]],
                "closed_form_size": data.get("closed_form_size")}
    if kind == "dualize":
        return {"lattice_size": data["lattice_size"],
                "spectrum_size": data["spectrum"]["size"],
                "prime_filters": data["prime_filters"]["size"]}
    if kind == "interpret":
        sat = data["satisfying"]
        return {"routes_agree": data.get("routes_agree"),
                "boolean_agrees": data.get("boolean_agrees"),
                "positive": sat.get("positive"), "reference": sat.get("reference")}
    raise ValueError(f"unknown check kind {kind!r}")


def _answer_problem(check: dict, facts: dict):
    """Why an exit-0 answer is wrong, or None."""
    kind = check["kind"]
    if "error" in facts:
        return f"unreadable output: {facts['error']}"
    if kind == "verify":
        # every registered check, and no fewer, must pass
        if facts["failed_checks"] or facts["pass"] < check["checks"]:
            return f"{facts['pass']} checks passed; failed: {facts['failed_checks']}"
        return None
    if kind == "posetify":
        if facts["agree"] is not True:
            return "routes disagree"
        want = check.get("size")
        if want is not None and any(s != want for s in facts["sizes"]):
            return f"lifted sizes {facts['sizes']}, expected {want}"
        if len(set(facts["sizes"])) > 1:
            return f"lifted sizes differ: {facts['sizes']}"
        return None
    if kind == "positivize":
        if facts["agree"] is not True:
            return "closed form disagrees"
        if facts["closed_form_size"] != facts["sizes"][0]:
            return "closed form size differs from the lifted size"
        return None
    if kind == "dualize":
        if facts["lattice_size"] != check["lattice_size"]:
            return f"lattice size {facts['lattice_size']}, expected {check['lattice_size']}"
        if not facts["spectrum_size"] == facts["prime_filters"] == check["spectrum_size"]:
            return "prime filters do not reproduce the spectrum"
        return None
    if kind == "interpret":
        if facts["routes_agree"] is not True:
            return "direct and reference routes disagree"
        if check["boolean"] and facts["boolean_agrees"] is not True:
            return "boolean and positive semantics disagree"
        want = check["satisfying"]
        if facts["positive"] != want or facts["reference"] != want:
            return f"satisfying set {facts['positive']}, expected {want}"
        return None
    return f"unknown check kind {kind!r}"


def classify(request: dict, result: dict) -> tuple:
    """``(class, reason)`` of one executed request.

    ``result`` holds ``rc`` (exit code or None), ``exception`` (text or
    None), ``deadline`` (bool), the start of ``stderr`` and, for exit 0,
    the extracted ``facts``.
    """
    if result["deadline"]:
        return "deadline", "overran the CPU deadline"
    if result["exception"] is not None:
        return "exception", result["exception"]
    rc = result["rc"]
    if rc == 2:
        return "refused", "budget refused"
    if request["expect"] == "malformed":
        if rc == 3:
            return "rejected", "malformed input rejected"
        return "wrong", f"malformed input answered with exit {rc}"
    if rc != 0:
        return "wrong", f"exit {rc} on a well-formed input: {result['stderr'].strip()}"
    problem = _answer_problem(request["check"], result["facts"])
    if problem:
        return "wrong", problem
    return "ok", "answered"
