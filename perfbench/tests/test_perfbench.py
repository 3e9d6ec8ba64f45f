"""Tests of the benchmark's own logic: generators, classifier, span
arithmetic and the metric list in BENCHMARK.json."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import outcomes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 11), workloads.build(name, 11)
        assert a == b
        assert workloads.digest(a) == workloads.digest(b)
        if name != "verify-quick":
            assert workloads.digest(workloads.build(name, 12)) != workloads.digest(a)


def test_streams_are_well_formed():
    for name in workloads.WORKLOADS:
        reqs = workloads.build(name, 3)
        assert len({r["id"] for r in reqs}) == len(reqs)
        if name != "verify-quick":
            assert len(reqs) >= 100
        for r in reqs:
            for arg in r["argv"]:
                if arg.startswith("@"):
                    assert arg[1:] in r["files"]
            assert r["expect"] in ("answer", "malformed")


def test_costly_requests_do_not_depend_on_the_seed():
    def costly(seed):
        return sorted(r["note"] for r in workloads.build("posetify-mix", seed)
                      if any(f in r["argv"] for f in ("mnb", "nb")))
    assert costly(1) == costly(2)


def test_shapes_are_counted_up_to_isomorphism():
    assert [len(workloads.shapes(n)) for n in range(5)] == [1, 1, 2, 5, 16]
    chain = workloads.shapes(4)[-1]
    assert chain.convex_subsets() == 11 and len(chain.upsets()) == 5


def test_interpret_oracle_uses_the_one_step_clauses():
    shape = workloads.shapes(2)[1]  # 0 < 1
    gamma = {0: frozenset({0}), 1: frozenset({1})}
    val = {"p": frozenset({1}), "q": frozenset()}
    assert workloads.satisfying(shape, gamma, val, ("dia", ("var", "p"))) == {1}
    assert workloads.satisfying(shape, gamma, val, ("box", ("top",))) == {0, 1}
    assert workloads.satisfying(shape, gamma, val, ("dia", ("var", "q"))) == set()


def _result(rc=None, exception=None, deadline=False, facts=None):
    return {"rc": rc, "exception": exception, "deadline": deadline, "facts": facts,
            "stderr": ""}


POSETIFY = {"argv": [], "expect": "answer",
            "check": {"kind": "posetify", "size": 11, "group": "pow|4.15"}}
MALFORMED = {"argv": [], "expect": "malformed", "check": {"kind": "posetify"}}


def test_classifier_covers_every_outcome_class():
    stdout = json.dumps({"agree": True, "generic": {"size": 11}, "closed": {"size": 11}})
    good = outcomes.extract(POSETIFY["check"], stdout)
    assert outcomes.classify(POSETIFY, _result(0, facts=good))[0] == "ok"
    assert outcomes.classify(POSETIFY, _result(2))[0] == "refused"
    assert outcomes.classify(MALFORMED, _result(3))[0] == "rejected"
    assert outcomes.classify(POSETIFY, _result(exception="ValueError: x"))[0] == "exception"
    assert outcomes.classify(POSETIFY, _result(deadline=True))[0] == "deadline"


def test_classifier_marks_wrong_answers():
    disagree = {"agree": False, "sizes": [11, 11]}
    assert outcomes.classify(POSETIFY, _result(0, facts=disagree))[0] == "wrong"
    off = {"agree": True, "sizes": [12, 12]}
    assert outcomes.classify(POSETIFY, _result(0, facts=off))[0] == "wrong"
    assert outcomes.classify(POSETIFY, _result(1))[0] == "wrong"
    assert outcomes.classify(POSETIFY, _result(3))[0] == "wrong"
    assert outcomes.classify(MALFORMED, _result(0))[0] == "wrong"
    verify = {"argv": [], "expect": "answer", "check": {"kind": "verify", "checks": 2}}
    facts = outcomes.extract(verify["check"], "PASS a/x: ok\nFAIL a/y: no\n1/2 checks passed\n")
    assert outcomes.classify(verify, _result(0, facts=facts))[0] == "wrong"


def test_identical_requests_must_print_identical_stdout():
    req = dict(POSETIFY, id="t/000", files={})
    facts = {"agree": True, "sizes": [11, 11]}
    passes = [{"results": [dict(_result(0, facts=facts), stdout_sha=sha)]}
              for sha in ("aa", "bb")]
    classes = [row[3] for row in run.classify_all([req], passes)]
    assert classes == ["ok", "wrong"]


def test_each_request_is_timed_by_its_best_pass():
    passes = [{"results": [{"wall_s": w} for w in walls]}
              for walls in ([0.5, 2.0, 3.0], [0.4, 2.5, 3.0], [0.6, 1.5, 4.0])]
    assert run.best_times(passes) == [0.4, 1.5, 3.0]


def test_verify_quick_traces_every_check_of_its_suites():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from poslog.verify import SUITES
    reqs = workloads.build("verify-quick", 1)
    assert [r["argv"] for r in reqs] == [["verify", "--suite", s]
                                         for s in workloads.VERIFY_SUITES]
    checks = [c for s in workloads.VERIFY_SUITES for c, _ in SUITES[s]]
    assert [len(SUITES[s]) for s in workloads.VERIFY_SUITES] == \
        list(workloads.VERIFY_SUITES.values())
    assert list(tracing.VERIFY_CHECKS) == checks


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1, "r1"),
        ("a", 1.0, 4.0, 0, "r1"),
        ("leaf", 2.0, 3.0, 1, "r1"),
        ("b", 5.0, 7.0, 0, "r1"),
        ("a", 8.0, 9.0, 0, "r1"),
        ("root", 11.0, 12.0, -1, "r2"),
    ]
    own, total, calls = tracing.span_totals(spans)
    assert own == {"root": 5.0, "a": 3.0, "leaf": 1.0, "b": 2.0}
    assert total == {"root": 11.0, "a": 4.0, "leaf": 1.0, "b": 2.0}
    assert calls == {"root": 2, "a": 2, "leaf": 1, "b": 1}


def test_tracer_links_nested_calls_and_closes_spans_on_error():
    tracer = tracing.Tracer()
    tracer.begin("t/000")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) + 1)
    assert outer_t(1) == 2
    tracer.begin("t/001")
    try:
        outer_t(-1)
    except ValueError:
        pass
    spans = tracer.spans()
    assert [(s[0], s[3], s[4]) for s in (spans[i] for i in range(len(spans)))] == [
        ("outer", -1, "t/000"), ("inner", 0, "t/000"),
        ("outer", -1, "t/001"), ("inner", 2, "t/001")]
    assert all(spans[i][1] <= spans[i][2] for i in range(len(spans)))
    assert tracer.stack == []
    own, _, calls = tracing.span_totals(spans)
    assert calls == {"outer": 2, "inner": 2} and own["outer"] >= 0


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [m[0] for m in tracing.METRICS] + [
        "trace.untraced_wall_s", "trace.wall_s", "trace.overhead_ratio"]
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb", "pass_ratio"]
