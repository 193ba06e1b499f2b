"""Verdicts and refusals of the result comparison."""

from bench.compare import compare, refusal, verdict


def test_verdicts_follow_the_bound_and_the_spread():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.1)[0] == "ok"
    assert verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0] == (
        "regression"
    )
    # Higher-is-better metrics regress when they drop.
    assert verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0] == (
        "regression"
    )
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    # A noisy change that beats every base run is not unresolved.
    faster = [1.0, 3.0, 5.0, 2.0, 4.0]
    assert verdict(steady, faster, "lower", 0.1)[0] == "ok"


def _result(
    workload, seed, value, cpu="cpu A", commit="a", seconds=20, rate=500.0
):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "params": {"rate_hz": rate},
        "trace": False,
        "machine": {"cpu_model": cpu, "nproc": 2, "git_commit": commit},
        "metrics": {"p50_ms": {"value": value, "unit": "ms"}},
    }


def test_refuses_other_machines_seeds_windows_and_params():
    base = [_result("w", 0, 1.0), _result("w", 1, 1.0)]
    same = [_result("w", 0, 1.0, commit="b"), _result("w", 1, 1.0, commit="b")]
    assert refusal(base, same) is None
    assert "machine" in refusal(base, [_result("w", 0, 1.0, cpu="cpu B")])
    assert "seeds" in refusal(base, [_result("w", 0, 1.0), _result("w", 2, 1.0)])
    shorter = [_result("w", 0, 1.0, seconds=5), _result("w", 1, 1.0)]
    assert "windows or parameters" in refusal(base, shorter)
    slower = [_result("w", 0, 1.0), _result("w", 1, 1.0, rate=200.0)]
    assert "windows or parameters" in refusal(base, slower)

    declared = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
    }
    rows = compare(base, same, declared)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("w", "p50_ms", "ok")
    ]
