"""Tests of the benchmark's own checker and tracer.

Run from the repository root (about a minute; the deep workload's subsystem
job enumerates 16.8M pressure words twice):

    python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

JOBS = {job.name: job for workload in jobs.WORKLOADS.values() for job in workload}


@pytest.fixture(scope="module")
def traced():
    """Each workload traced in-process once; the two jobs with hand-computed
    counters traced twice more on their own."""
    runner = bench.Runner(ROOT, seed=3)
    passes = {name: runner.traced_pass(w) for name, w in jobs.WORKLOADS.items()}
    for name in ("analyze-sec44", "analyze-subsystem"):
        passes[name] = [runner.traced_pass((JOBS[name],)) for _ in range(2)]
    return runner, passes


# ---------------------------------------------------------------------------
# Tracer arithmetic
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] encloses b [1, 4] (which encloses c [2, 3]) and d [5, 9];
    # e [12, 13] is a second top-level span.
    t = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10, 12, 13]))

    def b():
        t.span("c", lambda: None)

    def a():
        t.span("b", b)
        t.span("d", lambda: None)

    t.span("a", a)
    t.span("e", lambda: None)
    assert dict(t.self_s) == {"a": 3, "b": 2, "c": 1, "d": 4, "e": 1}
    assert t.top_level_s == 11
    assert dict(t.calls) == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}


def test_span_closes_when_the_call_raises():
    t = spans.Tracer(clock=FakeClock([0, 1, 3, 6]))

    def boom():
        raise RuntimeError("x")

    def outer():
        with pytest.raises(RuntimeError):
            t.span("inner", boom)

    t.span("outer", outer)
    assert dict(t.self_s) == {"inner": 2, "outer": 4}


def test_instrumentation_is_undone():
    import affdim.cli
    import affdim.dimension
    import affdim.hochman

    original = affdim.hochman.hochman_rate
    with spans.instrumented(spans.Tracer()) as missing:
        assert missing == []
        assert affdim.cli.hochman_rate is not original
        assert affdim.dimension.hochman_rate is affdim.cli.hochman_rate
    assert affdim.cli.hochman_rate is original
    assert affdim.dimension.hochman_rate is original


# ---------------------------------------------------------------------------
# Real runs: checks pass, counters repeat and match hand-computed values
# ---------------------------------------------------------------------------


def test_every_job_passes_its_checks(traced):
    runner, _ = traced
    assert runner.failures == []
    assert set(runner.outputs) == set(JOBS)


def test_counters_repeat_and_match_hand_computed_values(traced):
    _, passes = traced
    for name in ("analyze-sec44", "analyze-subsystem"):
        first, second = (p["tracer"] for p in passes[name])
        assert first.counts == second.counts and first.calls == second.calls
    sub = passes["analyze-subsystem"][0]["tracer"]
    assert sub.counts["pressure.words"] == 4**2 + 4**4 + 4**8 + 4**12 == 16_843_024
    assert sub.counts["pressure.root_evals"] == 176
    assert sub.counts["pressure.depth_max"] == 12
    sec44 = passes["analyze-sec44"][0]["tracer"]
    assert sec44.calls["hochman.delta_n"] == 32
    assert sec44.counts["hochman.words"] == 4 * sum(3**n for n in range(1, 9)) == 39_360
    assert sec44.calls["dimension.analyze"] == 2


def test_per_workload_counters(traced):
    _, passes = traced
    certify = passes["certify"]["tracer"]
    assert certify.counts["pressure.depths_dropped"] == 2  # phi-c asks for 6^12 twice
    sample = passes["sample"]["tracer"]
    assert sample.counts["render.polygons"] == 3**8
    assert sample.counts["render.chaos_points"] == 200_000
    assert sample.counts["ergodic.mc_steps"] == 4000 * 4000
    assert sample.counts["ifs.sample_steps"] == 40 * 200_000
    # directions samples 100k once, min-separation 100k of each field
    assert sample.counts["splitting.direction_samples"] == 300_000
    assert "hochman.delta_n" not in sample.calls


def test_spans_cover_analyze_jobs(traced):
    _, passes = traced
    for workload in ("certify", "deep"):
        for job, cover in passes[workload]["coverage"].items():
            if job.startswith("analyze"):
                assert cover >= 0.9, (job, cover)


# ---------------------------------------------------------------------------
# Each check rejects a doctored output
# ---------------------------------------------------------------------------


def _line(prefix, new):
    """Replace (or, with new=None, drop) every stdout line starting with prefix."""
    def doctor(out):
        lines = []
        for line in out.stdout.splitlines():
            if line.startswith(prefix):
                if new is None:
                    continue
                line = new
            lines.append(line)
        return jobs.Output(out.code, "\n".join(lines) + "\n", out.stderr, out.image)
    return doctor


def _lyapunov_row(column, value):
    def doctor(out):
        header, row = out.stdout.splitlines()[:2]
        cells = row.split("\t")
        cells[header.split("\t").index(column)] = value
        return _line(row, "\t".join(cells))(out)
    return doctor


def _stderr(text):
    return lambda out: jobs.Output(out.code, out.stdout, out.stderr + text, out.image)


def _code(code):
    return lambda out: jobs.Output(code, out.stdout, out.stderr, out.image)


def _image(data):
    return lambda out: jobs.Output(out.code, out.stdout, out.stderr, data(out.image))


BELOW = repr(jobs.ROOT_SEC44 - 1e-6)

DOCTORED = [
    ("analyze-sec44", _line("pressure-root-upper:", f"pressure-root-upper: {BELOW}")),
    ("analyze-sec44", _line("certified-value:", None)),
    ("analyze-sec44", _line("certified-value:", "certified-value: none")),
    ("analyze-sec44", _code(2)),
    ("analyze-sec44", _stderr("Traceback (most recent call last):\n")),
    ("analyze-phi-c", _line("certified-interval:", "certified-interval: [0.0, 1.5]")),
    ("analyze-phi-c", _code(0)),
    ("analyze-hl-demo", _line("certified-value: 0.", "certified-value: 1.2")),
    ("analyze-hl-demo", _line("certified-value: none", "certified-value: 0.3")),
    ("analyze-subsystem", _line("pressure-root-upper:", "pressure-root-upper: 1.2")),
    ("pressure-phi-c", _line("# upper-bound:", "# upper-bound: 1.79")),
    ("pressure-phi-c", _line("2\t", "2\t1.7")),
    ("pressure-sec44", _line("# upper-bound:", None)),
    ("hochman-phi-c", _line("2\t1/24", "2\t1/25\t1.6094379124341003")),
    ("hochman-phi-c", _line("# verdict:", "# verdict: TrendBounded")),
    ("boxdim-sec44", _line("# slope:", "# slope: 1.3")),
    ("lyapunov-hl-demo", _lyapunov_row("chi_ss", "4.2")),
    ("lyapunov-hl-demo", _lyapunov_row("stderr", "3e-05")),
    ("directions-hl-demo", _line("# min-separation:", "# min-separation: 0.1")),
    ("directions-hl-demo", _line("99999\t", None)),
    ("render-sec44", _image(lambda img: img.replace(b"512 512", b"512 511", 1))),
    ("render-chaos-phi-c", _image(lambda img: img[:-1])),
    ("render-chaos-phi-c", _image(lambda img: img[:15] + b"\xff" * (len(img) - 15))),
    ("render-sec44", _image(lambda img: None)),
]


@pytest.mark.parametrize("name,doctor", DOCTORED)
def test_check_rejects_doctored_output(traced, name, doctor):
    runner, _ = traced
    good = runner.outputs[name]
    assert JOBS[name].check(good)[0] == []
    problems, _ = JOBS[name].check(doctor(good))
    assert problems


def test_pressure_gap_is_bound_minus_closed_form(traced):
    runner, _ = traced
    out = runner.outputs["pressure-phi-c"]
    _, gap = JOBS["pressure-phi-c"].check(out)
    _, _, comments = jobs.parse_table(out.stdout)
    assert gap == float(comments["upper-bound"]) - jobs.ROOT_PHI_C_2_5 > 0


# ---------------------------------------------------------------------------
# The declaration and the runner agree
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, bench.per_layer_unit(n)) for n in bench.PER_LAYER]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_percentile_note():
    assert "no percentile" in bench.percentile_note([1.0] * 10)
    assert bench.percentile_note([float(i) for i in range(20)]) == "n=20; p50=9.0000"


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""
