import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import six_distinct_maps_system

from affdim.cli import main
from affdim.ifs import serialize_system
from affdim.library import sec44

SEC44_DIM = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)

GOLDEN_SEC44_CYL_128 = "9b6a035dba7c6c17f2ff008f0fd7d0a8d6db090afe20b51aec273bb4773106d3"
GOLDEN_PHIC_CHAOS_128 = "f2320b4946b19c81798f1941447d67561344a951c9291a0d24abdf6c436bb1bb"
GOLDEN_PHIC_CYL_192 = "21103212c88ac1e06a85636b08d6f224307a4934c5fbe5ed338d30f4957430f3"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyzeCommand:
    def test_sec44_certifies(self, capsys):
        code, out, _ = run_cli(["analyze", "--example", "sec44"], capsys)
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2  # measure and attractor
        for block in blocks:
            line = next(l for l in block.splitlines() if l.startswith("certified-value:"))
            value = float(line.split(":")[1])
            assert value == pytest.approx(SEC44_DIM, abs=1e-9)
            assert value == pytest.approx(1.4273, abs=5e-4)
        cond = next(l for l in out.splitlines() if l.startswith("condition4-lhs:"))
        assert float(cond.split(":")[1]) > 2.0

    def test_phi_c_quotes_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--example", "phi-c", "--param", "c=0.4", "--target", "measure"],
            capsys,
        )
        assert code == 2  # interval-only
        line = next(l for l in out.splitlines() if l.startswith("family-closed-form:"))
        want = 2.0 + math.log(0.8) / math.log(3.0)
        assert float(line.split(":")[1]) == pytest.approx(want, abs=1e-12)

    def test_malformed_config_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("map 0.5 0 0 0.5 0 0\nmap oops 0 0 0.5 1 1\n")
        code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_missing_source_exit_1(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 1
        assert "required" in err

    def test_json_document(self, capsys, tmp_path):
        import json

        path = tmp_path / "rep.json"
        code, _, _ = run_cli(
            ["analyze", "--example", "sec44", "--target", "measure",
             "--json", str(path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc[0]["fired_theorem"] == "T4.5-app"
        assert doc[0]["certified_value"] == pytest.approx(SEC44_DIM, abs=1e-9)
        assert doc[0]["hypotheses"]["condition4"] == "Verified"

    def test_config_round_trip(self, capsys, tmp_path):
        sysm, w, poly = sec44()
        cfg = tmp_path / "sec44.cfg"
        cfg.write_text(serialize_system(sysm, w, poly))
        code, out, _ = run_cli(
            ["analyze", "--config", str(cfg), "--target", "measure"], capsys
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("certified-value:"))
        assert float(line.split(":")[1]) == pytest.approx(SEC44_DIM, abs=1e-9)


class TestTableCommands:
    def test_pressure_table_decreases(self, capsys):
        code, out, _ = run_cli(["pressure", "--example", "sec44", "--n", "2,4,8"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "n\troot"
        roots = [float(l.split("\t")[1]) for l in lines[1:]]
        assert len(roots) == 3
        assert roots[0] > roots[1] > roots[2]
        assert roots[2] == pytest.approx(1.4273, abs=2e-2)
        assert "dropped-depths" not in out

    def test_pressure_phi_c_reaches_depth_12(self, capsys):
        code, out, _ = run_cli(["pressure", "--example", "phi-c", "--param", "c=1/4"], capsys)
        assert code == 0
        depths = [l.split("\t")[0] for l in out.splitlines()[1:] if not l.startswith("#")]
        assert depths == ["2", "4", "8", "12"]
        assert "dropped-depths" not in out

    def test_pressure_dropped_depths_comment(self, capsys, tmp_path):
        cfg = tmp_path / "six.cfg"
        cfg.write_text(serialize_system(six_distinct_maps_system()))
        code, out, _ = run_cli(["pressure", "--config", str(cfg), "--n", "2,12"], capsys)
        assert code == 0
        assert "# dropped-depths: 12" in out.splitlines()

    def test_hochman_dyadic_rows(self, capsys):
        code, out, _ = run_cli(
            ["hochman", "--maps", "1/2,0;1/2,1/2", "--n", "1..6"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        for k, line in enumerate(lines[1:], start=1):
            n, delta, _rate = line.split("\t")
            assert int(n) == k
            assert delta == f"1/{2 ** k}"
        assert "verdict: TrendBounded" in out

    def test_ssc_report(self, capsys):
        code, out, _ = run_cli(["ssc", "--example", "sec44"], capsys)
        assert code == 0
        assert "holds: true" in out
        kappa = float(next(l for l in out.splitlines() if l.startswith("kappa:")).split(":")[1])
        margin = float(next(l for l in out.splitlines() if l.startswith("margin:")).split(":")[1])
        assert kappa > 0 and margin > 0

    def test_lyapunov_bits_toggle(self, capsys):
        code, nats, _ = run_cli(["lyapunov", "--example", "sec44"], capsys)
        assert code == 0
        code, bits, _ = run_cli(["lyapunov", "--example", "sec44", "--bits"], capsys)
        assert code == 0
        row_n = nats.splitlines()[1].split("\t")
        row_b = bits.splitlines()[1].split("\t")
        assert float(row_b[0]) == pytest.approx(float(row_n[0]) / math.log(2), rel=1e-12)
        assert float(row_b[3]) == pytest.approx(float(row_n[3]), rel=1e-12)  # unitless

    def test_directions_table(self, capsys):
        code, out, _ = run_cli(
            ["directions", "--example", "sec44", "--count", "5", "--seed", "3"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "i\ttheta"
        assert len(lines) == 6
        sep = float(next(l for l in out.splitlines() if "min-separation" in l).split(":")[1])
        assert sep > 0

    def test_boxdim_comments(self, capsys):
        code, out, _ = run_cli(
            ["boxdim", "--example", "sec44", "--count", "20000", "--k-min", "3",
             "--k-max", "6", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert any(l.startswith("# slope:") for l in out.splitlines())


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--example", "sec44", "--seed", "5"],
            ["lyapunov", "--example", "hl-demo", "--seed", "5",
             "--mc-n", "200", "--mc-trials", "50"],
            ["boxdim", "--example", "sec44", "--count", "20000", "--seed", "5"],
        ],
    )
    def test_byte_identical_reruns(self, argv, capsys):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1.encode() == out2.encode()


class TestRender:
    def test_p6_header_and_golden_hash(self, capsys, tmp_path):
        out = tmp_path / "sec44.ppm"
        code, _, _ = run_cli(
            ["render", "--example", "sec44", "--out", str(out), "--width", "128",
             "--height", "128", "--depth", "5"],
            capsys,
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n128 128\n255\n")
        pixels = data.split(b"\n", 3)[3]
        assert len(pixels) == 128 * 128 * 3
        assert hashlib.sha256(pixels).hexdigest() == GOLDEN_SEC44_CYL_128

    def test_chaos_golden_hash(self, capsys, tmp_path):
        out = tmp_path / "phic.ppm"
        code, _, _ = run_cli(
            ["render", "--example", "phi-c", "--param", "c=1/4", "--out", str(out),
             "--mode", "chaos", "--count", "20000", "--seed", "9", "--width", "128",
             "--height", "128", "--viewport", "0,0,1,1"],
            capsys,
        )
        assert code == 0
        pixels = out.read_bytes().split(b"\n", 3)[3]
        assert hashlib.sha256(pixels).hexdigest() == GOLDEN_PHIC_CHAOS_128

    def test_phi_c_cylinder_union_golden(self, capsys, tmp_path):
        out = tmp_path / "phic_cyl.ppm"
        code, _, _ = run_cli(
            ["render", "--example", "phi-c", "--param", "c=1/4", "--out", str(out),
             "--mode", "cylinders", "--depth", "6", "--width", "192", "--height",
             "192", "--viewport=-0.02,-0.02,1.02,1.02"],
            capsys,
        )
        assert code == 0
        pixels = out.read_bytes().split(b"\n", 3)[3]
        assert hashlib.sha256(pixels).hexdigest() == GOLDEN_PHIC_CYL_192
        # the depth-6 parallelogram union covers a visible share of the square
        arr = np.frombuffer(pixels, dtype=np.uint8).reshape(192, 192, 3)
        assert int((arr != 255).any(axis=2).sum()) > 3000

    def test_example_library_names(self):
        from affdim.library import example_names

        assert example_names() == ("sec44", "phi-c", "hl-demo")

    def test_subsystem_flag(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--example", "phi-c", "--param", "c=0.25", "--target",
             "measure", "--subsystem-exclude", "4,6", "--subsystem-depth", "1"],
            capsys,
        )
        assert code == 2  # subsystem still fails SSC on the unit square
        assert "n-maps: 4" in out

    def test_viewport_excluding_attractor_blank(self, capsys, tmp_path):
        out = tmp_path / "blank.ppm"
        code, _, _ = run_cli(
            ["render", "--example", "sec44", "--out", str(out), "--mode", "chaos",
             "--count", "5000", "--viewport", "100,100,101,101", "--width", "32",
             "--height", "32"],
            capsys,
        )
        assert code == 0
        pixels = out.read_bytes().split(b"\n", 3)[3]
        assert pixels == b"\xff" * (32 * 32 * 3)

    def test_single_map_chaos_hits_fixed_point(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("map 0.5 0 0 0.5 0.5 0.5\n")  # fixed point (1, 1)
        out = tmp_path / "one.ppm"
        code, _, _ = run_cli(
            ["render", "--config", str(cfg), "--out", str(out), "--mode", "chaos",
             "--count", "1000", "--viewport", "0,0,2,2", "--width", "64",
             "--height", "64"],
            capsys,
        )
        assert code == 0
        pixels = np.frombuffer(out.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
        img = pixels.reshape(64, 64, 3)
        colored = np.argwhere((img != 255).any(axis=2))
        assert len(colored) == 1  # one pixel at the fixed point
        assert tuple(colored[0]) == (32, 32)  # floor((y1-1)/2*64), floor(1/2*64)

    def test_unsupported_depth(self, capsys, tmp_path):
        out = tmp_path / "deep.ppm"
        code, _, err = run_cli(
            ["render", "--example", "phi-c", "--param", "c=0.25", "--out", str(out),
             "--depth", "12"],
            capsys,
        )
        assert code == 1
        assert "cap" in err


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affdim.cli", "ssc", "--example", "sec44"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "holds: true" in proc.stdout
