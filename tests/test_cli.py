import ast
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TIE_CONFIG, avx2_env, count_calls, probe_cli, six_distinct_maps_system
from test_dimension import RULE_CASES, UNIT_SQUARE

from affdim.cli import main
from affdim.ergodic import entropy
from affdim.ifs import BernoulliWeights, parse_system, sample_measure, serialize_system
from affdim.library import sec44
from affdim.splitting import certify

SEC44_DIM = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)

GOLDEN_SEC44_CYL_128 = "9b6a035dba7c6c17f2ff008f0fd7d0a8d6db090afe20b51aec273bb4773106d3"
GOLDEN_PHIC_CHAOS_128 = "f2320b4946b19c81798f1941447d67561344a951c9291a0d24abdf6c436bb1bb"
# (re-pinned when a cylinder that crosses no pixel-row centre began to paint
# the pixel under its vertex mean instead of nothing)
GOLDEN_PHIC_CYL_192 = "4eb2a891c42fd92295efd943d0ea8c28e90158df69f5c3d9856a6ac7139b4514"
# sha256 of whole P6 files at the default 512x512 raster, recorded while the
# cylinder maps were still composed one AffineMap at a time (phi-c's
# re-pinned with GOLDEN_PHIC_CYL_192: 530 of its 7,776 cylinders were blank)
DEEP_CYLINDER_P6_SHA256 = [
    (["--example", "sec44", "--depth", "8"],
     "8a59811edd6d189a159c4f322c9163d0e3ae73dd3949994fb29abe1c5266837f"),
    (["--example", "phi-c", "--param", "c=1/4", "--depth", "5"],
     "c4275c0f1fb49c0f4008752ba3034aa85e0097585311eab695aa9f3064615df8"),
]
# stdout of `analyze --seed 7` on systems that keep the finite-depth pressure
# (hl-demo's recorded once its exponents came from the Furstenberg enclosure,
# re-pinned when its enclosure words moved to Python floats: the pad counts
# eight word blocks instead of one, so both ends of chi-s-enclosure moved out)
HL_DEMO_SEED_7_SHA256 = "0fa3b9b0c75b6143efbc243619f471b8873c11f74e7328a3cbed148e40ab9b9b"
TIE_SEED_7_SHA256 = "57801537d0ed27de5c8bdb2c9d8c76d8120aec21d5484bf55f253c98fb93b04a"
# sha256 of the whole `analyze --json` document, both targets, seed 0
JSON_SHA256 = {
    "sec44": "2f27b091a68b1044bc50372ce3a05b3a8ad062ac873f6eff9c2b100e34054df3",
    "phi-c": "08a9b3853593c7300a096906547fb7d165c57bdcfc6b08163e1831271876b161",
    "hl-demo": "dc772f4b3655f007c4ea78b4018f305572bb192cc2cf416013e50a775d9abb9a",
}
# stdout of the commands that run the batched 2x2 product kernel, recorded
# before the kernel replaced the per-module product loops (the directions
# re-pinned when their angles moved from numpy's arctan2 and arctan to libm's:
# up to 1 ulp on 851, 9 and 18 of the 5000 angles), and of boxdim's point
# kernel, recorded while the symbols still came from Generator.random
KERNEL_STDOUT_SHA256 = [
    (["boxdim", "--example", "sec44", "--count", "20000", "--seed", "7"],
     "2b156b18fc4933572a1552fd863810b87aafdbfdedf61293743fbd6f88094c30"),
    (["directions", "--example", "hl-demo", "--count", "5000", "--seed", "7"],
     "8db51cd7703a25ebdac9449f2af7c79d48900f52e3aeeaef5fa2d239142d2106"),
    (["directions", "--example", "sec44", "--count", "5000", "--seed", "7"],
     "ff4c99d5aabc05a5d2c7dd96db9c55d58edb590fe874933b3bb44db3ac34b0fc"),
    (["directions", "--example", "phi-c", "--param", "c=2/5", "--count", "5000",
      "--seed", "7"],
     "3aac7739f0ef3528ff7b4dffea66796bb1bc91a4383d703d9730a3fef8b23c51"),
    (["lyapunov", "--example", "hl-demo", "--mc-n", "400", "--mc-trials", "200",
      "--seed", "7"],
     "50f40b36fcb4f247351b8095079f4bd23a1e41dde29ba2e0974f40f84b66efb5"),
    (["pressure", "--example", "phi-c", "--param", "c=2/5"],
     "3587ff8f6c6cd6c692b8b92c4a81cfc377c87f467242248112a3e21e2ec8b5ec"),
]

# a config whose symbols differ in |det| and in multiplicity: maps 1 and 3
# share a linear part
MIXED_CONFIG = """label mixed
map 1/2 0 1/8 1/2 0 0
map 1/3 0 1/5 1/4 1/2 0
map 1/2 0 1/8 1/2 0 1/2
"""
# stdout of `pressure`, recorded while every word still stored log alpha2
# (phi-c c=2/5 at the default schedule is pinned in KERNEL_STDOUT_SHA256)
PRESSURE_STDOUT_SHA256 = [
    (["--example", "hl-demo"],
     "523158436e78fe3a097cdd65128a2ee765d826d9a98e8ef9700e247f7d888620"),
    (["--example", "sec44", "--n", "8"],
     "6d72e568dc43876069507a6d21af9d04bf447278b74e87fadd6a026e5505c269"),
    (["--config", TIE_CONFIG],  # unequal |det|, one map per linear part
     "48ce2898c3169f249d228174ace0a4934e7b979631e4cbd0be3d56e3d6843540"),
    (["--config", MIXED_CONFIG],
     "7a537bb11c94ee338fa4c6917b5d81fbe280f344c67d575faecc8bd03376fdb6"),
    # per-word log |det| and log multiplicity over several evaluation blocks
    # (2^16 words), recorded while a root evaluation held full-length arrays
    (["--config", MIXED_CONFIG, "--n", "2,4,8,16"],
     "3425cf3cdb0de810245291d3d26881f5f5439d22764722aa6fc33b97d1f26036"),
]
# stdout of `hochman`, recorded while every level listed a ratio per word
HOCHMAN_STDOUT_SHA256 = [
    (["--example", "phi-c", "--param", "c=2/5", "--n", "10"],  # one ratio class
     "1625a61266daae6867d59b5d8142de402c5da1ca35ad4b7d81ac2de7d4171069"),
    (["--example", "sec44", "--derive", "x"],
     "901919d5d4bf78d0c14d5c55ed1279d479340c3bade79c2d8959fcc582cb448a"),
    (["--maps", "1/2,0;1/4,1/16;1/8,3/4", "--n", "8"],  # Delta_1 = inf, overlap at 6
     "1d861a76ba9b089a89e70ba36ef410fde82402c061c354d1e482d66aa4aaac6e"),
]

# non-triangular, non-positive rational systems that only the multicone
# proposal certifies: the rotated diagonal pair of
# test_splitting.TestCertify.test_multi_arc_cone_for_interleaved_attractors
# with the rotation (-5/13, 12/13), and a strongly dominated pair on the
# unit square whose proposed cone certifies backward non-overlapping
PROPOSED_CONE_CONFIGS = {
    "rotated-diagonal": """label rotated-diagonal
map 3/5 0 0 1/20 0 0
map 111/845 -33/169 -33/169 1753/3380 2 0
""",
    "thin-rotated": """label thin-rotated
map 1/5 0 0 1/1000 3/20 499/2000
map 643/21125 -597/8450 -597/8450 1153/6760 32537/42250 47323/67600
polygon 0 0
polygon 1 0
polygon 1 1
polygon 0 1
""",
}
# stdout of `analyze --seed 7` (recorded once their exponents came from the
# Furstenberg enclosure) and `directions --count 500 --seed 3` on them
PROPOSED_CONE_STDOUT_SHA256 = [
    # all four re-pinned when the proposed cone grew from eigenlines instead
    # of random words: split-margin, the chi-s-enclosure ends and last bits of
    # the values after them moved, and every directions angle with the seed
    # point of the cone; verdicts and fired theorems stayed
    ("rotated-diagonal", ["analyze", "--seed", "7"],
     "31220d72f5ab2f5eace381bdf58be321384f158d859b226fdbefce0975a544b1"),
    ("rotated-diagonal", ["directions", "--count", "500", "--seed", "3"],
     "3a4c41b64698732756dbfc3ca45eebf77bd792ca0be8ef28f79ab29a8dde18d1"),
    ("thin-rotated", ["analyze", "--seed", "7"],
     "1d80f6800a7bf81b8647c42a1681c98017d6bbea2fc0608bee033ec1030fb82b"),
    ("thin-rotated", ["directions", "--count", "500", "--seed", "3"],
     "63cfcf28d1e12fdf0b05a48eaf3e7f7b057ccc1ca386893bfff2d15b7fc0c2da"),
]


# two c-dominant maps whose direction system x -> r x, r x - 1 has
# r = 1/2 - 1e-8, with the unit square
TINY_GAP_CONFIG = ("map 49999999/300000000 0 0 1/3 1/10 1/10\n"
                   "map 49999999/300000000 0 1/3 1/3 3/5 1/5\n"
                   + "".join(f"polygon {v}\n" for v in UNIT_SQUARE))


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

    def test_norm_one_map_is_an_input_error(self, capsys, tmp_path):
        # singular values exactly 1 and 10/11; the float norm reads 1 - 8e-16
        cfg = tmp_path / "norm1.cfg"
        cfg.write_text("map 3/5 -8/11 4/5 6/11 0 0\nmap 1/3 0 0 1/3 2 2\n")
        code, out, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert "map 1 is not a contraction" in err

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

    @pytest.mark.parametrize("source, code", [
        (["--example", "sec44"], 0),
        (["--example", "phi-c", "--param", "c=2/5"], 2),
        (["--example", "hl-demo"], 2),
    ], ids=["sec44", "phi-c", "hl-demo"])
    def test_json_document_bytes_pinned(self, source, code, capsys, tmp_path):
        # recorded while the records were dataclasses and the document came
        # from dataclasses.asdict: no key, key order or float may move
        path = tmp_path / "rep.json"
        assert run_cli(["analyze", *source, "--json", str(path)], capsys)[0] == code
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == JSON_SHA256[source[1]]

    def test_hochman_depth_clip_is_named(self, capsys):
        argv = ["analyze", "--example", "sec44", "--target", "measure", "--hochman-depth"]
        code, out, _ = run_cli(argv + ["50"], capsys)
        assert code == 0
        assert "hochman-depth-clipped: 50 -> 10" in out.splitlines()
        code, out, _ = run_cli(argv + ["6"], capsys)
        assert code == 0
        assert "hochman-depth-clipped" not in out

    @pytest.mark.parametrize("spec", ["x", "9", "1,2,3,4,5,6"])
    def test_bad_subsystem_exclude_exit_1(self, spec, capsys):
        argv = ["analyze", "--example", "phi-c", "--param", "c=1/4", "--subsystem-exclude"]
        code, out, err = run_cli(argv + [spec], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("affdim: error: bad --subsystem-exclude")

    def test_bad_subsystem_depth_exit_1(self, capsys):
        argv = ["analyze", "--example", "phi-c", "--param", "c=1/4", "--subsystem-exclude",
                "4,6", "--subsystem-depth", "0"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("affdim: error: bad --subsystem-depth")

    def test_sub_pad_direction_gap_is_verified(self, capsys, tmp_path):
        # direction system x -> r x and r x - 1 with r = 1/2 - 1e-8: its images
        # are 4e-8 apart, closer than the 1e-6 pad the hull once carried
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(TINY_GAP_CONFIG)
        code, out, err = run_cli(["analyze", "--config", str(cfg), "--target", "measure",
                                  "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        for line in ("hypothesis backward-non-overlapping: Verified",
                     "fired-theorem: T2.8-projection", "assumption: none",
                     "certified-value: 0.6309297535714574"):
            assert line in lines

    def test_touching_direction_images_fail(self, capsys, tmp_path):
        # a11 = 1/6: the direction images meet at -1, and touching fails;
        # stdout recorded while the hull was padded and rationalised
        cfg = tmp_path / "touch.cfg"
        cfg.write_text(TINY_GAP_CONFIG.replace("49999999/300000000", "1/6"))
        code, out, err = run_cli(["analyze", "--config", str(cfg), "--target", "measure",
                                  "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert "hypothesis backward-non-overlapping: Failed" in out.splitlines()
        assert "fired-theorem: T4.2-CDominant" in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "ca26aabd84b847ef5a0165466bd6e3a1c9b9cf8d87774557da9933f5106fa4f9"

    def test_one_map_direction_system_prints_positive_zero(self, capsys, tmp_path):
        # a separated Bedford-McMullen carpet: every map has the same column,
        # so the direction system has one map, whose point-mass entropy once
        # printed as -0.0
        cfg = tmp_path / "carpet.cfg"
        cfg.write_text("".join(f"map 1/7 0 0 1/5 {t}\n" for t in
                               ("1/7 1/5", "3/7 1/5", "5/7 1/5", "1/7 3/5"))
                       + "".join(f"polygon {v}\n" for v in UNIT_SQUARE))
        code, out, err = run_cli(["analyze", "--config", str(cfg), "--target", "measure",
                                  "--seed", "7"], capsys)
        assert (code, err) == (2, "")
        assert "nu-ss-dimension: 0.0" in out.splitlines()
        assert math.copysign(1.0, entropy(BernoulliWeights.uniform(1))) == 1.0

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

    def test_depth_row_does_not_depend_on_the_schedule(self, capsys):
        # a depth's form (floats up to 2^15 words) and value follow from the
        # system and the depth alone
        rows = []
        for n in ("8", "2,4,8,12"):
            code, out, _ = run_cli(["pressure", "--example", "sec44", "--n", n], capsys)
            assert code == 0
            rows.append(next(l for l in out.splitlines() if l.startswith("8\t")))
        assert rows[0] == rows[1]

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

    def test_hochman_rate_of_unit_delta_is_positive_zero(self, capsys):
        out = ("n\tdelta_n\trate\n1\t1\t0.0\n2\t1/2\t0.34657359027997264\n"
               "# verdict: TrendBounded\n")
        assert run_cli(["hochman", "--maps", "1/2,0;1/2,1", "--n", "2"], capsys) == (0, out, "")

    def test_hochman_negative_first_ratio_with_equals(self, capsys):
        # "--maps -1/2,..." reads as a flag; the = form passes it as the value
        code, out, err = run_cli(["hochman", "--maps=-1/2,0;-1/2,1", "--n", "4"], capsys)
        assert (code, err) == (0, "")
        rows = [l.split("\t")[:2] for l in out.splitlines()[1:] if not l.startswith("#")]
        assert rows == [["1", "1"], ["2", "1/2"], ["3", "1/4"], ["4", "1/8"]]

    def test_hochman_depth_range_rows(self, capsys):
        code, out, _ = run_cli(["hochman", "--maps", "1/2,0;1/2,1/2", "--n", "3..6"], capsys)
        assert code == 0
        rows = [l.split("\t")[:2] for l in out.splitlines()[1:] if not l.startswith("#")]
        assert rows == [[str(k), f"1/{2 ** k}"] for k in range(3, 7)]
        assert "# verdict: TrendBounded" in out.splitlines()

    def test_hochman_rate_of_a_delta_below_the_least_float(self, capsys):
        # Delta_3 = 10^-400 underflows a float: its rate comes from the exact
        # Fraction, and the rows of the depths before it stay as they were
        maps = ["hochman", "--maps", "1e-200,0;1e-200,1", "--n"]
        code, out, _ = run_cli(maps + ["3"], capsys)
        assert code == 0
        rows = out.splitlines()
        assert rows[:3] == run_cli(maps + ["2"], capsys)[1].splitlines()[:3]
        n, _, rate = rows[3].split("\t")
        assert n == "3" and math.isfinite(float(rate))
        assert float(rate) == pytest.approx(400 * math.log(10) / 3, rel=1e-14)
        assert rows[-1] == "# verdict: TrendBounded"

    @pytest.mark.parametrize("spec", ["abc", "1", "0..1", "6..2", "3..", "..4", ""])
    def test_hochman_bad_depth_exit_1(self, spec, capsys):
        code, out, err = run_cli(["hochman", "--maps", "1/2,0;1/2,1/2", "--n", spec], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("affdim: error: bad --n")

    @pytest.mark.parametrize("spec", ["abc", "4,2", "0", "2,,4"])
    def test_pressure_bad_schedule_exit_1(self, spec, capsys):
        code, out, err = run_cli(["pressure", "--example", "sec44", "--n", spec], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("affdim: error: bad --n")

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

    @staticmethod
    def sec44_boxdim(argv, capsys):
        """(exit code, k column, count column, stderr) of a 2000-point sec44
        boxdim."""
        code, out, err = run_cli(["boxdim", "--example", "sec44", "--count", "2000", *argv],
                                 capsys)
        rows = [line.split("\t") for line in out.splitlines()[1:] if line[:1] != "#"]
        return code, [int(r[0]) for r in rows], [int(r[2]) for r in rows], err

    @staticmethod
    def sec44_boxdim_points():
        """The points that sec44_boxdim samples, drawn as cmd_boxdim draws them."""
        parsed = sec44()
        return sample_measure(parsed.system, BernoulliWeights.uniform(3), depth=40, count=2000,
                              rng_seed=0, seed_point=parsed.polygon.centroid())

    def test_boxdim_counts_exact_at_k_max_70(self, capsys):
        # int64 cells made these counts fall from 2000 to 21 from k = 64 on
        code, ks, counts, _ = self.sec44_boxdim(["--k-max", "70"], capsys)
        assert code == 0 and ks == list(range(3, 71))
        assert counts == sorted(counts)
        assert counts[-1] == len(np.unique(self.sec44_boxdim_points(), axis=0))

    def test_boxdim_at_the_largest_accepted_k(self, capsys):
        pts = self.sec44_boxdim_points()
        k = 1024 - math.frexp(float(np.abs(pts).max()))[1]  # |pts| * 2^k < 2^1024
        code, ks, counts, _ = self.sec44_boxdim(["--k-min", str(k - 3), "--k-max", str(k)],
                                                capsys)
        assert code == 0 and ks == list(range(k - 3, k + 1))
        assert counts == [len(np.unique(pts, axis=0))] * 4
        code, ks, _, err = self.sec44_boxdim(["--k-min", str(k - 3), "--k-max", str(k + 1)],
                                             capsys)
        assert (code, ks) == (1, [])
        assert err == f"affdim: error: bad --k-max {k + 1}; points * 2^k_max overflow float64\n"


class TestComputeOnce:
    """One analyze command computes each weight-independent stage once,
    whatever the number of targets and weight candidates."""

    def test_sec44_pressure_and_hochman_once(self, monkeypatch, capsys):
        import affdim.dimension
        import affdim.pressure

        roots = [count_calls(monkeypatch, m, "pressure_root")
                 for m in (affdim.dimension, affdim.pressure)]
        solves = [count_calls(monkeypatch, m, "triangular_roots")
                  for m in (affdim.dimension, affdim.pressure)]
        rates = count_calls(monkeypatch, affdim.dimension, "hochman_rate")
        code, out, _ = run_cli(["analyze", "--example", "sec44"], capsys)
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("target:")] == [
            "target: measure", "target: attractor"]
        assert out.count("hochman-direction-verdict: TrendBounded") == 2
        assert out.count("pressure-method: closed-form") == 2
        assert sum(map(len, roots)) == 0
        assert sum(map(len, solves)) == 1
        assert len(rates) == 1

    @pytest.mark.parametrize("source, digest", [
        ("hl-demo", HL_DEMO_SEED_7_SHA256),
        ("tie", TIE_SEED_7_SHA256),
    ], ids=["hl-demo", "tie"])
    def test_finite_depth_route_once_and_unchanged(self, source, digest, monkeypatch,
                                                    capsys, tmp_path):
        # outside the dominated triangular case: one finite-depth pressure_root
        # call and the bytes of the report from before the closed-form route
        import affdim.dimension
        import affdim.pressure

        if source == "tie":
            cfg = tmp_path / "tie.cfg"
            cfg.write_text(TIE_CONFIG)
            argv = ["analyze", "--config", str(cfg), "--seed", "7"]
        else:
            argv = ["analyze", "--example", source, "--seed", "7"]
        roots = [count_calls(monkeypatch, m, "pressure_root")
                 for m in (affdim.dimension, affdim.pressure)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert out.count("pressure-history: ") == 2
        assert sum(map(len, roots)) == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("example, builds", [("sec44", 2), ("hl-demo", 1)])
    def test_measure_reports_built_once(self, example, builds, monkeypatch, capsys):
        # sec44: the exact input weights plus its two prescribed candidates,
        # which coincide (every map has the same diagonal); hl-demo has no
        # prescribed candidates, so both targets share one report
        import affdim.dimension

        reports = count_calls(monkeypatch, affdim.dimension, "_measure_report")
        run_cli(["analyze", "--example", example], capsys)
        assert len(reports) == builds

    @pytest.mark.parametrize("example", ["sec44", "hl-demo"])
    def test_hypothesis_statuses_decided_once(self, example, monkeypatch, capsys):
        # every measure report reads the T4.1 statuses of one hueter_lalley_check
        import affdim.dimension

        checks = count_calls(monkeypatch, affdim.dimension, "hueter_lalley_check")
        bno = count_calls(monkeypatch, affdim.dimension, "backward_non_overlapping")
        _, out, _ = run_cli(["analyze", "--example", example], capsys)
        assert out.count("hypothesis backward-non-overlapping: Verified") == 2
        assert len(checks) == 1
        assert len(bno) == 1

    def test_hl_demo_enclosure_once_monte_carlo_never(self, monkeypatch, capsys):
        import affdim.ergodic

        enclosures = count_calls(monkeypatch, affdim.ergodic, "lyapunov_enclosure")
        runs = count_calls(monkeypatch, affdim.ergodic, "lyapunov_monte_carlo")
        code, out, _ = run_cli(["analyze", "--example", "hl-demo"], capsys)
        assert code == 2
        assert out.count("chi-s-enclosure: ") == 2  # both targets use the enclosure
        assert "stderr-chi-s: " not in out and "Monte" not in out
        assert len(enclosures) == 1
        assert len(runs) == 0

    def test_hl_demo_analyze_draws_no_random_numbers(self):
        # importing numpy.random costs ~6 MB of peak memory; a certified
        # system's analyze never needs it
        code = ("import sys; from affdim.cli import main; "
                "code = main(['analyze', '--example', 'hl-demo']); "
                "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "False\n"


    def test_directions_samples_nu_ss_once(self, monkeypatch, capsys):
        import affdim.splitting

        draws = count_calls(monkeypatch, affdim.splitting, "sample_nu_ss_angles")
        code, out, _ = run_cli(
            ["directions", "--example", "hl-demo", "--count", "50", "--seed", "2"], capsys
        )
        assert code == 0
        assert "# min-separation: " in out
        assert len(draws) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--example", "sec44", "--seed", "5"],
            ["lyapunov", "--example", "hl-demo", "--seed", "5",
             "--mc-n", "200", "--mc-trials", "50"],
            ["boxdim", "--example", "sec44", "--count", "20000", "--seed", "5"],
            ["directions", "--example", "hl-demo", "--count", "2000", "--seed", "5"],
            ["analyze", "--example", "phi-c", "--param", "c=2/5", "--seed", "5"],
            ["analyze", "--example", "phi-c", "--param", "c=1/4", "--target", "measure",
             "--subsystem-exclude", "4,6", "--seed", "5"],
        ],
    )
    def test_byte_identical_reruns(self, argv, capsys):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("argv, digest", KERNEL_STDOUT_SHA256,
                             ids=[f"{a[0]}-{a[2]}" for a, _ in KERNEL_STDOUT_SHA256])
    def test_kernel_stdout_pinned(self, argv, digest, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("source, digest", PRESSURE_STDOUT_SHA256,
                             ids=["hl-demo", "sec44-n8", "tie", "mixed", "mixed-n16"])
    def test_pressure_stdout_pinned(self, source, digest, capsys, tmp_path):
        if source[0] == "--config":
            cfg = tmp_path / "system.cfg"
            cfg.write_text(source[1])
            source = ["--config", str(cfg), *source[2:]]
        code, out, _ = run_cli(["pressure", *source], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", HOCHMAN_STDOUT_SHA256,
                             ids=["phi-c-n10", "sec44-x", "overlap-maps"])
    def test_hochman_stdout_pinned(self, argv, digest, capsys):
        code, out, _ = run_cli(["hochman", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, argv, digest", PROPOSED_CONE_STDOUT_SHA256,
                             ids=[f"{n}-{a[0]}" for n, a, _ in PROPOSED_CONE_STDOUT_SHA256])
    def test_proposed_cone_stdout_pinned(self, name, argv, digest, capsys, tmp_path):
        text = PROPOSED_CONE_CONFIGS[name]
        split = certify(parse_system(text).system)
        assert split.method == "MulticoneCheck" and len(split.multicone.arcs) >= 2
        cfg = tmp_path / "system.cfg"
        cfg.write_text(text)
        code, out, _ = run_cli([argv[0], "--config", str(cfg), *argv[1:]], capsys)
        assert code == (2 if argv[0] == "analyze" else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--example", "sec44", "--depth", "6", "--width", "96",
             "--height", "64"],
            ["render", "--example", "phi-c", "--param", "c=1/4", "--mode", "chaos",
             "--count", "20000", "--width", "64", "--height", "64", "--seed", "5"],
        ],
    )
    def test_byte_identical_images(self, argv, capsys, tmp_path):
        images = []
        for k in range(2):
            out = tmp_path / f"run{k}.ppm"
            code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
            assert code == 0
            images.append(out.read_bytes())
        assert images[0] == images[1]


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

    @pytest.mark.parametrize("args, digest", DEEP_CYLINDER_P6_SHA256,
                             ids=["sec44-depth-8", "phi-c-depth-5"])
    def test_deep_cylinders_pinned(self, args, digest, capsys, tmp_path):
        out = tmp_path / "cyl.ppm"
        code, _, _ = run_cli(["render", *args, "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_hl_demo_depth_9_renders(self, capsys, tmp_path):
        """The float images of the square are slivers at depth 9; they are
        drawn rather than rejected as degenerate polygons."""
        out = tmp_path / "hl9.ppm"
        code, _, err = run_cli(
            ["render", "--example", "hl-demo", "--depth", "9", "--width", "64",
             "--height", "64", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        assert out.read_bytes().startswith(b"P6\n64 64\n255\n")

    def test_unsupported_depth(self, capsys, tmp_path):
        out = tmp_path / "deep.ppm"
        code, _, err = run_cli(
            ["render", "--example", "phi-c", "--param", "c=0.25", "--out", str(out),
             "--depth", "12"],
            capsys,
        )
        assert code == 1
        assert "cap" in err


# diagonals |a| and |c| of map 1 that round to one float, c-dominant and
# its a-dominant mirror
NEAR_TIE_C_CONFIG = ("map 1/2 0 0 50000000000000000001/100000000000000000000 0 0\n"
                     "map 1/3 0 1/4 1/2 1/2 1/2\n"
                     + "".join(f"polygon {v}\n" for v in UNIT_SQUARE))
NEAR_TIE_A_CONFIG = ("map 50000000000000000001/100000000000000000000 0 0 1/2 0 0\n"
                     "map 1/2 0 1/4 1/3 1/2 1/2\n"
                     + "".join(f"polygon {v}\n" for v in UNIT_SQUARE))


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["render", "--example", "sec44", "--viewport", "a,b,c,d"],
        ["render", "--example", "sec44", "--viewport", "0,0,0,0"],
        ["render", "--example", "sec44", "--width", "0"],
        ["render", "--example", "sec44", "--depth", "0"],
        ["directions", "--example", "hl-demo", "--count", "0"],
        ["directions", "--example", "hl-demo", "--depth", "0"],
        ["directions", "--example", "sec44", "--depth", "0"],
        ["lyapunov", "--example", "hl-demo", "--mc-n", "0"],
        ["lyapunov", "--example", "hl-demo", "--mc-trials", "1"],
        ["boxdim", "--example", "sec44", "--depth", "0"],
        ["hochman", "--example", "hl-demo"],  # not triangular: no line system
        ["render", "--example", "sec44", "--mode", "chaos", "--count", "0"],
        ["render", "--example", "sec44", "--mode", "chaos", "--count", "-5"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_library_value_errors_exit_1_without_traceback(self, argv, capsys, tmp_path):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "img.ppm")]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("affdim: error: ") and "Traceback" not in err
        assert not (tmp_path / "img.ppm").exists()

    @pytest.mark.parametrize("command", ["analyze", "lyapunov"])
    @pytest.mark.parametrize("flag, value, need", [
        ("--mc-n", "0", 1), ("--mc-n", "-3", 1), ("--mc-trials", "1", 2),
    ])
    def test_monte_carlo_flags_named(self, command, flag, value, need, capsys):
        # sec44 is triangular and never runs the Monte Carlo: the flag is
        # checked anyway
        for example in ("hl-demo", "sec44"):
            code, out, err = run_cli([command, "--example", example, flag, value], capsys)
            assert code == 1
            assert out == ""
            assert err == f"affdim: error: bad {flag} {value}; need >= {need}\n"

    @pytest.mark.parametrize("argv, message", [
        (["directions", "--example", "hl-demo", "--count", "0"], "bad --count 0; need >= 1"),
        (["directions", "--example", "hl-demo", "--depth", "0"], "bad --depth 0; need >= 1"),
        (["boxdim", "--example", "sec44", "--count", "999"], "bad --count 999; need >= 1000"),
        (["boxdim", "--example", "sec44", "--depth", "0"], "bad --depth 0; need >= 1"),
        (["boxdim", "--example", "sec44", "--k-min", "0"], "bad --k-min 0; need >= 1"),
        (["boxdim", "--example", "sec44", "--k-min", "5", "--k-max", "7"],
         "bad --k-max 7; need >= 8"),
        (["boxdim", "--example", "sec44", "--count", "1000", "--k-max", "2000"],
         "bad --k-max 2000; points * 2^k_max overflow float64"),
        (["render", "--example", "sec44", "--mode", "chaos", "--count", "0"],
         "bad --count 0; need >= 1"),
        (["render", "--example", "sec44", "--depth", "0"], "bad --depth 0; need >= 1"),
    ], ids=lambda v: " ".join(v[:1] + v[3:]) if isinstance(v, list) else "")
    def test_flags_named(self, argv, message, capsys, tmp_path):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "img.ppm")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"affdim: error: {message}\n")
        assert not (tmp_path / "img.ppm").exists()

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    @pytest.mark.parametrize("value", ["15", "8193"])
    def test_raster_size_named(self, flag, value, capsys, tmp_path):
        out = tmp_path / "img.ppm"
        code, stdout, err = run_cli(["render", "--example", "sec44", flag, value,
                                     "--out", str(out)], capsys)
        message = f"affdim: error: bad {flag} {value}; need 16..8192\n"
        assert (code, stdout, err) == (1, "", message)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["render", "--example", "sec44", "--depth", "0", "--width", "0"],
         "bad --width 0; need 16..8192"),
        (["render", "--example", "sec44", "--mode", "chaos", "--count", "0", "--height", "1"],
         "bad --height 1; need 16..8192"),
        (["directions", "--example", "hl-demo", "--depth", "0", "--count", "0"],
         "bad --count 0; need >= 1"),
        (["boxdim", "--example", "sec44", "--k-min", "0", "--depth", "0"],
         "bad --depth 0; need >= 1"),
    ], ids=lambda v: " ".join(v[:1] + v[3:]) if isinstance(v, list) else "")
    def test_first_bad_flag_in_help_order_is_named(self, argv, message, capsys, tmp_path):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "img.ppm")]
        assert run_cli(argv, capsys) == (1, "", f"affdim: error: {message}\n")

    @pytest.mark.parametrize("text, argv", [
        # a22 = 0 divided the direction system by zero; upper-triangular maps
        # got an x-axis system that dropped a12
        ("map 0 1/2 -1/2 0 0 0\nmap 1/3 0 0 1/3 1/2 1/2\n", ["--n", "6"]),
        ("map 1/2 1/4 0 1/3 0 0\nmap 1/3 0 0 1/4 1/2 1/2\n", ["--derive", "x"]),
    ], ids=["direction-a22-zero", "x-upper-triangular"])
    def test_hochman_line_system_needs_lower_triangular(self, text, argv, capsys, tmp_path):
        cfg = tmp_path / "maps.cfg"
        cfg.write_text(text)
        assert run_cli(["hochman", "--config", str(cfg)] + argv, capsys) == \
            (1, "", "affdim: error: map 1 has a nonzero upper-right entry\n")

    @pytest.mark.parametrize("config", [NEAR_TIE_C_CONFIG, NEAR_TIE_A_CONFIG],
                             ids=["c-dominant", "a-dominant"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["directions", "--count", "5"], ["hochman", "--n", "3"],
        ["hochman", "--n", "3", "--derive", "x"], ["pressure", "--n", "2,4"],
        ["lyapunov", "--mc-n", "20", "--mc-trials", "20"], ["ssc"], ["boxdim", "--count", "1000"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:4]))
    def test_near_ties_exit_without_traceback(self, config, argv, capsys, tmp_path):
        # diagonals that differ by less than a float once divided by zero in
        # the triangular cone; the exact tests decide.  The c-dominant cone's
        # exact bound is 3/2, so it certifies; the a-dominant mirror's is about
        # 2.5e19, which leaves no float arc, so it stays uncertified, and its
        # direction system, whose ratio exceeds 1, is rejected
        cfg = tmp_path / "near.cfg"
        cfg.write_text(config)
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        mirror = config is NEAR_TIE_A_CONFIG
        rejected = mirror and argv == ["hochman", "--n", "3"]
        uncertified = mirror and argv[0] == "directions"
        assert code == (1 if rejected or uncertified else 2 if argv[0] == "analyze" else 0), err
        assert "Traceback" not in err
        if argv[0] == "analyze" and mirror:
            assert out.count("split-verdict: Unknown\n") == 2
        elif argv[0] == "analyze":
            for line in ("split-verdict: Certified", "split-method: Triangular",
                         "split-triangular: CDominant"):
                assert out.count(line + "\n") == 2

    def test_hochman_ratio_within_a_float_of_one(self, capsys):
        code, out, err = run_cli(["hochman", "--maps",
                                  "99999999999999999999/100000000000000000000,0;1/2,1",
                                  "--n", "3"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "2\t1/100000000000000000000\t23.025850929940457"

    def test_chaos_mode_ignores_depth(self, capsys, tmp_path):
        out = tmp_path / "img.ppm"
        code, _, _ = run_cli(["render", "--example", "sec44", "--mode", "chaos", "--depth", "0",
                              "--count", "100", "--width", "16", "--height", "16",
                              "--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n16 16\n255\n")

    def test_cylinders_mode_ignores_count(self, capsys, tmp_path):
        out = tmp_path / "img.ppm"
        code, _, _ = run_cli(["render", "--example", "sec44", "--count", "0", "--depth", "2",
                              "--width", "16", "--height", "16", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n16 16\n255\n")


TWO_MAPS = "map 1/2 0 0 1/2 0 0\nmap 1/2 0 0 1/2 1/2 0\n"
NO_POLYGON_CONFIG = "map 1/2 0 0 1/3 0 0\nmap 1/2 0 0 1/3 1/2 1/2\n"
# every ParseError branch of parse_system, as `analyze --config` reports it
BAD_CONFIGS = [
    ("label\n" + TWO_MAPS, "line 1: label needs a value"),
    ("map 1/2 0 0 1/2 0\n", "line 1: map row needs 6 numbers (a11 a12 a21 a22 t1 t2), got 5"),
    (TWO_MAPS + "weights 1/2 1/2\nweights 1/2 1/2\n", "line 4: duplicate weights row"),
    (TWO_MAPS + "polygon 0 0 1\n", "line 3: polygon row needs 2 numbers (x y)"),
    ("label x\n", "config has no map rows"),
    (TWO_MAPS + "weights 1/2 1/3\n", "line 3: weights must sum to 1"),
    (TWO_MAPS + "weights 1\n", "line 3: weights row has 1 entries for 2 maps"),
    (TWO_MAPS + "".join(f"polygon {v}\n" for v in ("0 0", "2 0", "1 1", "2 2", "0 2")),
     "bad polygon: reflex corner at vertex 2"),
]


class TestRarePaths:
    """Exact (exit code, stdout, stderr) of CLI paths no other test runs,
    recorded before the flags and their bounds became one command table."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--example", "sec44", "--config", "unused.cfg"],
         "give either --example or --config, not both"),
        (["analyze", "--example", "phi-c", "--param", "c"], "bad --param 'c'; expected K=V"),
        (["analyze", "--example", "phi-c"], "phi-c needs --param c=<value in (0, 1/2)>"),
        (["analyze", "--example", "phi-c", "--param", "c=2"], "phi-c needs 0 < c < 1/2"),
        (["render", "--example", "sec44"], "render needs --out PATH for the P6 image"),
        (["hochman", "--maps", "1/2,0,1"], "bad map '1/2,0,1'; expected beta,gamma"),
        (["hochman", "--maps", "1/2,x"], "bad map '1/2,x': Invalid literal for Fraction: 'x'"),
        (["hochman", "--maps", "2,0"], "map 1: contraction must satisfy 0 < |beta| < 1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_input_errors(self, argv, message, capsys):
        assert run_cli(argv, capsys) == (1, "", f"affdim: error: {message}\n")

    @pytest.mark.parametrize("text, message", BAD_CONFIGS,
                             ids=[m.split(": ", 1)[-1] for _, m in BAD_CONFIGS])
    def test_config_errors(self, text, message, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_cli(["analyze", "--config", str(cfg)], capsys) == \
            (1, "", f"affdim: error: {message}\n")

    def test_ssc_without_polygon(self, capsys, tmp_path):
        cfg = tmp_path / "np.cfg"
        cfg.write_text(NO_POLYGON_CONFIG)
        assert run_cli(["ssc", "--config", str(cfg)], capsys) == \
            (1, "", "affdim: error: ssc needs a polygon (in the config or the example)\n")

    def test_failing_ssc_prints_witness(self, capsys):
        out = ("holds: false\nkappa: 0.0\nmargin: 0.0\n"
               "witness: image 1 vertex (1/3, 0) not interior to O\n")
        assert run_cli(["ssc", "--example", "phi-c", "--param", "c=2/5"], capsys) == (0, out, "")

    def test_empty_line_map_is_skipped(self, capsys):
        out = ("n\tdelta_n\trate\n1\tinf\t-inf\n2\t1/4\t0.6931471805599453\n"
               "3\t1/16\t0.9241962407465937\n# verdict: TrendBounded\n")
        assert run_cli(["hochman", "--maps", "1/2,0;;1/4,1/2", "--n", "3"], capsys) == \
            (0, out, "")

    def test_out_writes_the_table(self, capsys, tmp_path):
        path = tmp_path / "t.tsv"
        out = ("n\troot\n2\t1.4683349072579963\n4\t1.4486707965650771\n"
               "# upper-bound: 1.4486707965650771\n"
               "# extrapolated-estimate: 1.429006685872158 (heuristic, Richardson)\n"
               "# converged: false\n")
        argv = ["pressure", "--example", "sec44", "--n", "2,4", "--out", str(path)]
        assert run_cli(argv, capsys) == (0, out, "")
        assert path.read_text() == out

    def test_render_without_polygon_uses_default_viewport(self, capsys, tmp_path):
        cfg, img = tmp_path / "np.cfg", tmp_path / "img.ppm"
        cfg.write_text(NO_POLYGON_CONFIG)
        assert run_cli(["render", "--config", str(cfg), "--out", str(img)], capsys) == (0, "", "")
        assert hashlib.sha256(img.read_bytes()).hexdigest() == \
            "81ddeaad1d17bc3725c974ff9a6df5abb5429009292bb5a3a1b4d80c003084d5"


# sha256 of (stdout, stderr) at 80 columns, recorded while build_parser still
# gave every command its flags
HELP_SHA256 = {
    "--help": ("612e5d48b94161dac23151e017bb343da150115cf8f3504770253f74e4f46f65", ""),
    "analyze --help": ("c0fdb2bc057a9282cd6017ac6fab07c3c515a6da888204b0d548bfa344ee1d54", ""),
    "pressure --help": ("634728af86efc8b180e05da0d99e9d554d32898e84e0e7f4926c6b85322dc0ed", ""),
    "lyapunov --help": ("5a35f6edcaa8033dd050fdcd15fbbf80773fb7a2229b0d324c17ea48108e21f9", ""),
    "directions --help": ("085c6dd3bbfe3ab3d32c907821bf235663fd91a2fd08d6305d1170934341aa71",
                          ""),
    "hochman --help": ("98beb6c2c0efcb3eed037320043bfe833a476f07545357cc3987570079d3ccc7", ""),
    "boxdim --help": ("d8efaf70cd5b72fd4b5117668b6506a3562089191f4922b1967f8176269a796b", ""),
    "ssc --help": ("4f7cbd1aabb74f43adffe309d59e29a9bbcbf10d990e30c2b301e266724f089e", ""),
    "render --help": ("6f8f318510653d9be484bf761d2c1dde3780abff20a6d64c7d642f5c4bc6f6e1", ""),
    "bogus": ("", "2c8c540ecb3a5bbb342d3e74daffe4a9a5cb86f4036b040bf4bb0cf321ac8457"),
}


class TestUsage:
    @pytest.mark.parametrize("argv", sorted(HELP_SHA256))
    def test_help_and_errors_pinned(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(argv.split())
        out, err = capsys.readouterr()
        assert stop.value.code == (1 if argv == "bogus" else 0)
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest() if text else ""
        assert (digest(out), digest(err)) == HELP_SHA256[argv]


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affdim.cli", "ssc", "--example", "sec44"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "holds: true" in proc.stdout


# the config texts of the T4.2-ADominant and T4.2-CDominant rule cases, which
# take the two branches of splitting.triangular_forward_cone
RULE_CASE_CONFIGS = {
    fired: "".join(f"map {row}\n" for row in source)
    + "".join(f"polygon {v}\n" for v in UNIT_SQUARE)
    for source, fired, _, _ in RULE_CASES if fired in ("T4.2-ADominant", "T4.2-CDominant")
}


class TestNumpyOnFirstUse:
    @pytest.mark.parametrize("argv, code", [
        (["ssc", "--example", "sec44"], 0),
        (["hochman", "--example", "phi-c", "--param", "c=2/5", "--n", "10"], 0),
        (["--help"], 0),
        (["directions", "--example", "hl-demo", "--count", "0"], 1),
        (["analyze", "--example", "sec44"], 0),
        (["analyze", "--example", "phi-c", "--param", "c=2/5"], 2),
        (["analyze", "--example", "phi-c", "--param", "c=1/4", "--target", "measure",
          "--subsystem-exclude", "4,6"], 2),
        (["analyze", "--config", RULE_CASE_CONFIGS["T4.2-ADominant"]], 0),
        (["analyze", "--config", RULE_CASE_CONFIGS["T4.2-CDominant"]], 0),
        (["lyapunov", "--example", "sec44"], 0),
        # words on Python floats: at most 2^15 per pressure depth, and per
        # enclosure depth times the cone's arcs
        (["analyze", "--example", "hl-demo"], 2),
        (["pressure", "--example", "sec44", "--n", "8"], 0),
        (["pressure", "--example", "hl-demo", "--n", "15"], 0),  # 2^15 words: the last on lists
        # a cone proposed from eigenlines, and words on Python floats
        (["analyze", "--config", PROPOSED_CONE_CONFIGS["thin-rotated"]], 2),
    ], ids=["ssc", "hochman", "help", "input-error", "analyze-sec44", "analyze-phi-c",
            "analyze-subsystem", "analyze-a-dominant", "analyze-c-dominant", "lyapunov-sec44",
            "analyze-hl-demo", "pressure-sec44-n8", "pressure-hl-demo-n15",
            "analyze-thin-rotated"])
    def test_exact_commands_never_execute_numpy(self, argv, code, tmp_path):
        if "--config" in argv:  # the config text goes to a file
            k = argv.index("--config") + 1
            (tmp_path / "case.cfg").write_text(argv[k])
            argv = argv[:k] + [str(tmp_path / "case.cfg")] + argv[k + 1:]
        probe = probe_cli(argv)
        assert probe.code == code, probe.stderr
        assert not probe.numpy

    def test_array_command_runs_plain_numpy(self):
        # phi-c's depth 12 has 3^12 words and hl-demo's depth 16 2^16, past the
        # list instance's 2^15, and the Monte-Carlo exponents run on arrays
        for argv, code in ((["pressure", "--example", "phi-c", "--param", "c=2/5"], 0),
                           (["pressure", "--example", "hl-demo", "--n", "16"], 0),
                           (["lyapunov", "--example", "hl-demo"], 0)):
            probe = probe_cli(argv)
            assert (probe.code, probe.stderr) == (code, "")
            assert probe.numpy

    # absent: neither an affdim layer the command executed nor a stdlib
    # module it imported
    @pytest.mark.parametrize("argv, code, executed, absent", [
        (["--help"], 0, {"cli", "hochman"}, {"dimension", "ifs", "render"}),
        (["ssc", "--example", "sec44"], 0, {"ifs"}, {"dimension", "pressure", "render"}),
        # the line system comes from hochman, its triangular test from ifs
        (["hochman", "--example", "phi-c", "--param", "c=2/5", "--n", "10"], 0,
         {"cli", "errors", "hochman", "library", "ifs", "linalg2"},
         {"dimension", "ergodic", "pressure", "render", "splitting"}),
        (["pressure", "--example", "phi-c", "--param", "c=2/5"], 0, {"pressure"},
         {"dimension", "ergodic", "render", "splitting"}),
        (["lyapunov", "--example", "hl-demo"], 0, {"ergodic"}, {"dimension", "splitting"}),
        # the box-count estimator lives next to the sampler in ifs
        (["boxdim", "--example", "sec44", "--count", "2000"], 0, {"ifs"},
         {"dimension", "ergodic", "pressure", "render", "splitting"}),
        # records are built without dataclasses, which runs exec on its
        # generated methods and imports inspect
        (["analyze", "--example", "hl-demo"], 2, {"dimension", "splitting"},
         {"dataclasses", "inspect"}),
    ], ids=["help", "ssc", "hochman", "pressure", "lyapunov-hl-demo", "boxdim-sec44",
        "analyze-hl-demo"])
    def test_layers_execute_on_first_use(self, argv, code, executed, absent):
        probe = probe_cli(argv)
        assert probe.code == code, probe.stderr
        assert executed <= probe.layers
        assert not absent & (probe.layers | probe.stdlib)

    def test_boxdim_never_imports_numpy_ma(self):
        # np.unique imports numpy.ma; the box counts sort and compare neighbours
        code = ("import sys; from affdim.cli import main; "
                "code = main(['boxdim', '--example', 'sec44', '--count', '2000']); "
                "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False\n"

    def test_certify_never_executes_numpy(self):
        # the proposed cone grows from eigenlines: no random words, no arrays
        code = ("import sys\nfrom affdim.ifs import parse_system\n"
                "from affdim.splitting import certify\n"
                f"split = certify(parse_system({PROPOSED_CONE_CONFIGS['rotated-diagonal']!r}).system)\n"
                "print(split.method, 'numpy._core' in sys.modules, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.stdout == "MulticoneCheck False False\n", proc.stderr

    def test_float_form_bytes_do_not_depend_on_numpy_dispatch(self):
        # a child with numpy's AVX512 loops switched off prints the same bytes;
        # direction angles come from libm's atan2 and atan
        env = avx2_env()
        directions = ["directions", "--count", "2000", "--seed", "1", "--example"]
        for argv in (["analyze", "--example", "hl-demo"],
                     ["pressure", "--example", "sec44", "--n", "8"],
                     directions + ["sec44"], directions + ["hl-demo"],
                     directions + ["phi-c", "--param", "c=2/5"]):
            outs = [subprocess.run([sys.executable, "-m", "affdim.cli", *argv], env=e,
                                   capture_output=True, timeout=120).stdout
                    for e in (None, env)]
            assert outs[0] and outs[0] == outs[1]

    def test_missing_numpy_fails_import_at_once(self):
        code = ("import sys; sys.modules['numpy'] = None\n"
                "try:\n    import affdim\n"
                "except ModuleNotFoundError as e:\n    print(e.name)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "numpy\n"), proc.stderr

    def test_only_the_helper_imports_numpy_at_top_level(self):
        src = Path(__file__).resolve().parents[1] / "src" / "affdim"
        offenders = []
        for path in sorted(src.glob("*.py")):
            if path.name == "_numpy.py":
                continue
            for node in ast.parse(path.read_text()).body:
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if any(n == "numpy" or n.startswith("numpy.") for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_no_module_imports_dataclasses(self):
        src = Path(__file__).resolve().parents[1] / "src" / "affdim"
        offenders = [
            f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        ]
        assert offenders == []
