import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from densegaze import cli, synth
from densegaze.cli import main
from densegaze.core import load_scene
from densegaze.density import read_dmap
from densegaze.pipeline import sliding_window_run


FIXTURES = Path(__file__).parent / "fixtures"
BIG = 10**400  # a JSON integer beyond float range


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "scene.json"
    code = run_cli(
        "synth", "--out", path, "--objects", 150, "--foreground", 0.03, "--seed", 11,
    )
    assert code == 0
    return path


class TestSynthCommand:
    def test_zero_objects(self, tmp_path):
        out = tmp_path / "empty.json"
        assert run_cli("synth", "--out", out, "--objects", 0) == 0
        annotations, extent = load_scene(out)
        assert annotations == []

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("synth", "--out", out, "--objects", 60, "--seed", 5,
                           "--width", 16384, "--height", 12288) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path):
        out = tmp_path / "x.json"
        assert run_cli("synth", "--out", out, "--min-side", 1) == 2

    def test_infeasible_spec_exits_2(self, tmp_path):
        # Five objects cannot cover five percent of the stock scene.
        out = tmp_path / "x.json"
        assert run_cli("synth", "--out", out, "--objects", 5) == 2

    def test_unplaceable_box_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synth, "_MAX_PLACEMENT_ATTEMPTS", 0)
        assert run_cli("synth", "--out", tmp_path / "x.json", "--objects", 60) == 2
        assert "error: could not place a " in capsys.readouterr().err

    def test_spec_file_with_flag_overrides(self, tmp_path):
        spec = tmp_path / "scene.spec"
        spec.write_text(
            "object_count=80\nseed=4\nforeground_fraction_target=0.03\n# comment\n"
        )
        from_file = tmp_path / "file.json"
        from_flags = tmp_path / "flags.json"
        assert run_cli("synth", "--out", from_file, "--spec", spec) == 0
        assert run_cli("synth", "--out", from_flags, "--objects", 80, "--seed", 4,
                       "--foreground", 0.03) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()
        # A flag beats the same key in the file.
        overridden = tmp_path / "override.json"
        assert run_cli("synth", "--out", overridden, "--spec", spec, "--seed", 5) == 0
        assert overridden.read_bytes() != from_file.read_bytes()

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "scene.spec"
        spec.write_text("object_cont=80\n")
        assert run_cli("synth", "--out", tmp_path / "x.json", "--spec", spec) == 2
        assert "scene.spec:1: unknown scene spec key 'object_cont'" in capsys.readouterr().err

    def test_stats_reports_buckets(self, scene_file, capsys):
        assert run_cli("stats", "--annotations", scene_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["scale_counts"]) == {"tiny", "small", "middle", "large"}
        assert sum(payload["scale_counts"].values()) == 150
        assert len(payload["scale_counts"]) == 4

    def test_stats_on_a_scene_under_half_a_raster_cell(self, tmp_path, capsys):
        scene = tmp_path / "tiny.json"
        rows = [{"id": 0, "bbox": [1.0, 1.0, 2.0, 2.0], "category": 0}]
        scene.write_text(json.dumps({"scene": {"width": 10, "height": 10}, "annotations": rows}))
        assert run_cli("stats", "--annotations", scene) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["foreground_fraction"] == 0.0 and payload["side_ratio"] == 1.0


class TestDensityCommand:
    def test_writes_readable_dmap(self, scene_file, tmp_path):
        out = tmp_path / "maps.dmap"
        assert run_cli("density", "--annotations", scene_file, "--out", out) == 0
        dset = read_dmap(out)
        total = sum(dset[s].total_mass() for s in __import__("densegaze").ScaleLevel)
        assert total == pytest.approx(150.0, rel=0.05)


class TestSaccadeCommand:
    def test_manifest_and_threshold_effect(self, scene_file, tmp_path):
        lo = tmp_path / "lo.json"
        hi = tmp_path / "hi.json"
        assert run_cli("saccade", "--annotations", scene_file, "--out", lo, "--threshold", 0.2) == 0
        assert run_cli("saccade", "--annotations", scene_file, "--out", hi, "--threshold", 1.0) == 0
        lo_rows = json.loads(lo.read_text())
        hi_rows = json.loads(hi.read_text())
        assert len(hi_rows) <= len(lo_rows)
        assert {"scale", "cell", "region", "density"} == set(lo_rows[0])

    def test_accepts_precomputed_density(self, scene_file, tmp_path):
        dmap_path = tmp_path / "maps.dmap"
        run_cli("density", "--annotations", scene_file, "--out", dmap_path)
        direct = tmp_path / "direct.json"
        via_file = tmp_path / "via.json"
        assert run_cli("saccade", "--annotations", scene_file, "--out", direct) == 0
        assert run_cli("saccade", "--annotations", scene_file, "--density", dmap_path,
                       "--out", via_file) == 0
        # f32 quantization in the DMAP file must not change selection.
        assert len(json.loads(direct.read_text())) == len(json.loads(via_file.read_text()))


class TestSelectionStep:
    # Non-default grids, threshold and expansion, so a command that
    # selected with stock settings would write a different manifest.
    FLAGS = ("--grids", "12,6,3,2", "--threshold", 0.1, "--expansion", 1.3)

    @pytest.mark.parametrize("from_dmap", [False, True], ids=["rendered", "dmap"])
    def test_saccade_manifest_equals_run_dump(self, scene_file, tmp_path, capsys, from_dmap):
        density = ()
        if from_dmap:
            dmap = tmp_path / "maps.dmap"
            assert run_cli("density", "--annotations", scene_file, "--out", dmap, "--downsample", 8) == 0
            density = ("--density", dmap)
        manifest, dumped = tmp_path / "manifest.json", tmp_path / "dumped.json"
        assert run_cli("saccade", "--annotations", scene_file, "--out", manifest, *density, *self.FLAGS) == 0
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json",
                       "--dump-patches", dumped, *density, *self.FLAGS) == 0
        assert json.loads(manifest.read_text())
        assert manifest.read_bytes() == dumped.read_bytes()


class TestRunCommand:
    def test_oracle_run_and_eval(self, scene_file, tmp_path, capsys):
        dets = tmp_path / "dets.json"
        assert run_cli("run", "--annotations", scene_file, "--out", dets) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--detections", dets, "--annotations", scene_file,
                       "--out", report_path, "--pr-csv", tmp_path / "pr.csv") == 0
        report = json.loads(report_path.read_text())
        assert report["overall"]["ap50"] >= 0.99
        assert (tmp_path / "pr.csv").read_text().startswith("recall,precision")

    def test_eval_table_text(self, tmp_path, capsys):
        scene, dets = tmp_path / "scene.json", tmp_path / "dets.json"
        scene.write_text(json.dumps({"scene": {"width": 1000, "height": 1000}, "annotations": [
            {"id": 0, "bbox": [10, 10, 20, 20]}, {"id": 1, "bbox": [100, 100, 150, 150]},
            {"id": 2, "bbox": [400, 400, 300, 300]},
        ]}))
        dets.write_text(json.dumps([
            {"bbox": [10, 10, 20, 20], "score": 0.9}, {"bbox": [400, 400, 300, 290], "score": 0.8},
            {"bbox": [800, 800, 10, 10], "score": 0.5},
        ]))
        assert run_cli("eval", "--detections", dets, "--annotations", scene) == 0
        table = capsys.readouterr().out.split("\n")[:5]
        assert table == [
            "slice    ap50    gts  matched  fps  missed",
            "overall  0.6634  3    2        1    1     ",
            "small    1.0000  1    1        1    0     ",
            "middle   0.0000  1    0        0    1     ",
            "large    1.0000  1    1        0    0     ",
        ]

    def test_empty_scene_run(self, tmp_path, capsys):
        scene = tmp_path / "empty.json"
        run_cli("synth", "--out", scene, "--objects", 0)
        dets = tmp_path / "dets.json"
        assert run_cli("run", "--annotations", scene, "--out", dets) == 0
        assert json.loads(dets.read_text()) == []

    def test_dumps_and_config_round_trip(self, scene_file, tmp_path, capsys):
        dets1 = tmp_path / "d1.json"
        cfg = tmp_path / "effective.cfg"
        dmap_path = tmp_path / "density.dmap"
        manifest = tmp_path / "patches.json"
        assert run_cli(
            "run", "--annotations", scene_file, "--out", dets1,
            "--dump-density", dmap_path, "--dump-patches", manifest,
            "--dump-config", cfg, "--threshold", 0.3,
        ) == 0
        assert read_dmap(dmap_path).width > 0
        assert json.loads(manifest.read_text())
        # Re-running from the dumped config reproduces the detections.
        dets2 = tmp_path / "d2.json"
        assert run_cli("run", "--annotations", scene_file, "--out", dets2, "--config", cfg) == 0
        assert dets1.read_bytes() == dets2.read_bytes()

    def test_noisy_adapter_seeded(self, scene_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "run", "--annotations", scene_file, "--adapter", "noisy", "--out", out,
                "--jitter", 4.0, "--miss-rate", 0.1, "--fp-rate", 0.5, "--seed", 99,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    # The detections files of the stock scene (oracle) and of the
    # 1,000-object crowd scene (noisy adapter), pinned byte for byte.
    @pytest.mark.parametrize(
        "synth_args, run_args, digest",
        [
            ((), ("--adapter", "oracle"),
             "e79d2c7082f2bf5a0bbb1855e63ef27f51f580cdf616e6acb397b7aa44859329"),
            (("--objects", 1000, "--foreground", 0.07, "--seed", 0),
             ("--adapter", "noisy", "--jitter", 2, "--miss-rate", 0.05, "--fp-rate", 3, "--seed", 0),
             "026b3670881068639ed00f390925af587d2516e7148fbdb2a0f8d33ef4118aac"),
        ],
        ids=["stock_oracle", "crowd_noisy"],
    )
    def test_detections_bytes_pinned(self, tmp_path, capsys, synth_args, run_args, digest):
        scene = tmp_path / "scene.json"
        assert run_cli("synth", "--out", scene, *synth_args) == 0
        for workers in (1, 4):
            dets = tmp_path / f"dets_{workers}.json"
            assert run_cli("run", "--annotations", scene, "--out", dets, "--workers", workers, *run_args) == 0
            assert hashlib.sha256(dets.read_bytes()).hexdigest() == digest

    def test_exec_adapter(self, scene_file, tmp_path):
        script = tmp_path / "null_detector.py"
        script.write_text(
            "import json, sys\n"
            "manifest = json.load(open(sys.argv[1]))\n"
            "json.dump([], open(sys.argv[2], 'w'))\n"
        )
        out = tmp_path / "dets.json"
        code = run_cli(
            "run", "--annotations", scene_file, "--adapter", f"exec:{sys.executable} {script}",
            "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text()) == []


    def test_exec_run_selecting_no_patch_starts_no_command(self, tmp_path):
        scene, started = tmp_path / "empty.json", tmp_path / "started"
        run_cli("synth", "--out", scene, "--objects", 0)
        script = tmp_path / "detector.py"
        script.write_text(f"open({str(started)!r}, 'w').close()\n")
        out = tmp_path / "dets.json"
        code = run_cli("run", "--annotations", scene, "--adapter", f"exec:{sys.executable} {script}", "--out", out)
        assert code == 0 and json.loads(out.read_text()) == []
        assert not started.exists()

    def test_an_exec_box_lifted_to_no_size_is_dropped(self, scene_file, tmp_path):
        # Patch 0 is a tiny cell about 1958 px wide, so at this standard
        # size its zoom is above 2 and the 5e-324 frame width lifts to 0.
        rows = [
            {"patch_id": 0, "bbox": [100, 100, 50, 50], "score": 0.9},
            {"patch_id": 0, "bbox": [0, 10, 5e-324, 20], "score": 0.8},
        ]
        script = tmp_path / "tiny_detector.py"
        script.write_text(f"import json, sys\njson.dump({rows!r}, open(sys.argv[2], 'w'))\n")
        out = tmp_path / "dets.json"
        assert run_cli(
            "run", "--annotations", scene_file, "--out", out, "--standard-size", "4000x2300",
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 0
        assert [row["score"] for row in json.loads(out.read_text())] == [0.9]

    def test_seed_is_a_noisy_adapter_flag_not_a_config_key(self, scene_file, tmp_path, capsys):
        plain, seeded, cfg = tmp_path / "plain.json", tmp_path / "seeded.json", tmp_path / "effective.cfg"
        assert run_cli("run", "--annotations", scene_file, "--out", plain) == 0
        assert run_cli("run", "--annotations", scene_file, "--out", seeded, "--seed", 7, "--dump-config", cfg) == 0
        assert seeded.read_bytes() == plain.read_bytes()  # the oracle ignores --seed
        assert [line.split("=")[0] for line in cfg.read_text().splitlines()] == [
            "downsample", "boundaries", "grids", "threshold", "expansion", "nms_iou", "standard_size", "workers"
        ]
        cfg.write_text("seed=1\n")
        capsys.readouterr()
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json", "--config", cfg) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err
        for command in ("density", "saccade"):
            with pytest.raises(SystemExit) as err:
                main([command, "--annotations", str(scene_file), "--out", str(tmp_path / "x"), "--seed", "1"])
            assert err.value.code == 2

    def test_oracle_exec_fixture_detections_pinned(self, tmp_path):
        # The fixture answers like the oracle with unclipped frame boxes; the
        # adapter's clip brings them to the oracle's detections file.
        scene = tmp_path / "scene.json"
        assert run_cli("synth", "--out", scene) == 0
        dets = tmp_path / "dets.json"
        command = shlex.join([sys.executable, str(FIXTURES / "oracle_exec.py"), str(scene)])
        assert run_cli("run", "--annotations", scene, "--out", dets, "--adapter", f"exec:{command}") == 0
        assert (
            hashlib.sha256(dets.read_bytes()).hexdigest()
            == "e79d2c7082f2bf5a0bbb1855e63ef27f51f580cdf616e6acb397b7aa44859329"
        )


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("run", "--annotations", tmp_path / "nope.json",
                       "--out", tmp_path / "d.json") == 3

    def test_bad_config_value_is_config_error(self, scene_file, tmp_path):
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json",
                       "--threshold", -1.0) == 2

    @pytest.mark.parametrize("flag, value", [("--boundaries", "a,b,c"), ("--grids", "16,8,4,x")])
    def test_bad_list_flag_is_config_error(self, scene_file, tmp_path, flag, value):
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json",
                       flag, value) == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("run", "--expansion", "inf"),
            ("run", "--threshold", "nan"),
            ("run", "--downsample", "nan"),
            ("synth", "--max-side", "inf"),
            ("synth", "--max-side", "nan"),
            ("synth", "--min-side", "nan"),
        ],
    )
    def test_non_finite_value_is_config_error(self, scene_file, tmp_path, command, flag, value):
        out = tmp_path / "out.json"
        args = ["--annotations", scene_file] if command == "run" else []
        assert run_cli(command, *args, "--out", out, flag, value) == 2
        assert not out.exists()

    def test_unknown_adapter_is_config_error(self, scene_file, tmp_path):
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json",
                       "--adapter", "telepathy") == 2

    def test_failing_exec_adapter_is_adapter_error(self, scene_file, tmp_path):
        script = tmp_path / "broken.py"
        script.write_text("import sys; sys.exit(9)\n")
        assert run_cli(
            "run", "--annotations", scene_file, "--out", tmp_path / "d.json",
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 4

    def test_missing_exec_command_is_adapter_error(self, scene_file, tmp_path, capsys):
        assert run_cli(
            "run", "--annotations", scene_file, "--out", tmp_path / "d.json",
            "--adapter", "exec:/nonexistent/detector",
        ) == 4
        assert "adapter error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_exec_box_is_adapter_error(self, scene_file, tmp_path, value):
        script = tmp_path / "nan_detector.py"
        script.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write("
            f"'[{{\"patch_id\": 0, \"bbox\": [{value}, 0, 10, 10], \"score\": 0.9}}]')\n"
        )
        assert run_cli(
            "run", "--annotations", scene_file, "--out", tmp_path / "d.json",
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 4

    @pytest.mark.parametrize(
        "output", ["{}", '""', '{"patch_id": 0}', "null", "5"],
        ids=["empty_object", "empty_string", "object", "null", "number"],
    )
    def test_non_list_exec_output_is_adapter_error(self, scene_file, tmp_path, capsys, output):
        script = tmp_path / "detector.py"
        script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({output!r})\n")
        out = tmp_path / "d.json"
        assert run_cli(
            "run", "--annotations", scene_file, "--out", out,
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 4
        assert "external detector output must hold a JSON list" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_score_on_a_box_outside_the_content_is_adapter_error(self, scene_file, tmp_path, capsys):
        # The box lies wholly left of the patch content, so a clip alone would drop it.
        row = {"patch_id": 0, "bbox": [-50, 0, 10, 10], "score": 7.5}
        script = tmp_path / "detector.py"
        script.write_text(f"import json, sys\njson.dump([{row!r}], open(sys.argv[2], 'w'))\n")
        assert run_cli(
            "run", "--annotations", scene_file, "--out", tmp_path / "d.json",
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 4
        err = capsys.readouterr().err
        assert "malformed detection row 0 " in err
        assert "score 7.5 is outside [0, 1]" in err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("run", ("--adapter", "noisy", "--jitter", -1)),
            ("run", ("--adapter", "noisy", "--miss-rate", 2)),
            ("run", ("--adapter", "noisy", "--fp-rate", -1)),
            ("run", ("--adapter", "exec:")),
            ("bench", ("--cost-per-pixel", -1)),
            ("run", ("--adapter", "noisy", "--jitter", "nan")),
            ("run", ("--adapter", "noisy", "--jitter", "inf")),
            ("run", ("--adapter", "noisy", "--miss-rate", "nan")),
            ("run", ("--adapter", "noisy", "--fp-rate", "nan")),
            ("run", ("--adapter", "noisy", "--fp-rate", "inf")),
            ("bench", ("--cost-per-pixel", "nan")),
            ("bench", ("--cost-per-pixel", "inf")),
            ("run", ("--adapter", "noisy", "--seed", -1)),
        ],
        ids=[
            "jitter", "miss_rate", "fp_rate", "empty_exec_command", "cost_per_pixel",
            "jitter_nan", "jitter_inf", "miss_rate_nan", "fp_rate_nan", "fp_rate_inf",
            "cost_per_pixel_nan", "cost_per_pixel_inf", "seed",
        ],
    )
    def test_bad_adapter_parameter_is_config_error(self, scene_file, tmp_path, capsys, command, flags):
        out = tmp_path / "out.json"
        assert run_cli(command, "--annotations", scene_file, "--out", out, *flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_out_of_range_score_in_eval_is_io_error(self, scene_file, tmp_path, capsys):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"bbox": [10.0, 10.0, 5.0, 5.0], "score": 1.7, "category": 0}]))
        assert run_cli("eval", "--detections", dets, "--annotations", scene_file) == 3
        assert "row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "eval", "stats"])
    @pytest.mark.parametrize(
        "entry",
        [{"bbox": [1, 2, 3, 4]}, [1, 2, 3, 4], {"id": 1, "bbox": [1, 2, 3]}],
        ids=["missing_id", "not_an_object", "three_value_bbox"],
    )
    def test_malformed_annotation_entry_is_io_error(self, tmp_path, capsys, command, entry):
        scene = tmp_path / "scene.json"
        good = {"id": 0, "bbox": [10.0, 10.0, 5.0, 5.0]}
        scene.write_text(json.dumps({"scene": {"width": 100, "height": 100}, "annotations": [good, entry]}))
        dets = tmp_path / "dets.json"
        dets.write_text("[]")
        args = {
            "run": ("--out", dets),
            "eval": ("--detections", dets),
            "stats": (),
        }[command]
        assert run_cli(command, "--annotations", scene, *args) == 3
        assert "annotation entry 1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scene_doc, rows, message",
        [
            ({"width": 100, "height": 100}, [{"id": 3.7, "bbox": [1, 1, 2, 2]}],
             "annotation entry 1: id must be an integer, got 3.7"),
            ({"width": 100, "height": 100}, [{"id": True, "bbox": [1, 1, 2, 2]}],
             "annotation entry 1: id must be an integer, got True"),
            ({"width": 100, "height": 100}, [{"id": 1, "bbox": [1, 1, 2, 2], "category": "7"}],
             "annotation entry 1: category must be an integer, got '7'"),
            ({"width": 1000.9, "height": 100}, [], "width must be an integer, got 1000.9"),
        ],
        ids=["fractional_id", "boolean_id", "string_category", "fractional_width"],
    )
    def test_non_integer_scene_field_is_io_error(self, tmp_path, capsys, scene_doc, rows, message):
        scene = tmp_path / "scene.json"
        good = {"id": 0, "bbox": [10.0, 10.0, 5.0, 5.0]}
        scene.write_text(json.dumps({"scene": scene_doc, "annotations": [good, *rows]}))
        assert run_cli("stats", "--annotations", scene) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("category", [2.5, "7", True])
    def test_non_integer_detection_category_is_io_error(self, scene_file, tmp_path, capsys, category):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"bbox": [10.0, 10.0, 5.0, 5.0], "score": 0.5, "category": category}]))
        assert run_cli("eval", "--detections", dets, "--annotations", scene_file) == 3
        assert f"detection row 0: category must be an integer, got {category!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("patch_id", 0.9), ("patch_id", "0"), ("category", True)])
    def test_non_integer_exec_field_is_adapter_error(self, scene_file, tmp_path, capsys, field, value):
        row = {"patch_id": 0, "bbox": [0, 0, 10, 10], "score": 0.9, field: value}
        script = tmp_path / "detector.py"
        script.write_text(f"import json, sys\njson.dump([{row!r}], open(sys.argv[2], 'w'))\n")
        assert run_cli(
            "run", "--annotations", scene_file, "--out", tmp_path / "d.json",
            "--adapter", f"exec:{sys.executable} {script}",
        ) == 4
        assert "malformed detection row 0 " in capsys.readouterr().err

    # Box values, scores and the scene size are JSON numbers: a string or a
    # boolean is refused, and so is an integer beyond float range.
    @pytest.mark.parametrize("command", ["stats", "eval"])
    @pytest.mark.parametrize(
        "bbox, message",
        [
            (["10", True, "5e0", 7], "bbox value must be a number, got '10'"),
            ([10, True, 5, 7], "bbox value must be a number, got True"),
            ([10, 10, BIG, 7], f"bbox value {BIG} is outside float range"),
        ],
        ids=["strings", "boolean", "beyond_float"],
    )
    def test_non_number_scene_box_value_is_io_error(self, tmp_path, capsys, command, bbox, message):
        scene = tmp_path / "scene.json"
        rows = [{"id": 0, "bbox": [10.0, 10.0, 5.0, 5.0]}, {"id": 1, "bbox": bbox}]
        scene.write_text(json.dumps({"scene": {"width": 100, "height": 100}, "annotations": rows}))
        dets = tmp_path / "dets.json"
        dets.write_text("[]")
        args = ("--detections", dets) if command == "eval" else ()
        assert run_cli(command, "--annotations", scene, *args) == 3
        assert f"annotation entry 1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "run"])
    def test_scene_size_beyond_float_is_io_error(self, tmp_path, capsys, command):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"scene": {"width": BIG, "height": 100}, "annotations": []}))
        out = tmp_path / "d.json"
        args = ("--out", out) if command == "run" else ()
        assert run_cli(command, "--annotations", scene, *args) == 3
        assert "SceneExtent must be positive and fit a float" in capsys.readouterr().err
        assert not out.exists()

    NON_NUMBER_ROWS = [
        ({"bbox": [10.0, 10.0, 5.0, 5.0], "score": "0.5"}, "score must be a number, got '0.5'"),
        ({"bbox": [10.0, 10.0, 5.0, 5.0], "score": True}, "score must be a number, got True"),
        ({"bbox": [10.0, 10.0, 5.0, 5.0], "score": BIG}, f"score {BIG} is outside float range"),
        ({"bbox": [10.0, "10", 5.0, 5.0], "score": 0.5}, "bbox value must be a number, got '10'"),
        ({"bbox": [10.0, 10.0, BIG, 5.0], "score": 0.5}, f"bbox value {BIG} is outside float range"),
    ]
    NON_NUMBER_IDS = ["string_score", "boolean_score", "score_beyond_float", "string_box", "box_beyond_float"]

    @pytest.mark.parametrize("row, message", NON_NUMBER_ROWS, ids=NON_NUMBER_IDS)
    def test_non_number_detection_value_is_io_error(self, scene_file, tmp_path, capsys, row, message):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([row]))
        assert run_cli("eval", "--detections", dets, "--annotations", scene_file) == 3
        assert f"detection row 0: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", NON_NUMBER_ROWS, ids=NON_NUMBER_IDS)
    def test_non_number_exec_value_is_adapter_error(self, scene_file, tmp_path, capsys, row, message):
        row = {"patch_id": 0, **row}
        script = tmp_path / "detector.py"
        script.write_text(f"import json, sys\njson.dump([{row!r}], open(sys.argv[2], 'w'))\n")
        out = tmp_path / "d.json"
        assert run_cli(
            "run", "--annotations", scene_file, "--out", out, "--adapter", f"exec:{sys.executable} {script}",
        ) == 4
        err = capsys.readouterr().err
        assert "malformed detection row 0 " in err and message in err
        assert not out.exists()

    # Categories are kept in int64 columns; one just outside either end is
    # rejected where it is parsed, with the exit code of its input.
    @pytest.mark.parametrize("category", [2**70, 2**63, -(2**63) - 1])
    def test_category_outside_int64_in_a_scene_is_io_error(self, tmp_path, capsys, category):
        scene = tmp_path / "scene.json"
        rows = [{"id": 0, "bbox": [10.0, 10.0, 5.0, 5.0]},
                {"id": 1, "bbox": [40.0, 40.0, 5.0, 5.0], "category": category}]
        scene.write_text(json.dumps({"scene": {"width": 100, "height": 100}, "annotations": rows}))
        assert run_cli("run", "--annotations", scene, "--out", tmp_path / "d.json") == 3
        assert f"annotation entry 1: category {category} is outside int64" in capsys.readouterr().err

    @pytest.mark.parametrize("category", [2**70, 2**63, -(2**63) - 1])
    def test_category_outside_int64_in_a_detections_file_is_io_error(self, scene_file, tmp_path, capsys, category):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"bbox": [10.0, 10.0, 5.0, 5.0], "score": 0.5, "category": category}]))
        assert run_cli("eval", "--detections", dets, "--annotations", scene_file) == 3
        assert f"detection row 0: category {category} is outside int64" in capsys.readouterr().err

    def test_category_outside_int64_from_an_exec_detector_is_adapter_error(self, scene_file, tmp_path, capsys):
        row = {"patch_id": 0, "bbox": [1, 1, 5, 5], "score": 0.5, "category": 2**70}
        script = tmp_path / "detector.py"
        script.write_text(f"import json, sys\njson.dump([{row!r}], open(sys.argv[2], 'w'))\n")
        out = tmp_path / "d.json"
        assert run_cli(
            "run", "--annotations", scene_file, "--out", out, "--adapter", f"exec:{sys.executable} {script}",
        ) == 4
        err = capsys.readouterr().err
        assert "malformed detection row 0 " in err and f"category {2**70} is outside int64" in err
        assert not out.exists()

    def test_int64_category_bounds_round_trip(self, tmp_path):
        scene = tmp_path / "scene.json"
        rows = [{"id": i, "bbox": [10.0 + 30 * i, 10.0, 5.0, 5.0], "category": c}
                for i, c in enumerate([2**63 - 1, -(2**63)])]
        scene.write_text(json.dumps({"scene": {"width": 100, "height": 100}, "annotations": rows}))
        dets = tmp_path / "d.json"
        assert run_cli("run", "--annotations", scene, "--out", dets, "--grids", "2,2,2,2", "--threshold", 0) == 0
        assert sorted(row["category"] for row in json.loads(dets.read_text())) == [-(2**63), 2**63 - 1]
        assert run_cli("eval", "--detections", dets, "--annotations", scene) == 0

    @pytest.mark.parametrize("flag, value", [("--grids", "2000,8,4,2"), ("--downsample", 20000)])
    def test_grid_finer_than_map_is_config_error(self, scene_file, tmp_path, capsys, flag, value):
        assert run_cli("run", "--annotations", scene_file, "--out", tmp_path / "d.json", flag, value) == 2
        assert "is finer than the" in capsys.readouterr().err

    def test_map_overrunning_the_scene_is_io_error(self, scene_file, tmp_path, capsys):
        dmap = tmp_path / "maps.dmap"
        assert run_cli("density", "--annotations", scene_file, "--out", dmap) == 0
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"scene": {"width": 1000, "height": 1000}, "annotations": []}))
        assert run_cli("run", "--annotations", small, "--density", dmap, "--out", tmp_path / "d.json") == 3
        assert "overruns the 1000x1000 scene" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "saccade"])
    def test_map_short_of_the_scene_is_io_error(self, tmp_path, capsys, command):
        # A map rendered for an 8192x8192 scene covers only the top-left
        # corner of the stock scene; selecting from it would miss the rest.
        corner, stock = tmp_path / "corner.json", tmp_path / "stock.json"
        rows = [{"id": i, "bbox": [1000.0 * i, 500.0, 60.0, 90.0], "category": 0} for i in range(8)]
        corner.write_text(json.dumps({"scene": {"width": 8192, "height": 8192}, "annotations": rows}))
        assert run_cli("synth", "--out", stock) == 0
        dmap = tmp_path / "corner.dmap"
        assert run_cli("density", "--annotations", corner, "--out", dmap) == 0
        capsys.readouterr()
        assert run_cli(command, "--annotations", stock, "--density", dmap, "--out", tmp_path / "o.json") == 3
        err = capsys.readouterr().err
        assert "256x256 map at downsample 32.0 falls short of the 26368x14976 scene" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["run", "saccade"])
    def test_the_stock_map_overruns_a_narrower_scene(self, tmp_path, capsys, command):
        # The stock scene's map has 824 columns; a 25000 px wide scene has 782.
        stock, narrow = tmp_path / "stock.json", tmp_path / "narrow.json"
        assert run_cli("synth", "--out", stock) == 0
        assert run_cli("synth", "--out", narrow, "--width", 25000) == 0
        dmap = tmp_path / "stock.dmap"
        assert run_cli("density", "--annotations", stock, "--out", dmap) == 0
        capsys.readouterr()
        assert run_cli(command, "--annotations", narrow, "--density", dmap, "--out", tmp_path / "o.json") == 3
        assert "824x468 map at downsample 32.0 overruns the 25000x14976 scene" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_corrupt_dmap_is_io_error(self, scene_file, tmp_path):
        bad = tmp_path / "bad.dmap"
        bad.write_bytes(b"XMAP" + b"\x00" * 64)
        assert run_cli("run", "--annotations", scene_file, "--density", bad,
                       "--out", tmp_path / "d.json") == 3

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--no-such-flag"])
        assert err.value.code == 2


class TestBenchCommand:
    def test_reports_three_runs(self, scene_file, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--annotations", scene_file, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert set(payload["runs"]) == {"saccade", "sw_256", "sw_64"}
        assert payload["runs"]["sw_256"]["patch_count"] == 256
        assert payload["runs"]["sw_64"]["patch_count"] == 64
        assert payload["ratios"]["sw_256_vs_saccade"] >= 6.0
        # Each run keeps its own budget ratio: the saccade run's is against
        # the 16x16 sliding window, and a sliding window has none.
        assert payload["runs"]["sw_256"]["budget_ratio"] is None
        assert payload["runs"]["saccade"]["budget_ratio"] == payload["ratios"]["sw_256_vs_saccade"]
        table = [line.split() for line in capsys.readouterr().out.split("\n")[:4]]
        assert table[0] == ["run", "patches", "pixels", "wall_s", "ratio_vs_saccade"]
        assert [row[0] for row in table[1:]] == ["saccade", "sw_256", "sw_64"]

    def test_infinite_ratio_is_written_as_null(self, scene_file, tmp_path, capsys):
        # No cell reaches the threshold, so the saccade run spends no pixels.
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--annotations", scene_file, "--threshold", "1e9", "--out", out) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["runs"]["saccade"]["pixels_processed"] == 0
        assert payload["ratios"] == {"sw_256_vs_saccade": None, "sw_64_vs_saccade": None}
        table = [line.split() for line in capsys.readouterr().out.split("\n")[1:4]]
        assert [row[-1] for row in table] == ["1.00", "inf", "inf"]

    def test_exec_adapter_runs_once_per_run(self, scene_file, tmp_path):
        calls = tmp_path / "calls.txt"
        script = tmp_path / "counting_detector.py"
        script.write_text(
            "import sys\n"
            f"open({str(calls)!r}, 'a').write('call\\n')\n"
            "open(sys.argv[2], 'w').write('[]')\n"
        )
        adapter = f"exec:{sys.executable} {script}"
        assert run_cli("bench", "--annotations", scene_file, "--adapter", adapter) == 0
        assert calls.read_text() == "call\n" * 3

    def test_a_repeated_grid_runs_once(self, scene_file, tmp_path, monkeypatch):
        grids = []

        def recording_run(extent, grid, *args, **kwargs):
            grids.append(grid)
            return sliding_window_run(extent, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "sliding_window_run", recording_run)
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--annotations", scene_file, "--grids", "16,16,4,2", "--out", out) == 0
        assert grids == [16]
        assert set(json.loads(out.read_text())["runs"]) == {"saccade", "sw_256"}

    def test_budgets_deterministic(self, scene_file, tmp_path):
        outs = []
        for name in ("b1.json", "b2.json"):
            out = tmp_path / name
            assert run_cli("bench", "--annotations", scene_file, "--out", out) == 0
            payload = json.loads(out.read_text())
            outs.append(
                {name: run["pixels_processed"] for name, run in payload["runs"].items()}
            )
        assert outs[0] == outs[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "scene.json"
        proc = subprocess.run(
            [sys.executable, "-m", "densegaze.cli", "synth", "--out", str(out),
             "--objects", "5", "--foreground", "0.025"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
