import json

import numpy as np
import pytest

from craterid.cli import main
from craterid.index import load_index, save_catalog
from craterid.pipeline import load_detections, save_detections, synth_scene

from conftest import APOLLO_DX, PATCH_SCALE


@pytest.fixture()
def camera_file(tmp_path):
    path = tmp_path / "camera.txt"
    path.write_text(
        "# Apollo-metric-like camera\n"
        f"dx {APOLLO_DX}\ndy {APOLLO_DX}\nskew 0\nup 1099.5\nvp 1099.5\n"
        "rows 2200\ncols 2200\n"
    )
    return path


@pytest.fixture()
def catalog_file(tmp_path, patch_records):
    path = tmp_path / "catalog.csv"
    save_catalog(patch_records, path)
    return path


@pytest.fixture()
def index_file(tmp_path, catalog_file):
    out = tmp_path / "patch.idx"
    rc = main(
        [
            "build-index",
            "--catalog", str(catalog_file),
            "--out", str(out),
            "--scale", "patch",
            "--k", str(PATCH_SCALE.k),
            "--d-min", str(PATCH_SCALE.d_min),
            "--d-max", str(PATCH_SCALE.d_max),
            "--kind", "coplanar7",
            "--convention", "ordered",
        ]
    )
    assert rc == 0
    return out


def _attitude_arg(pose):
    return " ".join(str(v) for v in pose.t_mc.reshape(-1))


def test_build_index_cli(index_file):
    idx = load_index(index_file)
    assert len(idx) > 0
    assert idx.scale.descriptor_kind == "coplanar7"


def test_simulate_and_identify_cli(
    tmp_path, camera_file, catalog_file, index_file, capsys
):
    dets_file = tmp_path / "dets.csv"
    rc = main(
        [
            "simulate",
            "--catalog", str(catalog_file),
            "--camera", str(camera_file),
            "--lat", "12.0",
            "--lon", "40.0",
            "--altitude", "150.0",
            "--sigma-img", "0.2",
            "--seed", "5",
            "--out", str(dets_file),
        ]
    )
    assert rc == 0
    assert len(load_detections(dets_file)) >= 3

    # identify with the exact attitude the simulate command used (nadir at
    # the sub-point, roll from the azimuth-0 East up-hint)
    from craterid.camera import look_at_pose
    from craterid.crater3d import LUNAR_RADIUS_KM, crater_center

    sub = crater_center(np.deg2rad(12.0), np.deg2rad(40.0), 1.0)
    r_cam = (LUNAR_RADIUS_KM + 150.0) * sub
    e1 = np.cross([0.0, 0.0, 1.0], sub)
    e1 /= np.linalg.norm(e1)
    pose = look_at_pose(r_cam, np.zeros(3), up_hint=e1)
    report = tmp_path / "report.jsonl"
    capsys.readouterr()
    rc = main(
        [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", _attitude_arg(pose),
            "--index", str(index_file),
            "--catalog", str(catalog_file),
            "--sigma-img", "0.25",
            "--report", str(report),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["status"] == "matched"
    assert len(payload["correspondences"]) == 3
    assert payload["position_km"] is not None
    assert json.loads(report.read_text())["status"] == "matched"


def test_identify_no_match_exit_code(tmp_path, camera_file, catalog_file, index_file, capsys):
    # Detections that correspond to nothing: far-apart synthetic blobs.
    dets_file = tmp_path / "noise.csv"
    dets_file.write_text(
        "u_c,v_c,a_px,b_px,psi_rad\n"
        "200,200,40,30,0.1\n900,300,52,41,0.9\n500,1500,45,38,2.2\n1500,1500,60,47,1.4\n"
    )
    from craterid.camera import look_at_pose
    from craterid.crater3d import LUNAR_RADIUS_KM, crater_center

    r_cam = crater_center(np.deg2rad(12.0), np.deg2rad(40.0), LUNAR_RADIUS_KM + 150.0)
    pose = look_at_pose(r_cam, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))
    rc = main(
        [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", _attitude_arg(pose),
            "--index", str(index_file),
            "--catalog", str(catalog_file),
        ]
    )
    capsys.readouterr()
    assert rc == 2


def test_identify_insufficient_exit_code(tmp_path, camera_file, catalog_file, index_file, capsys):
    dets_file = tmp_path / "two.csv"
    dets_file.write_text("u_c,v_c,a_px,b_px,psi_rad\n200,200,40,30,0.1\n900,300,52,41,0.9\n")
    rc = main(
        [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", "0,0,0,1",
            "--index", str(index_file),
            "--catalog", str(catalog_file),
        ]
    )
    capsys.readouterr()
    assert rc == 3


def test_error_exit_code(tmp_path, capsys):
    rc = main(
        [
            "identify",
            "--detections", str(tmp_path / "missing.csv"),
            "--camera", str(tmp_path / "missing.txt"),
            "--attitude", "0,0,0,1",
            "--index", str(tmp_path / "missing.idx"),
            "--catalog", str(tmp_path / "missing.csv"),
        ]
    )
    capsys.readouterr()
    assert rc == 1


def test_quaternion_attitude_accepted(tmp_path, camera_file, catalog_file, index_file, capsys):
    dets_file = tmp_path / "two.csv"
    dets_file.write_text("u_c,v_c,a_px,b_px,psi_rad\n200,200,40,30,0.1\n")
    rc = main(
        [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", "0.0, 0.0, 0.7071067811865476, 0.7071067811865476",
            "--index", str(index_file),
            "--catalog", str(catalog_file),
        ]
    )
    capsys.readouterr()
    assert rc == 3  # parsed fine; one detection is insufficient


def _error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("attitude", ["1,0,0,0,1,0,0,0,-1", "foo"])
def test_identify_rejects_bad_attitude(
    tmp_path, camera_file, catalog_file, index_file, capsys, attitude
):
    dets_file = tmp_path / "noise.csv"
    dets_file.write_text(
        "u_c,v_c,a_px,b_px,psi_rad\n"
        "200,200,40,30,0.1\n900,300,52,41,0.9\n500,1500,45,38,2.2\n1500,1500,60,47,1.4\n"
    )
    rc = main(
        [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", attitude,
            "--index", str(index_file),
            "--catalog", str(catalog_file),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    (line,) = _error_lines(err)
    assert "attitude" in line


@pytest.mark.parametrize(
    "text, expected",
    [
        ("altitude_km 150\nnoise_px 0.5\n", ["trials"]),  # missing key
        ("trials 2.5\naltitude_km 150\nnoise_px 0.5\n", [":1:", "trials"]),  # bad value
        ("trails 2\ntrials 2\naltitude_km 150\nnoise_px 0.5\n", [":1:", "trails"]),
    ],
)
def test_montecarlo_bad_config(
    tmp_path, camera_file, catalog_file, index_file, capsys, text, expected
):
    cfg = tmp_path / "mc.txt"
    cfg.write_text(text)
    rc = main(
        [
            "montecarlo",
            "--catalog", str(catalog_file),
            "--camera", str(camera_file),
            "--index", str(index_file),
            "--config", str(cfg),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    (line,) = _error_lines(err)
    assert str(cfg) in line
    for part in expected:
        assert part in line


def test_montecarlo_cli(tmp_path, camera_file, catalog_file, index_file, capsys):
    cfg = tmp_path / "mc.txt"
    cfg.write_text("trials 2\naltitude_km 150\nnoise_px 0.0,0.5\nseed 3\n")
    report = tmp_path / "mc.jsonl"
    rc = main(
        [
            "montecarlo",
            "--catalog", str(catalog_file),
            "--camera", str(camera_file),
            "--index", str(index_file),
            "--config", str(cfg),
            "--report", str(report),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Correct" in out
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(rows) == 2
    assert all(r["trials"] == 2 for r in rows)


def test_metrics_selftest_cli(capsys):
    rc = main(["metrics-selftest", "--cases", "300", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_error_on_missing_custom_fields(tmp_path, catalog_file, capsys):
    rc = main(
        [
            "build-index",
            "--catalog", str(catalog_file),
            "--out", str(tmp_path / "x.idx"),
            "--scale", "weird",
        ]
    )
    capsys.readouterr()
    assert rc == 1


_NOISE_DETECTIONS = (
    "u_c,v_c,a_px,b_px,psi_rad\n"
    "200,200,40,30,0.1\n900,300,52,41,0.9\n500,1500,45,38,2.2\n1500,1500,60,47,1.4\n"
)


@pytest.mark.parametrize(
    "command, options, error",
    [
        ("build-index", ["--scale", "local", "--d-max", "0"], None),  # unbounded
        ("build-index", ["--scale", "local", "--k", "-1"], "resolution exponent"),
        ("build-index", ["--scale", "local", "--max-ellipticity", "0.5"], "max_ellipticity"),
        ("identify", ["--sigma-img", "0"], "sigma_img"),
        ("identify", ["--threshold", "-1"], "threshold"),
        ("identify", ["--n-candidates", "0"], "--n-candidates"),
    ],
)
def test_option_values_never_end_in_a_traceback(
    tmp_path, camera_file, catalog_file, index_file, capsys, command, options, error
):
    out = tmp_path / "out.idx"
    if command == "build-index":
        argv = ["build-index", "--catalog", str(catalog_file), "--out", str(out)]
    else:
        dets_file = tmp_path / "noise.csv"
        dets_file.write_text(_NOISE_DETECTIONS)
        argv = [
            "identify",
            "--detections", str(dets_file),
            "--camera", str(camera_file),
            "--attitude", "0,0,0,1",
            "--index", str(index_file),
            "--catalog", str(catalog_file),
        ]
    rc = main(argv + options)
    lines = _error_lines(capsys.readouterr().err)
    if error is None:
        assert (rc, lines) == (0, [])
        assert load_index(out).scale.d_max == np.inf
    else:
        assert rc == 1
        (line,) = lines
        assert error in line
