import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import envdiag
from envdiag import Dataset
from envdiag.cli import main
from envdiag.io import (
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RunConfig,
    _specs_from_config,
    load_csv,
    run_diagnose,
    run_power_study,
)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _null_lm_csv(path: Path, n=40, seed=0) -> str:
    rng = np.random.default_rng(seed)
    x = (np.arange(1, n + 1) - 0.5) / n
    y = -2 + 4 * x + 0.25 * rng.standard_normal(n)
    lines = ["y,x"] + [f"{float(yi)!r},{float(xi)!r}" for yi, xi in zip(y, x)]
    return _write(path, "\n".join(lines) + "\n")


def _mixture_poisson_csv(path: Path, n=80, seed=0) -> str:
    rng = np.random.default_rng(seed)
    x = (np.arange(1, n + 1) - 0.5) / n
    inflate = rng.random(n) < 0.1
    y = rng.poisson(np.exp(-2 + 4 * x) * np.where(inflate, 4.0, 1.0))
    lines = ["y,x"] + [f"{int(yi)},{float(xi)!r}" for yi, xi in zip(y, x)]
    return _write(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------------ #
# CSV loading
# ------------------------------------------------------------------ #


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path / "d.csv", "y,x\n1,0\n2,0.5\n3,1\n")
    d = load_csv(p, response="y")
    assert isinstance(d, Dataset)
    assert d.n == 3 and d.p == 2
    assert np.allclose(d.X[:, 0], 1.0)
    assert np.allclose(d.X[:, 1], [0.0, 0.5, 1.0])


def test_load_csv_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
    p = tmp_path / "d.csv"
    p.write_bytes(b"\xef\xbb\xbfy,x\n1,0\n2,0.5\n3,1\n")
    d = load_csv(str(p), response="y")
    assert np.array_equal(d.y, [1.0, 2.0, 3.0])
    assert np.array_equal(d.X[:, 1], [0.0, 0.5, 1.0])


def test_load_csv_non_numeric_cell_coordinates(tmp_path):
    p = _write(tmp_path / "d.csv", "y,x\n1,0\nNA,0.5\n3,1\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p, response="y")
    assert exc.value.row == 3
    assert exc.value.column == "y"


def test_load_csv_group_relabelling(tmp_path):
    p = _write(tmp_path / "d.csv",
               "y,x,site\n1,0,s1\n2,0.5,s2\n3,1,s1\n4,0.2,s2\n")
    d = load_csv(p, response="y", predictors=["x"], group="site")
    assert np.array_equal(d.group, [0, 1, 0, 1])


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path / "d.csv", "y,x\n1,0\n")
    with pytest.raises(MissingColumn):
        load_csv(p, response="z")


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path / "d.csv", "")
    with pytest.raises(EmptyFile):
        load_csv(p)
    p2 = _write(tmp_path / "d2.csv", "y,x\n")
    with pytest.raises(EmptyFile):
        load_csv(p2)


# ------------------------------------------------------------------ #
# diagnose pipeline
# ------------------------------------------------------------------ #


def test_run_diagnose_artifacts_and_determinism(tmp_path):
    data = _null_lm_csv(tmp_path / "d.csv")
    cfg = RunConfig(data=data, model="lm", B=49, seed=3,
                    out=str(tmp_path / "out1"))
    arts = run_diagnose(cfg)
    assert [a.kind for a in arts] == ["res_vs_fits", "qq"]
    for a in arts:
        assert Path(a.svg_path).exists() and Path(a.csv_path).exists()

    cfg2 = RunConfig(data=data, model="lm", B=49, seed=3,
                     out=str(tmp_path / "out2"))
    run_diagnose(cfg2)
    for kind in ("res_vs_fits", "qq"):
        a = (tmp_path / "out1" / f"{kind}.csv").read_bytes()
        b = (tmp_path / "out2" / f"{kind}.csv").read_bytes()
        assert a == b


def test_artifact_csv_band_ordering(tmp_path):
    data = _null_lm_csv(tmp_path / "d.csv")
    cfg = RunConfig(data=data, model="lm", B=49, seed=3, plots=["qq"],
                    out=str(tmp_path / "out"))
    run_diagnose(cfg)
    rows = (tmp_path / "out" / "qq.csv").read_text().strip().split("\n")
    assert rows[0] == "grid,observed,center,lower,upper"
    assert len(rows) == 41  # header + one row per residual
    for row in rows[1:]:
        _, _, center, lower, upper = map(float, row.split(","))
        assert lower <= center <= upper


def test_svg_well_formed_with_single_band(tmp_path):
    data = _null_lm_csv(tmp_path / "d.csv")
    cfg = RunConfig(data=data, model="lm", B=49, seed=3,
                    plots=["scale_location"], out=str(tmp_path / "out"))
    arts = run_diagnose(cfg)
    assert len(arts) == 1 and arts[0].kind == "scale_location"
    tree = ET.parse(arts[0].svg_path)
    ns = "{http://www.w3.org/2000/svg}"
    bands = [el for el in tree.iter() if el.get("class") == "envelope-band"]
    assert len(bands) == 1
    assert tree.getroot().tag == f"{ns}svg"


def test_overdispersed_counts_reject_on_qq(tmp_path):
    data = _mixture_poisson_csv(tmp_path / "d.csv")
    cfg = RunConfig(data=data, model="poisson", B=199, seed=0, plots=["qq"],
                    out=str(tmp_path / "out"))
    arts = run_diagnose(cfg)
    assert arts[0].reject
    rows = (tmp_path / "out" / "qq.csv").read_text().strip().split("\n")[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    above = vals[:, 1] > vals[:, 4]
    assert above.any()
    assert above[ -8: ].any()  # exceedances sit in the upper tail


def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch):
    data = _null_lm_csv(tmp_path / "d.csv")
    out = tmp_path / "out"
    cfg = RunConfig(data=data, model="lm", B=49, seed=3,
                    plots=["qq", "pp"], out=str(out))
    import envdiag.io as io_mod

    original = io_mod.render_diagnostic
    calls = {"n": 0}

    def explode(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic svg failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(io_mod, "render_diagnostic", explode)
    with pytest.raises(RuntimeError):
        run_diagnose(cfg)
    assert list(out.glob("*")) == [] or not any(out.iterdir())


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(data="x.csv", model="probit").validate()
    with pytest.raises(ValueError):
        RunConfig(data="x.csv", B=5).validate()
    with pytest.raises(ValueError):
        RunConfig(data="x.csv", alpha=1.5).validate()
    with pytest.raises(ValueError, match="seed"):
        RunConfig(data="x.csv", seed=-1).validate()
    with pytest.raises(ValueError):
        RunConfig.from_dict({"data": "x.csv", "nope": 1})


# ------------------------------------------------------------------ #
# power study files
# ------------------------------------------------------------------ #


def test_power_study_single_cell(tmp_path):
    cfg = {
        "scenarios": [{"model": "lm", "violation": "null", "n": 20}],
        "n_datasets": 50,
        "B": 49,
        "seed": 2,
    }
    csv_path, manifest_path = run_power_study(cfg, str(tmp_path / "out"))
    lines = Path(csv_path).read_text().strip().split("\n")
    assert len(lines) == 6  # header + five methods
    for row in lines[1:]:
        rate = float(row.split(",")[4])
        assert rate <= 0.2
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["config"]["seed"] == 2
    assert manifest["scenarios"][0]["n_failed"] == 0

    # rerun resolves to identical bytes
    csv2, _ = run_power_study(cfg, str(tmp_path / "out2"))
    assert Path(csv_path).read_bytes() == Path(csv2).read_bytes()


def test_power_study_grid_row_count(tmp_path):
    cfg = {
        "models": ["lm"],
        "violations": ["null", "quadratic"],
        "sample_sizes": [10],
        "n_datasets": 4,
        "B": 39,
        "seed": 0,
    }
    csv_path, _ = run_power_study(cfg, str(tmp_path / "out"))
    lines = Path(csv_path).read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 5


def test_shipped_power_study_presets_build():
    """Every JSON preset in scripts/ is a valid nine-scenario grid."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    presets = sorted(scripts.glob("*.json"))
    assert presets
    for path in presets:
        specs = _specs_from_config(json.loads(path.read_text()))
        assert len({(s.model, s.violation) for s in specs}) == 9, path.name


# ------------------------------------------------------------------ #
# command line
# ------------------------------------------------------------------ #


def test_cli_fit_prints_summary(tmp_path, capsys):
    data = _null_lm_csv(tmp_path / "d.csv")
    rc = main(["fit", "--data", data, "--model", "lm"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["model"] == "lm"
    assert len(out["beta"]) == 2
    assert "sigma" in out


def test_cli_diagnose_roundtrip(tmp_path, capsys):
    data = _null_lm_csv(tmp_path / "d.csv")
    cfg_path = _write(
        tmp_path / "cfg.json",
        json.dumps({"data": data, "model": "lm", "B": 49, "seed": 1,
                    "out": str(tmp_path / "o1")}),
    )
    rc = main(["diagnose", "--config", cfg_path])
    assert rc == 0
    assert (tmp_path / "o1" / "qq.svg").exists()

    # flags override config fields
    rc = main(["diagnose", "--config", cfg_path, "--plots", "pp",
               "--out", str(tmp_path / "o2")])
    assert rc == 0
    assert (tmp_path / "o2" / "pp.svg").exists()
    assert not (tmp_path / "o2" / "qq.svg").exists()


def test_cli_exit_zero_even_when_rejecting(tmp_path, capsys):
    data = _mixture_poisson_csv(tmp_path / "d.csv")
    rc = main(["diagnose", "--data", data, "--model", "poisson",
               "--plots", "qq", "--B", "99", "--seed", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "reject" in capsys.readouterr().out


def test_cli_error_paths(tmp_path, capsys):
    rc = main(["diagnose", "--data", str(tmp_path / "missing.csv"),
               "--model", "lm", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_power_study(tmp_path, capsys):
    cfg_path = _write(
        tmp_path / "grid.json",
        json.dumps({
            "scenarios": [{"model": "lm", "violation": "null", "n": 10}],
            "n_datasets": 3,
            "B": 39,
        }),
    )
    rc = main(["power-study", "--config", cfg_path,
               "--out", str(tmp_path / "pow"), "--seed", "5"])
    assert rc == 0
    manifest = json.loads((tmp_path / "pow" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert (tmp_path / "pow" / "rates.csv").exists()


@pytest.mark.parametrize("cfg, named", [
    ({"scenarios": [{"model": "lmm", "violation": "null", "n": 10}]}, "'lmm'"),
    ({"models": ["lm"], "violations": ["null"]}, "'sample_sizes'"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10,
                     "bogus": 1}]}, "'bogus'"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10}],
      "m_grid": 0}, "m_grid"),
    ([1, 2], "must be a JSON object"),
    ({"scenarios": ["lm"]}, "scenario 0 is not an object"),
    ({"scenarios": {"model": "lm", "violation": "null", "n": 10}},
     "scenarios must be a list"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10}],
      "n_datasets": 2.7}, "bad n_datasets 2.7"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10}],
      "B": "39"}, "bad B '39'"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": "10"}]},
     "bad n '10' in scenario 0"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10}],
      "B": 10, "alpha": 0.1}, "B must be at least 19"),
    ({"scenarios": [{"model": "lm", "violation": "null", "n": 10}],
      "seed": -3}, "seed must be non-negative"),
], ids=["unknown-model", "missing-sample-sizes", "unknown-field", "m-grid-0",
        "top-level-list", "scenario-not-object", "scenarios-not-list",
        "n_datasets-float", "B-string", "n-string", "B-below-19",
        "seed-negative"])
def test_cli_power_study_malformed_config(tmp_path, capsys, cfg, named):
    cfg_path = _write(tmp_path / "grid.json", json.dumps(cfg))
    rc = main(["power-study", "--config", cfg_path,
               "--out", str(tmp_path / "pow")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("envdiag: error:") and named in err, err
    assert not (tmp_path / "pow").exists()


@pytest.mark.parametrize("cfg, named", [
    ({"data": "d.csv", "B": "199"}, "bad B '199'"),
    (["data"], "config must be a JSON object"),
    ({"data": "d.csv", "plots": "qq"}, "bad plots 'qq'"),
    ({"data": "d.csv", "seed": -1}, "seed must be non-negative"),
    ({"data": "d.csv", "B": 19}, "no rejection achievable"),
    ({"data": "d.csv", "plots": []}, "plots must name at least one"),
    ({"data": "d.csv", "plots": ["qq", "pp", "qq"]}, "plots names 'qq' twice"),
], ids=["B-string", "top-level-list", "plots-string", "seed-negative",
        "B-19-at-alpha-0.05", "plots-empty", "plots-repeated"])
def test_cli_diagnose_malformed_config(tmp_path, capsys, cfg, named):
    cfg_path = _write(tmp_path / "cfg.json", json.dumps(cfg))
    rc = main(["diagnose", "--config", cfg_path,
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("envdiag: error:") and named in err, err
    assert not (tmp_path / "out").exists()


def test_cli_fit_ragged_row(tmp_path, capsys):
    # the short row is on line 4 of the file, after a blank line
    data = _write(tmp_path / "d.csv", "y,x\n1,2\n\n3\n4,5\n6,7\n")
    rc = main(["fit", "--data", data, "--model", "lm"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("envdiag: error:") and "row 4 " in err, err


def test_cli_fit_long_row(tmp_path, capsys):
    # a row with more cells than the header is not truncated silently
    data = _write(tmp_path / "d.csv", "y,x\n1,2\n3,4,9\n5,6\n")
    rc = main(["fit", "--data", data, "--model", "lm"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("envdiag: error:") and "row 3 " in err, err
    assert "has 3 cells but the header has 2" in err, err


def _assert_exit_contract(prefix: list[str], tmp_path: Path) -> None:
    """Run ``prefix`` + arguments as a process importing this ``envdiag``.

    ``fit`` exits 0 with a JSON summary; a missing data file exits 1.
    """
    package_root = str(Path(envdiag.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )

    def run(*args):
        return subprocess.run([*prefix, *args], capture_output=True,
                              text=True, env=env, cwd=tmp_path)

    data = _null_lm_csv(tmp_path / "d.csv")
    proc = run("fit", "--data", data, "--model", "lm")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["model"] == "lm", proc.stderr

    proc = run("fit", "--data", str(tmp_path / "missing.csv"), "--model", "lm")
    assert proc.returncode == 1, proc.stderr
    assert "envdiag: error:" in proc.stderr, proc.stderr


def _declared_console_script(name: str) -> tuple[str, str]:
    """(module, function) of ``name`` in this checkout's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"no [project.scripts] entry {name!r} in {pyproject}"
    module, _, func = scripts[name].partition(":")
    well_formed = func.isidentifier() and all(
        part.isidentifier() for part in module.split(".")
    )
    assert well_formed, f"{name} = {scripts[name]!r} is not module:function"
    return module, func


def test_console_script_installed(tmp_path):
    """The declared ``envdiag`` console script runs as its own process.

    Rather than whatever ``envdiag`` is on PATH, this runs the launcher an
    installer generates from this checkout's ``pyproject.toml`` entry,
    importing the same ``envdiag`` package as the test process.
    """
    module, func = _declared_console_script("envdiag")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "envdiag"
    launcher.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n",
        encoding="utf-8",
    )
    _assert_exit_contract([sys.executable, str(launcher)], tmp_path)


def test_python_dash_m_runs_cli(tmp_path):
    """``python -m envdiag`` runs the same command line as its own process."""
    _assert_exit_contract([sys.executable, "-m", "envdiag"], tmp_path)


def test_cli_random_intercept_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    n = 20
    x = (np.arange(1, n + 1) - 0.5) / n
    eps = rng.normal(0, 1, 5)
    y = rng.poisson(np.exp(-1 + 2 * x + eps[np.arange(n) % 5]))
    sites = [f"s{i % 5}" for i in range(n)]
    lines = ["y,x,site"] + [
        f"{int(a)},{float(b)!r},{s}" for a, b, s in zip(y, x, sites)
    ]
    data = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")

    rc = main(["fit", "--data", data, "--model", "poisson-ri",
               "--group", "site"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["model"] == "poisson-ri"
    assert "omega" in summary and "boundary_omega" in summary

    rc = main(["diagnose", "--data", data, "--model", "poisson-ri",
               "--group", "site", "--plots", "qq", "--B", "49",
               "--seed", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "qq.svg").exists()
