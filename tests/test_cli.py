"""Command line surface: ingestion, config precedence, exit codes, artifacts."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hklearn
from hklearn.cli import (
    DEFAULTS,
    build_parser,
    ingest_dataset,
    ingest_kernel_matrix,
    main,
    standardize_columns,
)
from hklearn.data import fixture_path
from hklearn.errors import FormatError, InvalidInput


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_blobs(path, m=12, seed=0):
    """Two well separated gaussian blobs with +-1 labels, as a labeled csv."""
    rng = np.random.default_rng(seed)
    half = m // 2
    X = np.vstack(
        [
            rng.normal(0.0, 0.4, size=(half, 2)),
            rng.normal(3.0, 0.4, size=(m - half, 2)),
        ]
    )
    labels = [1.0] * half + [-1.0] * (m - half)
    lines = [
        f"{float(x[0])!r},{float(x[1])!r},{lab!r}" for x, lab in zip(X, labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path), X, np.array(labels)


# ---------------------------------------------------------------- ingestion


def test_csv_ingest_reads_features_and_labels(tmp_path):
    p = _write(tmp_path / "d.csv", "0.0,1.0,1\n1.0,0.0,-1\n0.5,0.5,1\n")
    X, labels = ingest_dataset(p, "csv", labeled=True, standardize=False)
    np.testing.assert_array_equal(X, [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(labels, [1.0, -1.0, 1.0])


def test_csv_ingest_skips_blank_lines(tmp_path):
    p = _write(tmp_path / "d.csv", "\n1.0,2.0,1\n\n3.0,4.0,-1\n  ,  \n")
    X, labels = ingest_dataset(p, "csv", labeled=True, standardize=False)
    assert X.shape == (2, 2)
    np.testing.assert_array_equal(labels, [1.0, -1.0])


def test_unlabeled_csv_returns_none_labels(tmp_path):
    p = _write(tmp_path / "d.csv", "1.0,2.0\n3.0,4.0\n")
    X, labels = ingest_dataset(p, "csv", labeled=False, standardize=False)
    assert X.shape == (2, 2)
    assert labels is None


def test_ragged_csv_reports_offending_line(tmp_path):
    p = _write(tmp_path / "d.csv", "1,2,3\n1,2\n4,5,6\n")
    with pytest.raises(FormatError, match=r":2: expected 3 columns, found 2"):
        ingest_dataset(p, "csv")


def test_non_numeric_cell_rejected_with_location(tmp_path):
    p = _write(tmp_path / "d.csv", "1.0,2.0,1\n1.0,abc,-1\n")
    with pytest.raises(FormatError, match=r":2: .*'abc'"):
        ingest_dataset(p, "csv")


def test_empty_dataset_rejected(tmp_path):
    p = _write(tmp_path / "d.csv", "\n\n")
    with pytest.raises(FormatError, match="empty"):
        ingest_dataset(p, "csv")


def test_single_column_labeled_csv_rejected(tmp_path):
    p = _write(tmp_path / "d.csv", "1.0\n2.0\n")
    with pytest.raises(FormatError, match="at least 2 columns"):
        ingest_dataset(p, "csv")


def test_unknown_format_rejected(tmp_path):
    p = _write(tmp_path / "d.csv", "1.0,2.0,1\n")
    with pytest.raises(InvalidInput, match="tsv"):
        ingest_dataset(p, "tsv")


def test_libsvm_pads_to_largest_index(tmp_path):
    p = _write(tmp_path / "d.svm", "1 2:0.5\n-1 1:1.0 3:2.0\n")
    X, labels = ingest_dataset(p, "libsvm", standardize=False)
    np.testing.assert_array_equal(X, [[0.0, 0.5, 0.0], [1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(labels, [1.0, -1.0])


def test_libsvm_matches_reference_parser(tmp_path):
    # cross-check the sparse reader on a generated 20 line file against a
    # second, independently written parser
    rng = np.random.default_rng(7)
    lines = []
    for _ in range(20):
        label = rng.choice([-1, 1])
        feats = [
            f"{idx}:{round(float(rng.normal()), 3)}"
            for idx in range(1, 7)
            if rng.random() < 0.5
        ]
        lines.append(" ".join([str(label)] + feats))
    text = "\n".join(lines) + "\n"
    p = _write(tmp_path / "d.svm", text)

    def reference(raw):
        rows, labs, width = [], [], 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            head, *feats = line.split()
            labs.append(float(head))
            entries = {}
            for feat in feats:
                idx, val = feat.split(":")
                entries[int(idx)] = float(val)
            if entries:
                width = max(width, max(entries))
            rows.append(entries)
        out = np.zeros((len(rows), width))
        for r, entries in enumerate(rows):
            for idx, val in entries.items():
                out[r, idx - 1] = val
        return out, np.array(labs)

    X, labels = ingest_dataset(p, "libsvm", standardize=False)
    X_ref, labels_ref = reference(text)
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(labels, labels_ref)


@pytest.mark.parametrize(
    "line,match",
    [
        ("1 2", "malformed feature"),
        ("1 x:0.5", "bad feature index"),
        ("1 0:0.5", "1-based"),
        ("1 2:abc", "non-numeric"),
    ],
)
def test_libsvm_malformed_lines_rejected(tmp_path, line, match):
    p = _write(tmp_path / "d.svm", line + "\n")
    with pytest.raises(FormatError, match=match):
        ingest_dataset(p, "libsvm")


def test_standardize_columns_centers_and_scales(rng):
    X = rng.normal(3.0, 2.5, size=(50, 4))
    Z = standardize_columns(X)
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_column_centers_only():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    Z = standardize_columns(X)
    np.testing.assert_array_equal(Z[:, 1], 0.0)


def test_kernel_matrix_roundtrip(tmp_path):
    p = _write(tmp_path / "k.csv", "1.0,0.3\n0.3,1.0\n")
    np.testing.assert_array_equal(
        ingest_kernel_matrix(p), [[1.0, 0.3], [0.3, 1.0]]
    )


def test_kernel_matrix_asymmetry_warns_and_symmetrizes(tmp_path):
    p = _write(tmp_path / "k.csv", "1.0,0.301\n0.3,1.0\n")
    with pytest.warns(UserWarning, match="symmetrizing"):
        K = ingest_kernel_matrix(p)
    np.testing.assert_allclose(K, [[1.0, 0.3005], [0.3005, 1.0]])


def test_kernel_matrix_must_be_square(tmp_path):
    p = _write(tmp_path / "k.csv", "1.0,0.3,0.2\n0.3,1.0,0.1\n")
    with pytest.raises(FormatError, match="square"):
        ingest_kernel_matrix(p)


def test_kernel_matrix_ragged_rows_rejected(tmp_path):
    p = _write(tmp_path / "k.csv", "1.0,0.3\n0.3\n")
    with pytest.raises(FormatError, match="unequal"):
        ingest_kernel_matrix(p)


# ------------------------------------------------------- runs and artifacts


def test_fit_writes_only_expected_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    code = main(
        ["fit", data, "--no-tune", "--seed", "0", "--output-dir", "out"]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out"]
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "model.json",
        "report.json",
        "timings.json",
    ]
    report = json.loads((out / "report.json").read_text())
    for key in (
        "command",
        "seed",
        "timestamp",
        "config",
        "rmse_heldout_pairs",
        "accuracy_test",
        "definiteness",
        "split_sizes",
    ):
        assert key in report
    assert report["command"] == "fit"
    assert report["split_sizes"] == [5, 5, 2]
    timings = json.loads((out / "timings.json").read_text())
    assert timings["wall_seconds"] >= 0.0


def test_fit_creates_nested_output_dir(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    out = tmp_path / "runs" / "a" / "b"
    assert main(["fit", data, "--no-tune", "--output-dir", str(out)]) == 0
    assert (out / "report.json").is_file()


def test_tuned_fit_writes_cv_score_table(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(
        tmp_path / "cfg.json",
        json.dumps({"sigma_h2_grid": [0.5, 1.0], "reg_grid": [1e-3, 1e-1]}),
    )
    out = tmp_path / "out"
    code = main(
        ["fit", data, "--config", config, "--output-dir", str(out)]
    )
    assert code == 0
    with open(out / "cv_scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma_h2_multiplier", "reg", "score"]
    assert len(rows) == 1 + 4  # full grid scored
    report = json.loads((out / "report.json").read_text())
    sel = report["selected_hyperparams"]
    assert sel["sigma_h2"] in (
        0.5 * sel["sigma2"],
        1.0 * sel["sigma2"],
    )
    assert sel["reg"] in (1e-3, 1e-1)


def test_tuned_fit_cross_validates_with_the_run_settings(tmp_path, monkeypatch):
    import hklearn.pipeline as pipeline

    real = pipeline.base_config
    calls = []

    def recording(method, hyperparams):
        calls.append(dict(hyperparams))
        return real(method, hyperparams)

    monkeypatch.setattr(pipeline, "base_config", recording)
    config = _write(
        tmp_path / "cfg.json",
        json.dumps({"sigma2": 2.0, "sigma_h2_grid": [0.5], "reg_grid": [1.0]}),
    )
    code = main(
        ["fit", str(fixture_path("two_moons.csv")), "--method", "svr",
         "--epsilon", "0.01", "--config", config,
         "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    assert len(calls) == 11  # 5 grid folds, 5 c_svm folds, the final fit
    for hp in calls:
        assert hp.get("epsilon") == 0.01
        assert hp["sigma2"] == 2.0
        assert hp["sigma_h2"] == 0.5 * 2.0


def test_flags_override_config_which_overrides_defaults(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(
        tmp_path / "cfg.json", json.dumps({"lambda": 0.5, "epsilon": 0.05})
    )
    out = tmp_path / "out"
    code = main(
        [
            "extend",
            data,
            "--config",
            config,
            "--lambda",
            "0.01",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    got = json.loads((out / "report.json").read_text())["config"]
    assert got["lambda"] == 0.01  # flag wins over the file
    assert got["epsilon"] == 0.05  # file wins over the default
    assert got["method"] == "krr"  # untouched default survives
    assert DEFAULTS["lambda"] == 1e-3  # the shared table is never mutated


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    texts = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert (
            main(["fit", data, "--no-tune", "--seed", "3",
                  "--output-dir", str(out)])
            == 0
        )
        raw = (out / "report.json").read_text()
        texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', raw))
    assert texts[0] == texts[1]
    assert (tmp_path / "run1" / "model.json").read_bytes() == (
        tmp_path / "run2" / "model.json"
    ).read_bytes()


def test_extend_then_eval_round_trip(tmp_path):
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=10)
    out1 = tmp_path / "extend"
    assert main(["extend", data, "--output-dir", str(out1)]) == 0
    extend_report = json.loads((out1 / "report.json").read_text())

    # the default target is the +-1 label agreement matrix; hand the same
    # matrix back through --kernel-matrix and the rmse must match exactly
    ideal = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    kpath = tmp_path / "ideal.csv"
    with open(kpath, "w", newline="") as fh:
        csv.writer(fh).writerows(ideal.tolist())
    out2 = tmp_path / "eval"
    code = main(
        [
            "eval",
            data,
            "--model",
            str(out1 / "model.json"),
            "--kernel-matrix",
            str(kpath),
            "--output-dir",
            str(out2),
        ]
    )
    assert code == 0
    eval_report = json.loads((out2 / "report.json").read_text())
    assert eval_report["rmse_pairs"] == extend_report["rmse_train_pairs"]
    assert eval_report["accuracy_training"] == 1.0


def test_svr_trace_artifact(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    out = tmp_path / "out"
    code = main(
        ["extend", data, "--method", "svr", "--trace",
         "--output-dir", str(out)]
    )
    assert code == 0
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "dual_objective", "kkt_violation"]
    assert len(rows) > 1


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "DATA", "--method", "krr"],
        ["fit", "DATA", "--no-tune", "--method", "krr"],
        ["extend", "DATA", "--method", "svr", "--clusters", "2"],
        ["fit", "DATA", "--no-tune", "--method", "svr", "--landmarks", "4"],
        ["decompose-demo", "DATA", "--method", "svr"],
        ["eval", "DATA", "--method", "svr"],
        ["rate-study", "--method", "svr"],
    ],
    ids=["extend-krr", "fit-krr", "extend-clusters", "fit-landmarks",
         "decompose-demo", "eval", "rate-study"],
)
def test_trace_on_a_run_without_trace_exits_2(tmp_path, capsys, argv):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    out = tmp_path / "out"
    argv = [data if a == "DATA" else a for a in argv]
    code = main(argv + ["--trace", "--output-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "trace" in err and err.count("\n") == 1
    assert not (out / "trace.csv").exists()


def test_rate_study_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "rate-study",
            "--m-values", "6", "10",
            "--trials", "3",
            "--noise-sigma", "0.0",
            "--rate-target", "planted",
            "--lambda", "1e-10",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    with open(out / "rate_study.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "median_error"]
    assert [r[0] for r in rows[1:]] == ["6", "10"]
    report = json.loads((out / "report.json").read_text())
    assert report["m_values"] == [6, 10]
    assert len(report["median_errors"]) == 2
    assert max(report["median_errors"]) <= 1e-4
    assert isinstance(report["loglog_slope"], float)


@pytest.mark.parametrize("method", ["krr", "svr"])
def test_decompose_demo_reports_bound_diagnostics(tmp_path, method):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    out = tmp_path / "out"
    code = main(
        ["decompose-demo", data, "--target", "rbf", "--clusters", "2",
         "--method", method, "--output-dir", str(out)]
    )
    assert code == 0
    diag = json.loads((out / "report.json").read_text())[
        "scaling_diagnostics"
    ]
    assert set(diag) == {"bound", "observed_gap", "q_pi", "sigma_min", "u", "v"}
    assert diag["v"] == 2
    assert diag["u"] == 8
    if method == "svr":
        # the deviation bound comes from the svr dual; inf serializes
        # as a string because json has no spelling for it
        assert isinstance(diag["bound"], float) or diag["bound"] == "inf"
    else:
        assert diag["bound"] is None
    assert diag["observed_gap"] >= 0.0


def test_clusters_alone_report_every_point_as_a_landmark(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    out = tmp_path / "out"
    code = main(
        ["extend", data, "--target", "rbf", "--clusters", "2",
         "--output-dir", str(out)]
    )
    assert code == 0
    diag = json.loads((out / "report.json").read_text())["scaling_diagnostics"]
    assert diag["u"] == 8
    assert diag["v"] == 2


# --------------------------------------------------------------- exit codes


def test_missing_config_file_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    code = main(["fit", data, "--config", str(tmp_path / "nope.json"),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(tmp_path / "cfg.json", json.dumps({"lamda": 1.0}))
    code = main(["fit", data, "--config", config,
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "lamda" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(tmp_path / "cfg.json", "{not json")
    code = main(["fit", data, "--config", config,
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_fit_without_dataset_exits_2(tmp_path, capsys):
    code = main(["fit", "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


def test_eval_without_model_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    code = main(["eval", data, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "--model" in capsys.readouterr().err


def test_kernel_matrix_size_mismatch_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=6)
    kpath = _write(tmp_path / "k.csv", "1.0,0.0\n0.0,1.0\n")
    code = main(["extend", data, "--kernel-matrix", kpath,
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["extend"], ["fit", "--no-tune"]], ids=["extend", "fit"]
)
def test_singular_solve_without_jitter_exits_3(tmp_path, capsys, command):
    # duplicate rows make the pair system exactly singular at lambda 0; with
    # four distinct points, the five labeled rows of fit hold a duplicate
    rows = ["0.0,0.0,1", "1.0,1.0,-1", "2.0,0.5,-1", "0.5,1.5,1"] * 3
    p = _write(tmp_path / "dup.csv", "\n".join(rows) + "\n")
    code = main(
        command + [
            p,
            "--method", "krr",
            "--lambda", "0.0",
            "--no-jitter",
            "--no-standardize",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_readme_config_keys_match_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config keys", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(DEFAULTS)


# RunManifest's inputs: every other flag sets a config key of DEFAULTS
MANIFEST_INPUTS = {
    "command", "dataset", "config", "kernel_matrix", "model", "format",
    "no_labels", "output_dir",
}


def test_every_flag_sets_a_config_key_or_a_manifest_input():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [parser, *sub.choices.values()]:
        for action in p._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.dest in DEFAULTS or action.dest in MANIFEST_INPUTS, (
                p.prog, action.option_strings, action.dest
            )


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    with pytest.raises(SystemExit) as exc:
        main(["fit", data, "--frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    # the child finds the package where this process imported it from
    src = str(Path(hklearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hklearn", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "extend" in proc.stdout
