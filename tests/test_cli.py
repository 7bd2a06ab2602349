"""Command line surface: ingestion, config precedence, exit codes, artifacts."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hklearn
from hklearn.cli import (
    COMMANDS,
    DEFAULTS,
    SETTINGS,
    build_parser,
    ingest_dataset,
    ingest_kernel_matrix,
    main,
    standardize_columns,
)
from hklearn.data import fixture_path
from hklearn.errors import FormatError, InvalidInput
from hklearn.krr import KrrConfig
from hklearn.svr import SvrConfig


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


@pytest.mark.parametrize(
    "command, bad_file",
    [("extend", "kernel"), ("eval", "kernel"), ("eval", "data"), ("extend", "data")],
    ids=["extend-kernel-nan", "eval-kernel-nan", "eval-data-inf", "extend-data-inf"],
)
def test_non_finite_cell_exits_2_naming_file_and_line(
    tmp_path, capsys, command, bad_file
):
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=8)
    argv = [command]
    if bad_file == "kernel":
        ideal = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
        rows = [",".join(repr(v) for v in row) for row in ideal.tolist()]
        rows[1] = "nan," + rows[1].split(",", 1)[1]
        bad, line = _write(tmp_path / "k.csv", "\n".join(rows) + "\n"), 2
        argv += [data, "--kernel-matrix", bad]
    else:
        rows = Path(data).read_text().splitlines()
        rows[2] = "inf," + rows[2].split(",", 1)[1]
        bad, line = _write(tmp_path / "bad.csv", "\n".join(rows) + "\n"), 3
        argv += [bad]
    if command == "eval":
        fitted = tmp_path / "fitted"
        assert main(["extend", data, "--output-dir", str(fitted)]) == 0
        argv += ["--model", str(fitted / "model.json")]
    capsys.readouterr()
    code = main(argv + ["--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:{line}: non-finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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


def test_libsvm_file_that_is_not_utf8_rejected(tmp_path):
    p = tmp_path / "d.svm"
    p.write_bytes(b"1 1:0.5\n-1 2:\xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        ingest_dataset(p, "libsvm")


@pytest.mark.parametrize("index", [10**9, 10**13])
def test_libsvm_index_past_the_dense_cap_exits_2_naming_its_line(tmp_path, capsys, index):
    # 4 rows at index 1e9 would ask for 29.8 GiB of dense matrix, at 1e13 for 291 TiB
    p = _write(tmp_path / "d.svm", f"1 1:0.5\n-1 2:1.0\n1 {index}:1.0\n-1 1:2.0\n")
    with pytest.raises(FormatError, match=rf"d\.svm:3: feature index {index} would make a 4 x {index}"):
        ingest_dataset(p, "libsvm")
    capsys.readouterr()
    code = main(["extend", p, "--format", "libsvm", "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


def test_standardize_columns_centers_and_scales(rng):
    X = rng.normal(3.0, 2.5, size=(50, 4))
    Z = standardize_columns(X, "dataset")
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_column_centers_only():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    Z = standardize_columns(X, "dataset")
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
    with pytest.raises(FormatError, match=r"k\.csv:2: expected 2 columns, found 1$"):
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

    real = pipeline.solve_pair_system
    calls = []

    def recording(system, responses, base, trace_path=None):
        calls.append((system.params, base))
        return real(system, responses, base, trace_path=trace_path)

    monkeypatch.setattr(pipeline, "solve_pair_system", recording)
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
    assert len(calls) == 6  # 5 grid folds (the c_svm pass reuses them), the final fit
    for params, base in calls:
        assert base.epsilon == 0.01
        assert params.sigma2 == 2.0
        assert params.sigma_h2 == 0.5 * 2.0


def test_tuned_fit_on_zero_one_labels_matches_the_plus_minus_one_run(tmp_path):
    data = np.loadtxt(fixture_path("two_moons.csv"), delimiter=",")
    zero_one = data.copy()
    zero_one[:, -1] = (data[:, -1] > 0).astype(float)
    config = _write(
        tmp_path / "cfg.json",
        json.dumps({"sigma_h2_grid": [0.5, 1.0], "reg_grid": [1e-3, 1e-1]}),
    )
    runs = {}
    for name, rows in (("pm1", data), ("01", zero_one)):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        out = tmp_path / name
        assert main(["fit", str(path), "--config", config, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        del report["timestamp"]
        runs[name] = (report, (out / "cv_scores.csv").read_text())
    # the classes keep their order, so only the label values differ
    assert runs["01"] == runs["pm1"]


def _three_class_fit(tmp_path, name="out"):
    """A tuned fit of 45 points in three libsvm classes; returns (exit code, out)."""
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    lines = []
    for label, center in zip((1, 2, 3), centers):
        for x in rng.normal(center, 0.5, size=(15, 2)):
            lines.append(f"{label} 1:{float(x[0])!r} 2:{float(x[1])!r}")
    data = _write(tmp_path / "three.txt", "\n".join(lines) + "\n")
    config = _write(
        tmp_path / "cfg.json",
        json.dumps({"sigma_h2_grid": [0.5, 1.0], "reg_grid": [1e-3, 1e-1]}),
    )
    out = tmp_path / name
    code = main(["fit", data, "--format", "libsvm", "--config", config,
                 "--output-dir", str(out)])
    return code, out


def test_tuned_fit_classifies_three_libsvm_classes(tmp_path):
    code, out = _three_class_fit(tmp_path)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selected_hyperparams"]["score"] > 0.9
    assert report["accuracy_test"] > 0.5  # chance is 1/3


def test_three_classes_clip_each_training_gram_once(tmp_path, monkeypatch):
    import hklearn.pipeline as pipeline

    counts = {"eigh": 0, "clipped": 0, "svms": 0}
    real_eigh, real_clip, real_smo_svm = pipeline.eigh, pipeline._clip_spectrum, pipeline._smo_svm

    def counting_eigh(G):
        counts["eigh"] += 1
        counts["clipped"] += G.size // G.shape[-1] ** 2  # one or a stack of Grams
        return real_eigh(G)

    def run(name):
        counts.update(eigh=0, clipped=0, svms=0)
        code, out = _three_class_fit(tmp_path, name)
        assert code == 0
        return _fit_artifacts(out)[:2], dict(counts)

    monkeypatch.setattr(pipeline, "eigh", counting_eigh)
    once = run("once")
    # 2 sigma_h2 x 5 folds, each clipping its 2 regs' training Grams in one
    # eigh; then one Gram per fold in the c_svm pass, and the final fit's
    assert once[1]["eigh"] == 2 * 5 + 5 + 1
    assert once[1]["clipped"] == 2 * 5 * 2 + 5 + 1

    def per_class_clip(G, y, *args):
        # the former arithmetic: every per-class SVM clips the raw Gram itself
        counts["svms"] += 1
        return real_smo_svm(real_clip(G), y, *args)

    monkeypatch.setattr(pipeline, "_clip_spectrum", lambda G: G)
    monkeypatch.setattr(pipeline, "_smo_svm", per_class_clip)
    per_class = run("per_class")
    # three classes: an SVM per class for every (Gram, C) of the grid pass
    # (20), the c_svm pass (5 folds x 2 C) and the final fit
    assert per_class[1]["eigh"] == per_class[1]["svms"] == 3 * (20 + 10 + 1)
    assert once[0] == per_class[0]


def _fit_artifacts(out):
    report = json.loads((out / "report.json").read_text())
    del report["timestamp"]
    return report, (out / "cv_scores.csv").read_bytes(), (out / "model.json").read_bytes()


@pytest.mark.parametrize("method", ["krr", "svr"])
def test_a_tuned_fit_groups_the_pairs_of_each_system_once(tmp_path, monkeypatch, method):
    # each (sigma_h2, fold) system and the final fit group their pairs, with
    # their g and midpoints, once; the learned kernels evaluate over the
    # grouping of the system they were fit on
    import hklearn.hyper as hyper

    real, calls = hyper.pair_factors, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):  # wherever the package binds it
        if name.split(".")[0] == "hklearn" and getattr(module, "pair_factors", None) is real:
            monkeypatch.setattr(module, "pair_factors", counting)
    grid = {"sigma_h2_grid": [0.5, 2.0], "reg_grid": [1e-2, 1.0]}
    config = _write(tmp_path / "cfg.json", json.dumps(grid))
    assert main(["fit", str(fixture_path("two_moons.csv")), "--config", config,
                 "--method", method, "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 2 * 5 + 1


@pytest.mark.parametrize("case", ["moons-krr", "moons-svr", "three-classes"])
def test_tuned_fit_matches_the_per_grid_point_cv_loop(tmp_path, monkeypatch, case):
    import hklearn.cli as cli
    from cv_reference import cross_validate_reference

    grid = {"sigma_h2_grid": [0.5, 1.0, 2.0], "reg_grid": [1e-2, 1.0, 100.0]}
    config = _write(tmp_path / "cfg.json", json.dumps(grid))

    def run(name):
        if case == "three-classes":
            code, out = _three_class_fit(tmp_path, name)
        else:
            out = tmp_path / name
            code = main(["fit", str(fixture_path("two_moons.csv")), "--config", config,
                         "--method", case.split("-")[1], "--output-dir", str(out)])
        assert code == 0
        return _fit_artifacts(out)

    fast = run("fast")
    monkeypatch.setattr(cli, "cross_validate", cross_validate_reference)
    assert run("reference") == fast


def test_tuned_fit_assembles_one_gram_per_sigma_h2_and_fold(tmp_path, monkeypatch):
    import hklearn.hyper as hyper

    real_assemble, real_fill = hyper.assemble_hyper_gram, hyper._fill
    assembled, blocks = [], []

    def counting_assemble(*args, **kwargs):
        assembled.append(args)
        return real_assemble(*args, **kwargs)

    def counting_fill(phi, *args):
        blocks.append(phi.shape[1])
        return real_fill(phi, *args)

    monkeypatch.setattr(hyper, "assemble_hyper_gram", counting_assemble)
    monkeypatch.setattr(hyper, "_fill", counting_fill)
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=30)
    assert main(["fit", data, "--output-dir", str(tmp_path / "out")]) == 0
    # no dense n x n Gram; one reduced block (the spectrum's) per system:
    # 5 sigma_h2 x 5 folds serve all 11 reg and the c_svm pass, then the final fit
    assert assembled == []
    assert len(blocks) == len(DEFAULTS["sigma_h2_grid"]) * DEFAULTS["cv_folds"] + 1 == 26


def test_tuned_fit_shares_point_factors_and_clips_once_per_fold_system(tmp_path, monkeypatch):
    import hklearn.learned as learned
    import hklearn.pipeline as pipeline

    counts = {"point_factors": 0, "eigh": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(learned, "point_factors", counting("point_factors", learned.point_factors))
    monkeypatch.setattr(pipeline, "eigh", counting("eigh", pipeline.eigh))
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=30)
    assert main(["fit", data, "--output-dir", str(tmp_path / "out")]) == 0
    systems = len(DEFAULTS["sigma_h2_grid"]) * DEFAULTS["cv_folds"]
    # all 11 regs of a fold system share one set of point factors; the final
    # fit's eval_all_pairs takes one more
    assert counts["point_factors"] == systems + 1 == 26
    # one stacked clip per fold system, one per fold for all 11 C of the c_svm
    # pass, and the final classifier's
    assert counts["eigh"] == systems + DEFAULTS["cv_folds"] + 1 == 31


def test_tuned_fit_classifies_folds_with_the_run_svm_settings(tmp_path, monkeypatch):
    import hklearn.pipeline as pipeline

    real = pipeline.smo
    calls, clips = [], []

    def recording(K, y, lo, hi, *args):
        calls.append(float(hi.max()))  # C, the upper bound of the +1 class
        return real(K, y, lo, hi, *args)

    monkeypatch.setattr(pipeline, "smo", recording)
    monkeypatch.setattr(pipeline, "_clip_spectrum", lambda G: clips.append(G) or G)
    config = _write(
        tmp_path / "cfg.json",
        json.dumps({"c_svm": 2.5, "sigma_h2_grid": [1.0], "reg_grid": [1.0]}),
    )
    code = main(
        ["fit", str(fixture_path("two_moons.csv")), "--spectrum-fix", "none",
         "--config", config, "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    # 5 grid folds at the run's c_svm, 5 c_svm folds at the reg_grid value,
    # then the final classifier at the selected c_svm, none of them clipped
    assert calls == [2.5] * 5 + [1.0] * 6
    assert clips == []


def test_flags_override_config_which_overrides_defaults(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(
        tmp_path / "cfg.json", json.dumps({"lambda": 0.5, "sigma_h2": 0.7})
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
    assert got["sigma_h2"] == 0.7  # file wins over the default
    assert got["method"] == "krr"  # untouched default survives
    assert "epsilon" not in got  # a krr run echoes only what it reads
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
        ["eval", "DATA"],
        ["rate-study", "--method", "svr"],
    ],
    ids=["extend-krr", "fit-krr", "extend-clusters", "fit-landmarks",
         "decompose-demo", "eval", "rate-study"],
)
def test_trace_on_a_run_without_trace_exits_2(tmp_path, capsys, argv):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    out = tmp_path / "out"
    argv = [data if a == "DATA" else a for a in argv] + ["--trace", "--output-dir", str(out)]
    usage_error = argv[0] not in ("fit", "extend")  # commands without the flag
    if usage_error:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "trace" in err and (usage_error or err.count("\n") == 1)
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
    assert "lambda" not in report["config"]  # noiseless ridge trials fit at 1e-10


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


def test_extend_decomposes_past_the_dense_gram_cap(tmp_path):
    # 120 points make 14,400 pairs: their dense hyper-Gram would exceed
    # MAX_ENTRIES, which the diagnostics no longer assemble
    data = tmp_path / "pts.csv"
    np.savetxt(data, np.random.default_rng(0).uniform(0.0, 1.0, (120, 2)), delimiter=",")
    out = tmp_path / "out"
    code = main(["extend", str(data), "--no-labels", "--target", "rbf",
                 "--clusters", "8", "--output-dir", str(out)])
    assert code == 0
    diag = json.loads((out / "report.json").read_text())["scaling_diagnostics"]
    assert diag["sigma_min"] == 0.0
    assert diag["u"] == 120 and diag["v"] == 8
    assert diag["q_pi"] > 0.0 and "observed_gap" not in diag


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


def test_decompose_demo_is_extend_with_two_clusters(tmp_path):
    _, X, _ = _write_blobs(tmp_path / "blobs.csv", m=10)
    data = tmp_path / "data.csv"
    np.savetxt(data, X, delimiter=",")
    K = np.exp(-0.5 * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1))
    kpath = tmp_path / "k.csv"
    np.savetxt(kpath, K, delimiter=",")
    runs = {
        "decompose-demo": ["decompose-demo"],
        "extend": ["extend", "--clusters", "2"],
    }
    reports, models = {}, {}
    for name, argv in runs.items():
        out = tmp_path / name
        code = main(argv + [str(data), "--no-labels", "--kernel-matrix", str(kpath),
                            "--method", "svr", "--output-dir", str(out)])
        assert code == 0
        models[name] = (out / "model.json").read_bytes()
        reports[name] = json.loads((out / "report.json").read_text())
        del reports[name]["command"], reports[name]["timestamp"]
    assert models["decompose-demo"] == models["extend"]
    assert reports["decompose-demo"] == reports["extend"]
    assert reports["extend"]["config"]["clusters"] == 2
    # a given kernel matrix leaves target unread, and a decomposed fit trace
    assert not {"target", "trace"} & set(reports["extend"]["config"])


def test_decompose_demo_takes_the_rbf_target_only_when_target_is_unset(tmp_path, capsys):
    _, X, _ = _write_blobs(tmp_path / "blobs.csv", m=10)
    data = tmp_path / "data.csv"
    np.savetxt(data, X, delimiter=",")
    out = tmp_path / "out"
    assert main(["decompose-demo", str(data), "--no-labels", "--output-dir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["target"] == "rbf"
    code = main(["decompose-demo", str(data), "--no-labels", "--target", "ideal",
                 "--output-dir", str(tmp_path / "ideal")])
    assert code == 2
    assert "ideal target needs a labeled dataset" in capsys.readouterr().err


# --------------------------------------------------------------- exit codes


def test_fit_on_unlabeled_data_exits_2(tmp_path, capsys):
    data = tmp_path / "x.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((20, 2)), delimiter=",")
    out = tmp_path / "out"
    code = main(["fit", str(data), "--no-labels", "--no-tune", "--output-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "fit needs labels" in err and err.count("\n") == 1
    assert not (out / "model.json").exists()


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


@pytest.mark.parametrize(
    "key, value",
    [("cv_folds", "five"), ("seed", 0.5), ("split", 5), ("jitter", 0), ("method", "ridge")],
)
def test_config_value_of_wrong_type_exits_2_naming_the_key(
    tmp_path, capsys, key, value
):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    config = _write(tmp_path / "cfg.json", json.dumps({key: value}))
    code = main(["fit", data, "--config", config,
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"setting {key} " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rate_study_with_one_sample_size_exits_2(tmp_path, capsys):
    code = main(["rate-study", "--m-values", "8",
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "two sample sizes" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rate_study_with_sample_size_below_two_exits_2(tmp_path, capsys):
    code = main(["rate-study", "--m-values", "1", "2",
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "at least 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rate_study_fits_with_the_run_solve_settings(tmp_path, monkeypatch):
    import hklearn.pipeline as pipeline

    real = pipeline.solve_pair_system
    bases = []

    def recording(system, responses, base, trace_path=None):
        bases.append(base)
        return real(system, responses, base, trace_path=trace_path)

    monkeypatch.setattr(pipeline, "solve_pair_system", recording)
    config = _write(tmp_path / "cfg.json", json.dumps({"kkt_tol": 0.005}))
    study = ["rate-study", "--m-values", "4", "6", "--trials", "3", "--config", config]
    code = main(study + ["--method", "svr", "--C", "2.5", "--epsilon", "0.05",
                         "--output-dir", str(tmp_path / "svr")])
    assert code == 0
    assert len(bases) == 6
    assert set(bases) == {SvrConfig(C=2.5, epsilon=0.05, kkt_tol=0.005)}
    bases.clear()
    # ridge trials keep the study's own constant and read only jitter
    code = main(study[:-2] + ["--no-jitter", "--noise-sigma", "0.1",
                              "--output-dir", str(tmp_path / "krr")])
    assert code == 0
    assert set(bases) == {KrrConfig(lam=pipeline.STUDY_REG_NOISY, jitter=False)}


def _uniform_csv(path, m, seed):
    X = np.random.default_rng(seed).uniform(0.0, 1.0, (m, 2))
    np.savetxt(path, X, delimiter=",", fmt="%.17g")
    return str(path), X


def test_extend_above_direct_limit_never_assembles(tmp_path, monkeypatch):
    import hklearn.hyper as hyper

    calls = []
    real = hyper.assemble_hyper_gram

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hyper, "assemble_hyper_gram", counting)
    data, _ = _uniform_csv(tmp_path / "x.csv", 46, 0)  # 2,116 pairs
    out = tmp_path / "out"
    assert main(["extend", data, "--no-labels", "--no-standardize",
                 "--target", "tl1", "--output-dir", str(out)]) == 0
    assert calls == []
    solver = json.loads((out / "report.json").read_text())["solver"]
    assert solver["path"] == "cg"
    assert isinstance(solver["cg_iterations"], int) and solver["cg_iterations"] > 0
    assert isinstance(solver["preconditioner_rank"], int) and solver["preconditioner_rank"] > 0


def test_extend_past_the_dense_cap_meets_the_cg_residual(tmp_path):
    from hklearn import HyperKernelParams, KrrConfig, PairSystem, load_learned
    from hklearn.base_kernels import TL1, gram_matrix

    # 10,201 pairs: the dense hyper-Gram would exceed the 1e8-entry cap
    data, X = _uniform_csv(tmp_path / "x.csv", 101, 1)
    out = tmp_path / "out"
    assert main(["extend", data, "--no-labels", "--no-standardize",
                 "--target", "tl1", "--output-dir", str(out)]) == 0
    lk = load_learned(out / "model.json")
    p = lk.hyper_params
    system = PairSystem(HyperKernelParams(p.sigma2, p.sigma_h2, p.dim), lk.points)
    beta = lk.coefficients.values
    y = gram_matrix(TL1(0.7 * 2), X).ravel()
    lam = DEFAULTS["lambda"]
    residual = np.linalg.norm(system.matvec(beta) + lam * beta - y)
    assert residual <= KrrConfig(lam).cg_tol * max(1.0, np.linalg.norm(y))


def test_fit_and_extend_report_their_solver(tmp_path):
    data, _, _ = _write_blobs(tmp_path / "d.csv")
    for cmd in (["extend"], ["fit", "--no-tune"], ["extend", "--method", "svr"]):
        out = tmp_path / "_".join(cmd)
        assert main([*cmd[:1], data, *cmd[1:], "--output-dir", str(out)]) == 0
        solver = json.loads((out / "report.json").read_text())["solver"]
        path = "smo" if "svr" in cmd else "direct"
        assert solver == {"path": path, "cg_iterations": None, "preconditioner_rank": None}


@pytest.mark.parametrize("solver", ["direct", "cg"])
def test_only_the_cg_preconditioner_calls_numpy_cholesky(tmp_path, monkeypatch, solver):
    callers, real = [], np.linalg.cholesky

    def recording(a, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    monkeypatch.setattr(KrrConfig, "solver", solver)
    data, _, _ = _write_blobs(tmp_path / "d.csv")
    out = tmp_path / "out"
    assert main(["extend", data, "--output-dir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["solver"]["path"] == solver
    # direct solves use the system's eigendecomposition; CG's preconditioner
    # orthonormalizes its factor by CholeskyQR3
    assert callers == ([] if solver == "direct" else ["_cholesky_qr3"] * 3)


def test_fit_without_dataset_exits_2(tmp_path, capsys):
    code = main(["fit", "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


def test_eval_without_model_exits_2(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv")
    code = main(["eval", data, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["points", "bias", "hyper_params"])
def test_non_finite_model_file_exits_2(tmp_path, capsys, field, value):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    if field == "points":
        doc["points"][3][1] = value
    elif field == "bias":
        doc["bias"] = value
    else:
        doc["hyper_params"]["sigma2"] = value
    model = _write(tmp_path / "model.json", json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", data, "--model", model, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"non-finite {field}" in err and err.count("\n") == 1


def test_model_whose_learned_kernel_overflows_exits_3(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    for coefficient in doc["coefficients"]:
        coefficient["value"] = 1e308
    model = _write(tmp_path / "model.json", json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", data, "--model", model, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "learned kernel overflows" in err and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("i", 1.5), ("i", "1"), ("value", "0.5"), ("bias", "0.1"), ("points", "0.5"),
    ("i", True), ("j", False), ("value", True), ("points", True),
], ids=["float-index", "string-index", "string-value", "string-bias", "string-point",
        "true-index", "false-index", "true-value", "true-point"])
def test_model_file_field_of_wrong_json_type_exits_2(tmp_path, capsys, field, value):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    if field == "bias":
        doc["bias"] = value
    elif field == "points":
        doc["points"][3][1] = value
    else:
        doc["coefficients"][5][field] = value
    model = _write(tmp_path / "model.json", json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", data, "--model", model, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model file missing or malformed field" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "key, grid",
    [("reg_grid", [-1, 0.1, 1]), ("reg_grid", [0, 1]), ("sigma_h2_grid", [-1, 1])],
    ids=["negative-reg", "zero-reg", "negative-sigma_h2"],
)
def test_non_positive_cv_grid_entry_exits_2_naming_the_grid(tmp_path, capsys, key, grid):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=30)
    config = _write(tmp_path / "cfg.json", json.dumps({key: grid}))
    out = tmp_path / "out"
    code = main(["fit", data, "--config", config, "--output-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{key} entries must be positive" in err and err.count("\n") == 1
    assert not (out / "cv_scores.csv").exists()


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["extend", "DATA", "--lambda", "nan"], None, "lambda"),
        (["extend", "DATA", "--sigma-h2", "inf"], None, "sigma_h2"),
        (["rate-study", "--noise-sigma", "nan"], None, "noise_sigma"),
        (["extend", "DATA", "--method", "svr"], '{"epsilon": NaN}', "epsilon"),
        (["fit", "DATA"], '{"reg_grid": [1.0, -Infinity]}', "reg_grid"),
    ],
    ids=["lambda-flag", "sigma_h2-flag", "noise_sigma-flag", "epsilon-config",
         "reg_grid-config"],
)
def test_non_finite_setting_exits_2_naming_the_key(tmp_path, capsys, argv, config, key):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    argv = [data if a == "DATA" else a for a in argv]
    if config is not None:
        argv += ["--config", _write(tmp_path / "cfg.json", config)]
    code = main(argv + ["--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"setting {key} must be finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["fit", "decompose-demo", "rate-study"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=20)
    argv = [command] + ([] if command == "rate-study" else [data])
    code = main(argv + ["--seed", "-1", "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "setting seed must be nonnegative" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "method, key, value, message",
    [("krr", "c_svm", 0.0, "c_svm must be positive"),
     ("krr", "c_svm", -1.0, "c_svm must be positive"),
     ("svr", "epsilon", -0.1, "epsilon must be nonnegative"),
     ("svr", "kkt_tol", 0.0, "kkt_tol must be at least"),
     ("svr", "kkt_tol", 1e-300, "kkt_tol must be at least machine epsilon")],
    ids=["zero-c_svm", "negative-c_svm", "negative-epsilon", "zero-kkt_tol",
         "kkt_tol-below-roundoff"],
)
def test_invalid_solve_setting_exits_2_in_a_tuned_fit_as_in_an_untuned_one(
        tmp_path, capsys, method, key, value, message):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=20)
    config = _write(tmp_path / "cfg.json", json.dumps({key: value, "method": method}))
    errors = []
    for tune in ([], ["--no-tune"]):
        code = main(["fit", data, *tune, "--config", config,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert message in errors[0] and errors[0].count("\n") == 1


@pytest.mark.parametrize("sigma2", [1e-300, 1e-160])
def test_scales_whose_prefactor_leaves_the_doubles_exit_2(tmp_path, capsys, sigma2):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    config = _write(tmp_path / "cfg.json", json.dumps({"sigma2": sigma2}))
    code = main(["extend", data, "--config", config, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scales sigma2={sigma2}" in err and err.count("\n") == 1
    # a model file with those scales is refused in the same way
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    doc["hyper_params"]["sigma2"] = sigma2
    model = _write(tmp_path / "model.json", json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", data, "--model", model, "--output-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scales sigma2={sigma2}" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("at", ["start", "end"])
@pytest.mark.parametrize("bad_file", ["data", "kernel", "model", "config"])
def test_an_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, bad_file, at):
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=8)
    ideal = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    kernel = tmp_path / "k.csv"
    np.savetxt(kernel, ideal, delimiter=",", fmt="%.17g")
    assert main(["extend", data, "--output-dir", str(tmp_path / "fitted")]) == 0
    config = tmp_path / "config.json"
    config.write_text("{}")
    paths = {"data": Path(data), "kernel": kernel, "config": config,
             "model": tmp_path / "fitted" / "model.json"}
    bad = paths[bad_file]
    raw = bad.read_bytes()
    bad.write_bytes(b"\xff" + raw if at == "start" else raw + b"\xff")
    capsys.readouterr()
    code = main(["eval", data, "--model", str(paths["model"]), "--kernel-matrix", str(kernel),
                 "--config", str(config), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}: not UTF-8 text" in err and err.count("\n") == 1


def test_a_column_too_large_to_standardize_exits_2_naming_it(tmp_path, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    rows = Path(data).read_text().splitlines()
    rows[3] = rows[3].split(",")[0] + ",1e308," + rows[3].split(",")[2]
    bad = _write(tmp_path / "big.csv", "\n".join(rows) + "\n")
    code = main(["extend", bad, "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}: column 2 is too large to standardize" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "cell, code", [((0, 0), 2), ((0, 1), 3)], ids=["diagonal", "off-diagonal"]
)
def test_a_kernel_matrix_entry_near_the_largest_double_exits_2_or_3(
    tmp_path, capsys, cell, code
):
    # a diagonal 1e308 overflows (K + K') / 2; an off-diagonal one halves to
    # 5e307, which overflows the solve's residual
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=8)
    K = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    K[cell] = 1e308
    kernel = tmp_path / "k.csv"
    np.savetxt(kernel, K, delimiter=",", fmt="%.17g")
    capsys.readouterr()
    assert main(["extend", data, "--kernel-matrix", str(kernel),
                 "--output-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_kernel_matrix_whose_solve_overflows_exits_3_without_a_runtime_warning(
    tmp_path, capsys
):
    # the off-diagonal 5e307 responses overflow the norm of the right-hand side
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=8)
    K = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    K[0, 1] = 1e308
    kernel = tmp_path / "k.csv"
    np.savetxt(kernel, K, delimiter=",", fmt="%.17g")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # the symmetrizing notice
        code = main(["extend", data, "--kernel-matrix", str(kernel),
                     "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "norm of the responses overflows" in err and err.count("\n") == 1


def test_an_eigendecomposition_that_fails_exits_3(tmp_path, monkeypatch, capsys):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    capsys.readouterr()
    code = main(["extend", data, "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numerical failure: eigendecomposition of the hyper-Gram did not converge\n"


def test_eval_of_a_model_whose_learned_gram_overflows_exits_3(tmp_path, capsys):
    # a bias of 1e308 makes every learned Gram entry 1e308: finite, but the
    # spectrum of the SVM training Gram overflows
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    model = tmp_path / "fit" / "model.json"
    doc = json.loads(model.read_text())
    doc["bias"] = 1e308
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", data, "--model", str(model), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "not finite" in err and err.count("\n") == 1


def test_eval_of_an_overflowing_model_without_clipping_exits_3(tmp_path, capsys):
    # unclipped, the SVM trains on the finite Gram of 1e308 entries itself:
    # SMO's first step curvature is inf - inf
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    assert main(["extend", data, "--output-dir", str(tmp_path / "fit")]) == 0
    model = tmp_path / "fit" / "model.json"
    doc = json.loads(model.read_text())
    doc["bias"] = 1e308
    model.write_text(json.dumps(doc))
    config = _write(tmp_path / "none.json", json.dumps({"spectrum_fix": "none"}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", data, "--model", str(model), "--config", config,
                     "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "SMO step is not finite" in err and err.count("\n") == 1


def test_svr_caught_in_a_cycle_exits_3_within_a_second(tmp_path, capsys):
    # sigma2 1e-30 puts hyper-Gram entries near 1e57 on some pairs and zero rows
    # on the rest; SMO cycles with the zero-row coefficients drifting 1e-58 per
    # update, and the update budget would run out long before they reach C
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=20, seed=3)
    config = _write(tmp_path / "tiny.json", json.dumps({"sigma2": 1e-30, "sigma_h2": 1.0}))
    started = time.perf_counter()
    code = main(["extend", data, "--method", "svr", "--config", config,
                 "--output-dir", str(tmp_path / "out")])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: KKT violation") and err.count("\n") == 1
    assert elapsed < 1.0


# --------------------------------------------------- settings each run reads

# A value of each setting other than its default; method takes the other one
PROBES = {
    "method": None, "lambda": 0.5, "C": 5.0, "epsilon": 0.01, "kkt_tol": 0.2,
    "sigma2": 2.0, "sigma_h2": 0.7, "target": "rbf", "tl1_tau": 0.5,
    "rbf_sigma2": 0.5, "log_sigma": 2.0, "clusters": 3, "landmarks": 4, "seed": 5,
    "standardize": False, "spectrum_fix": "none", "jitter": False, "tune": False,
    "c_svm": 100.0, "split": [0.5, 0.3, 0.2], "cv_folds": 3, "trials": 4,
    "sigma_h2_grid": [1.0], "reg_grid": [0.1, 10.0], "m_values": [4, 8],
    "noise_sigma": 0.2, "rate_target": "planted", "trace": True,
}
# the rate study draws its own data; its small fixture is a short study
FIXTURE = {"rate-study": {"m_values": [4, 6], "trials": 3}}
WALK = [
    (command, method, key)
    for command in COMMANDS
    for method in ((None,) if command == "eval" else ("krr", "svr"))
    for key in DEFAULTS
]


@pytest.fixture(scope="module")
def walk_run(tmp_path_factory):
    """run(command, method, settings): (artifacts, config echo) of a run of
    the fixture with ``settings`` in its config file, or None on exit 2.

    The artifacts are every file but timings.json, with the report's
    timestamp and config echo removed.  Runs are cached.
    """
    root = tmp_path_factory.mktemp("walk")

    def two_classes(name, m, seed):  # they overlap, so that the svm settings move accuracies
        labels = np.repeat([1.0, -1.0], m // 2)
        X = np.random.default_rng(seed).normal(0.0, 1.0, (m, 2)) + 0.3 * labels[:, None]
        np.savetxt(root / name, np.column_stack([X, labels]), delimiter=",")
        return str(root / name)

    # the smallest data a tuned fit splits into 5 folds; its svr fit is fast
    data = two_classes("data.csv", 12, 18)
    # eval clips the learned Gram of the log target, which is far from definite
    assert main(["extend", data, "--target", "log", "--output-dir", str(root / "model")]) == 0
    queries = [two_classes("queries.csv", 60, 160), "--model", str(root / "model" / "model.json")]
    inputs = {"rate-study": [], "eval": queries}
    cache = {}

    def run(command, method, settings):
        config = {**FIXTURE.get(command, {}), **({"method": method} if method else {}),
                  **settings}
        key = json.dumps([command, config], sort_keys=True)
        if key not in cache:
            out = root / f"run{len(cache)}"
            path = _write(root / f"cfg{len(cache)}.json", json.dumps(config))
            argv = [command, *inputs.get(command, [data]), "--config", path]
            code = main(argv + ["--output-dir", str(out)])
            assert code in (0, 2)
            cache[key] = None
            if code == 0:
                files = {p.name: p.read_text() for p in out.iterdir() if p.name != "timings.json"}
                report = json.loads(files.pop("report.json"))
                del report["timestamp"]
                cache[key] = (dict(files, report=report), report.pop("config"))
        return cache[key]

    return run


@pytest.mark.parametrize("command, method, key", WALK)
def test_every_setting_a_run_accepts_changes_an_artifact(walk_run, capsys, command, method,
                                                         key):
    probe = PROBES[key] if key != "method" else {"krr": "svr"}.get(method, "krr")
    got = walk_run(command, method, {key: probe})
    if got is None:
        err = capsys.readouterr().err
        assert f"{command} does not read setting {key!r}" in err and err.count("\n") == 1
        return
    assert got[1][key] == probe
    if key == "jitter" and method == "krr":
        return  # read: whether a solve is direct, and so jittered, depends on the data
    assert got[0] != walk_run(command, method, {})[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extend", "DATA", "--kernel-matrix", "K", "--target", "tl1"],
         "extend does not read setting 'target' with --kernel-matrix"),
        (["extend", "DATA", "--target", "rbf", "--config", '{"tl1_tau": 1.0}'],
         "extend does not read setting 'tl1_tau' with target rbf"),
        (["eval", "DATA", "--no-labels", "--model", "MODEL", "--config", '{"c_svm": 2.0}'],
         "eval does not read setting 'c_svm' without labels"),
        (["fit", "DATA", "--config", '{"lamda": 1.0}'], "fit does not read setting 'lamda' at all"),
    ],
    ids=["kernel-matrix-target", "other-target-scale", "unlabeled-eval-c_svm", "unknown-key"],
)
def test_unread_setting_exits_2_naming_the_key_and_the_command(tmp_path, capsys, argv, message):
    data, _, labels = _write_blobs(tmp_path / "data.csv", m=8)
    paths = {"DATA": data, "K": _write(tmp_path / "k.csv", "\n".join(
        ",".join("1.0" if a == b else "-1.0" for b in labels) for a in labels) + "\n")}
    if "MODEL" in argv:
        assert main(["extend", data, "--output-dir", str(tmp_path / "model")]) == 0
        paths["MODEL"] = str(tmp_path / "model" / "model.json")
    argv = [paths.get(a, a) for a in argv]
    if "--config" in argv:
        i = argv.index("--config") + 1
        argv[i] = _write(tmp_path / "cfg.json", argv[i])
    capsys.readouterr()
    code = main(argv + ["--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "DATA", "--lambda", "5", "--method", "svr", "--clusters", "3"],
        ["rate-study", "--lambda", "5", "--sigma-h2", "9"],
        ["rate-study", "--kernel-matrix", "DATA"],
        ["rate-study", "--no-labels"],
    ],
    ids=["eval-fit-flags", "rate-study-lambda", "rate-study-kernel-matrix", "rate-study-labels"],
)
def test_flag_outside_the_command_row_is_a_usage_error(tmp_path, capsys, argv):
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    with pytest.raises(SystemExit) as exc:
        main([data if a == "DATA" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("target, key", [("rbf", "rbf_sigma2"), ("tl1", "tl1_tau")])
def test_zero_target_scale_exits_2(tmp_path, capsys, target, key):
    # 0 is a value, not the null that takes the data rule
    data, _, _ = _write_blobs(tmp_path / "data.csv", m=8)
    config = _write(tmp_path / "cfg.json", json.dumps({key: 0}))
    code = main(["extend", data, "--target", target, "--config", config,
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err


def test_readme_config_keys_match_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config keys", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(DEFAULTS)
    # the README table of flags and readers is cli.SETTINGS
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|$", section, flags=re.MULTILINE)
    assert {
        key: (re.findall(r"--[\w-]+", flags), set(re.findall(r"[\w-]+", readers)) - {"only", "target"})
        for key, flags, readers in rows
    } == {
        key: ([f.partition("=")[0] for f in (flags or "").split()], set(readers.split()))
        for key, (_, flags, readers) in SETTINGS.items()
    }


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


_NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
import hklearn.cli as cli
from hklearn import HyperKernelParams, KrrConfig, PairSystem, fit_krr

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse")))

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
np.savetxt(work / "x.csv", rng.uniform(0.0, 1.0, (46, 2)), delimiter=",")
np.savetxt(work / "q.csv", rng.uniform(0.0, 1.0, (8, 2)), delimiter=",")
np.savetxt(work / "s.csv", rng.uniform(0.0, 1.0, (14, 2)), delimiter=",")
codes = [
    cli.main(["extend", str(work / "x.csv"), "--no-labels", "--target", "tl1",
              "--output-dir", str(work / "cg")]),
    cli.main(["eval", str(work / "q.csv"), "--no-labels",
              "--model", str(work / "cg" / "model.json"), "--output-dir", str(work / "ev")]),
    cli.main(["extend", str(work / "s.csv"), "--no-labels", "--target", "rbf",
              "--method", "svr", "--clusters", "2", "--landmarks", "7",
              "--output-dir", str(work / "svr")]),
]
solver = json.loads((work / "cg" / "report.json").read_text())["solver"]["path"]
after_cli = loaded()
X = rng.uniform(0.0, 1.0, (5, 2))
fit_krr(PairSystem(HyperKernelParams(0.1, 0.1, 2), X), np.ones(25), KrrConfig(1e-3))
print(json.dumps({"codes": codes, "solver": solver, "after_cli": after_cli,
                  "after_direct": loaded()}))
"""


def test_cg_fits_eval_and_svr_never_load_scipy_linalg(tmp_path):
    # a fresh interpreter: no run and no direct solve imports scipy.linalg
    src = str(Path(hklearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["solver"] == "cg"
    assert out["after_cli"] == []
    assert out["after_direct"] == []


_SCIPY_REFUSED_SCRIPT = """
import json, sys
from pathlib import Path

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import hklearn.cli as cli

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
labels = np.repeat([1.0, -1.0], 6)
blobs = np.vstack([rng.normal(0.0, 0.4, (6, 2)), rng.normal(3.0, 0.4, (6, 2))])
np.savetxt(work / "l.csv", np.column_stack([blobs, labels]), delimiter=",")
np.savetxt(work / "x.csv", rng.uniform(0.0, 1.0, (46, 2)), delimiter=",")
np.savetxt(work / "s.csv", rng.uniform(0.0, 1.0, (10, 2)), delimiter=",")
def run(*argv):
    return cli.main([str(a) for a in argv])
codes = {
    "fit": run("fit", work / "l.csv", "--output-dir", work / "fit"),
    "extend-direct": run("extend", work / "s.csv", "--no-labels", "--target", "rbf",
                         "--output-dir", work / "direct"),
    "extend-cg": run("extend", work / "x.csv", "--no-labels", "--target", "tl1",
                     "--output-dir", work / "cg"),
    "decompose-demo": run("decompose-demo", work / "l.csv", "--target", "rbf",
                          "--output-dir", work / "demo"),
    "rate-study": run("rate-study", "--m-values", 4, 6, "--trials", 3,
                      "--output-dir", work / "rate"),
    "eval": run("eval", work / "l.csv", "--model", work / "fit" / "model.json",
                "--output-dir", work / "eval"),
}
paths = {name: json.loads((work / out / "report.json").read_text())["solver"]["path"]
         for name, out in (("extend-direct", "direct"), ("extend-cg", "cg"))}
print(json.dumps({"codes": codes, "paths": paths,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_every_command_runs_with_scipy_refused(tmp_path):
    # a fresh interpreter whose import system refuses every scipy module
    src = str(Path(hklearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_REFUSED_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == dict.fromkeys(
        ["fit", "extend-direct", "extend-cg", "decompose-demo", "rate-study", "eval"], 0
    ), proc.stderr
    assert out["paths"] == {"extend-direct": "direct", "extend-cg": "cg"}
    assert out["scipy"] == []
