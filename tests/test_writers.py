"""Every output file goes through one atomic sink, written piece by piece.

Golden files pin the bytes of each deterministic writer; the samplers draw
through BLAS, so their files are compared with the library writer's bytes
made in the same process.  A writer that fails partway leaves no temp
file and no change to an existing output, and `synth sample` holds about
one value array, not its text as well.
"""

import io
import itertools
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpci.cli
from cpci.grid import GridTopology, save_ensemble
from cpci.stats import ConfidenceLevel
from cpci.synth import (
    MomentModel, ground_truth_probabilities, load_moment_model, sample_ensemble,
    save_moment_model,
)

from conftest import run_cli
from test_keyed_text import summary_csv_oracle

DATA = Path(__file__).parent / "data"
EGF = DATA / "small_6x5x16.egf"
MODEL = DATA / "golden_model.mmf"

# (command line without --output, golden file); a 6x5 field, 16 members
# rounded to steps of 0.5, so neighbours tie.
GOLDEN = {
    "classify": (["classify", "--input", str(EGF), "--member", "3"], "golden_classify.csv"),
    "estimate": (["estimate", "--input", str(EGF), "--gamma", "0.9"], "golden_summary.csv"),
    "counts": (["estimate", "--input", str(EGF), "--counts"], "golden_counts.csv"),
    "fit": (["synth", "fit", "--input", str(EGF)], "golden_model.mmf"),
    "coverage": (["coverage", "--p", "0.1,0.5", "--m", "5,20", "--reps", "200",
                  "--seed", "3"], "golden_coverage.csv"),
    "render": (["render", "--input", str(DATA / "golden_summary.csv")], "golden_map.svg"),
}


def leftovers(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.startswith(".cpci-tmp-")]


class TestByteIdentity:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden(self, tmp_path, name):
        argv, golden = GOLDEN[name]
        out = tmp_path / golden
        code, _, err = run_cli(*argv, "--output", str(out))
        assert code == 0, err
        assert out.read_bytes() == (DATA / golden).read_bytes()
        assert leftovers(tmp_path) == []

    def test_sample_matches_save_ensemble(self, tmp_path):
        code, stdout, err = run_cli("synth", "sample", "--input", str(MODEL), "--output",
                                    str(tmp_path), "--sizes", "3,7", "--count", "2",
                                    "--seed", "5")
        assert code == 0, err
        model = load_moment_model(io.BytesIO(MODEL.read_bytes()))
        ordinal = 0
        for size in (3, 7):
            for k in range(2):
                sink = io.BytesIO()
                save_ensemble(sample_ensemble(model, size, 5 + ordinal), sink)
                path = tmp_path / f"sample_m{size}_{k:02d}.egf"
                assert path.read_bytes() == sink.getvalue()
                ordinal += 1
        assert len(stdout.splitlines()) == 4 and leftovers(tmp_path) == []

    def test_truth_matches_oracle(self, tmp_path):
        out = tmp_path / "truth.csv"
        code, _, err = run_cli("synth", "truth", "--input", str(MODEL), "--output", str(out),
                               "--draws", "2000", "--seed", "4", "--gamma", "0.8")
        assert code == 0, err
        model = load_moment_model(io.BytesIO(MODEL.read_bytes()))
        table = ground_truth_probabilities(model, 2000, 4, ConfidenceLevel(0.8))
        assert out.read_text() == summary_csv_oracle(table, model.topology, 2000, 0.8)

    def test_ground_truth_map_matches_collapsed_truth(self, tmp_path):
        # The map `render --ground-truth` draws from `synth truth` equals the
        # plain map of the truth written with lo = hat = hi.
        truth, collapsed = tmp_path / "truth.csv", tmp_path / "collapsed.csv"
        code, _, err = run_cli("synth", "truth", "--input", str(MODEL), "--output",
                               str(truth), "--draws", "2000", "--seed", "4", "--gamma", "0.8")
        assert code == 0, err
        model = load_moment_model(io.BytesIO(MODEL.read_bytes()))
        table = ground_truth_probabilities(model, 2000, 4, ConfidenceLevel(0.8))
        collapsed.write_text(summary_csv_oracle(table, model.topology, 2000, 0.8,
                                                collapse=True))
        maps = tmp_path / "ground_truth.svg", tmp_path / "collapsed.svg"
        assert run_cli("render", "--input", str(truth), "--output", str(maps[0]),
                       "--ground-truth") == (0, "", "")
        assert run_cli("render", "--input", str(collapsed), "--output",
                       str(maps[1])) == (0, "", "")
        assert maps[0].read_bytes() == maps[1].read_bytes()


class TestFailureInsideTheSink:
    """Output is produced while the temp file is open; a failure there
    removes the temp file and leaves an existing output as it was."""

    @pytest.mark.parametrize("error, code", [(OSError("disk full"), 2),
                                             (RuntimeError("disk full"), 1)])
    def test_sample(self, tmp_path, monkeypatch, error, code):
        def failing_save(ensemble, sink):
            sink.write(b"EGF1\n6 5 4\n0 1 2")
            raise error

        monkeypatch.setattr(cpci.cli, "save_ensemble", failing_save)
        old = tmp_path / "sample_m4_00.egf"
        old.write_bytes(b"previous sample")
        got, _, err = run_cli("synth", "sample", "--input", str(MODEL),
                              "--output", str(tmp_path), "--sizes", "4")
        assert got == code and "disk full" in err
        assert old.read_bytes() == b"previous sample"
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("error, code", [(OSError("disk full"), 2),
                                             (RuntimeError("disk full"), 1)])
    def test_render(self, tmp_path, monkeypatch, error, code):
        pieces = cpci.cli.render_map_pieces

        def failing_pieces(*args):
            yield from itertools.islice(pieces(*args), 20)
            raise error

        monkeypatch.setattr(cpci.cli, "render_map_pieces", failing_pieces)
        old = tmp_path / "map.svg"
        old.write_bytes(b"<svg/>")
        got, _, err = run_cli("render", "--input", str(DATA / "golden_summary.csv"),
                              "--output", str(old))
        assert got == code and "disk full" in err
        assert old.read_bytes() == b"<svg/>"
        assert leftovers(tmp_path) == []

    def test_interrupt(self, tmp_path, monkeypatch):
        def interrupted(model, sink):
            sink.write(b"MMF1\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(cpci.cli, "save_moment_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("synth", "fit", "--input", str(EGF), "--output", str(tmp_path / "m.mmf"))
        assert os.listdir(tmp_path) == []


@pytest.fixture
def synced(monkeypatch) -> list:
    """Log `("fsync", (st_dev, st_ino))` of each fd os.fsync syncs and
    `("replace", dst)` of each os.replace, in call order."""
    log, fsync, replace = [], os.fsync, os.replace

    def logged_fsync(fd):
        status = os.fstat(fd)
        log.append(("fsync", (status.st_dev, status.st_ino)))
        fsync(fd)

    def logged_replace(src, dst):
        replace(src, dst)
        log.append(("replace", os.fspath(dst)))

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    return log


def identity(path) -> tuple[int, int]:
    status = os.stat(path)
    return status.st_dev, status.st_ino


class TestDurability:
    """A completed output survives a crash: the file is synced before it
    replaces the output, its directory after, and a directory made for
    the output is recorded in its parent."""

    def test_file_synced_before_replace_and_directory_after(self, tmp_path, synced):
        out = tmp_path / "cov.csv"
        code, _, err = run_cli("coverage", "--p", "0.3", "--m", "9", "--reps", "10",
                               "--output", str(out))
        assert code == 0, err
        assert synced == [("fsync", identity(out)), ("replace", str(out)),
                          ("fsync", identity(tmp_path))]

    def test_sample_syncs_the_parent_of_each_directory_it_makes(self, tmp_path, synced):
        out = tmp_path / "a" / "b"
        code, _, err = run_cli("synth", "sample", "--input", str(MODEL), "--output", str(out),
                               "--sizes", "3,4")
        assert code == 0, err
        assert {("fsync", identity(tmp_path)), ("fsync", identity(tmp_path / "a")),
                ("fsync", identity(out))} <= set(synced)


class TestSampleMemory:
    def test_peak_within_one_and_a_half_value_arrays(self, tmp_path):
        # The members are drawn whole, so one value array is the floor;
        # the EGF text is written into the file, never held beside it.
        t, m, r = GridTopology(64, 64), 200, 20
        rng = np.random.default_rng(3)
        model = MomentModel(t, rng.normal(size=t.n), rng.normal(size=(t.n, r)) / r)
        source = tmp_path / "model.mmf"
        with open(source, "wb") as handle:
            save_moment_model(model, handle)
        tracemalloc.start()
        try:
            code, _, err = run_cli("synth", "sample", "--input", str(source),
                                   "--output", str(tmp_path / "out"), "--sizes", str(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak <= 1.5 * m * t.n * 8
