"""The member chunk rule, `critical._member_chunk`, and what it bounds.

Every chunked path (the streamed `estimate`, `count_types` and
`ground_truth_probabilities`) takes about 2^17 member-vertices at a time.
Counts are integer sums over any split of the members, and the sampler's
chunked draws equal its whole draws, so the CLI's outputs must stay
byte-identical to those of the earlier rule of about 10^6
member-vertices.  The memory budgets here, in `test_stream` and in
`test_synth`, are absolute: they do not scale with the rule, so going
back to 10^6 fails them.
"""

import numpy as np
import pytest

from cpci.critical import _member_chunk
from cpci.grid import Ensemble, GridTopology
from cpci.synth import estimate_moments, save_moment_model

from conftest import run_cli, write_egf
from test_stream import members, stream_peak, write_members

BUDGET = 1 << 17


def old_member_chunk(n: int) -> int:
    """The earlier rule: about 10^6 member-vertices per chunk."""
    return max(1, 1_000_000 // max(n, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 256, 4095, 4096, 16384, BUDGET - 1, BUDGET])
def test_chunk_fills_but_never_exceeds_the_budget(n):
    k = _member_chunk(n)
    assert k * n <= BUDGET < (k + 1) * n


@pytest.mark.parametrize("n", [BUDGET + 1, 133_000, 10 ** 7])
def test_one_member_per_chunk_past_the_budget(n):
    assert _member_chunk(n) == 1


# (nx, ny, m, step): both rules split m into several chunks at each size.
ENSEMBLES = {
    "64x64x600-quantised": (64, 64, 600, 0.25),  # 32 against 244 members
    "380x350x9": (380, 350, 9, None),  # n > 2^17: 1 against 7 members
}
TRUTH_DRAWS = 10_000  # at 16x16: 512 against 3,906 members


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("chunk-rule")
    paths = {}
    for name, (nx, ny, m, step) in ENSEMBLES.items():
        t = GridTopology(nx, ny)
        assert 1 <= _member_chunk(t.n) < old_member_chunk(t.n) < m
        paths[name] = root / f"{name}.egf"
        write_egf(paths[name], t, members(t, m, step, seed=m))
    t = GridTopology(16, 16)
    assert _member_chunk(t.n) < old_member_chunk(t.n) < TRUTH_DRAWS
    paths["model"] = root / "model.mmf"
    with open(paths["model"], "wb") as sink:
        model = estimate_moments(Ensemble(t, np.random.default_rng(3).normal(size=(21, t.n))))
        save_moment_model(model, sink)
    return paths


def output_bytes(argv: list[str], out) -> bytes:
    code, _, err = run_cli(*argv, "--output", str(out))
    assert code == 0, err
    return out.read_bytes()


@pytest.mark.parametrize("argv, source", [
    *[(["estimate"], name) for name in ENSEMBLES],
    *[(["estimate", "--counts"], name) for name in ENSEMBLES],
    (["synth", "truth", "--draws", str(TRUTH_DRAWS)], "model"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_outputs_equal_the_old_rule(inputs, tmp_path, monkeypatch, argv, source):
    argv = [*argv, "--input", str(inputs[source])]
    new = output_bytes(argv, tmp_path / "new.csv")
    for module in ("cpci.critical", "cpci.synth", "cpci.cli"):
        monkeypatch.setattr(f"{module}._member_chunk", old_member_chunk)
    assert output_bytes(argv, tmp_path / "old.csv") == new


def test_streamed_parse_and_tally_budget_at_128x128(tmp_path):
    # 3.01 MiB measured at both m (11.8 and 18.0 MiB under the 10^6 rule,
    # whose chunk here is 61 members); bound 4 MiB.
    topology = GridTopology(128, 128)
    peaks = []
    for m in (40, 120):
        path = tmp_path / f"m{m}.egf"
        write_members(path, topology, m, 0.25, seed=m)
        peaks.append(stream_peak(path, _member_chunk)[1])
    assert max(peaks) <= 1.05 * min(peaks), peaks
    assert max(peaks) <= 4 * 2 ** 20, [peak / 2 ** 20 for peak in peaks]
