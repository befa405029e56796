import argparse
import hashlib
import json
import struct
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pbtkit import cli
from pbtkit.store import load_matrix, save_matrix

RNG = np.random.default_rng(31)


def test_matrix_file_roundtrip_bit_exact(tmp_path):
    mat = RNG.standard_normal((7, 5)) + 1j * RNG.standard_normal((7, 5))
    path = tmp_path / "m.mat"
    save_matrix(path, mat, labels=[{"row": i} for i in range(7)])
    back, meta = load_matrix(path)
    assert back.tobytes() == mat.astype(np.complex128).tobytes()
    assert meta["rows"] == 7 and meta["cols"] == 5
    assert meta["dtype"] == "complex-f64" and meta["endianness"] == "little"
    assert len(meta["labels"]) == 7


def test_matrix_file_rejects_corruption(tmp_path):
    mat = np.eye(3, dtype=complex)
    path = tmp_path / "m.mat"
    save_matrix(path, mat)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_matrix(path)


@pytest.mark.parametrize("change", ["truncated", "over-long"])
def test_matrix_file_rejects_wrong_payload_length(tmp_path, change):
    path = tmp_path / "m.mat"
    save_matrix(path, RNG.standard_normal((4, 3)) + 0j)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16] if change == "truncated" else raw + bytes(16))
    with pytest.raises(ValueError, match="payload length"):
        load_matrix(path)


def test_matrix_file_streamed_blocks_match_one_array(tmp_path):
    blocks = [RNG.standard_normal((r, 6)) + 1j * RNG.standard_normal((r, 6)) for r in (3, 1, 4)]
    blocks[1] = blocks[1].real  # real blocks are stored as complex
    whole = np.concatenate(blocks, axis=0)
    labels = [{"row": i} for i in range(8)]
    save_matrix(tmp_path / "one.mat", whole, labels)
    save_matrix(tmp_path / "blocks.mat", iter(blocks), labels)
    payload = whole.astype("<c16").tobytes()
    expected = b"PBTM" + struct.pack("<IQQ", 1, 8, 6) + payload
    assert (tmp_path / "one.mat").read_bytes() == expected
    assert (tmp_path / "blocks.mat").read_bytes() == expected
    sidecar = (tmp_path / "one.mat.json").read_text()
    assert (tmp_path / "blocks.mat.json").read_text() == sidecar
    assert json.loads(sidecar)["checksum"] == hashlib.sha256(payload).hexdigest()


def test_matrix_file_failed_stream_leaves_no_file(tmp_path):
    path = tmp_path / "m.mat"

    def blocks():
        yield np.eye(2, dtype=complex)
        raise RuntimeError("builder failed")

    with pytest.raises(RuntimeError):
        save_matrix(path, blocks())
    assert not path.exists()
    assert not (tmp_path / "m.mat.json").exists()


class DelayedDigest:
    """sha256 whose updates each start after the next of ``delays`` seconds,
    so the hasher thread may still run when the next block arrives."""

    def __init__(self, delays):
        self.inner = hashlib.sha256()
        self.delays = iter(delays)

    def update(self, data):
        time.sleep(next(self.delays))
        self.inner.update(data)

    def hexdigest(self):
        return self.inner.hexdigest()


def delay_the_hasher(monkeypatch, delays):
    from pbtkit import store

    monkeypatch.setattr(store, "hashlib", SimpleNamespace(sha256=lambda: DelayedDigest(delays)))


def test_matrix_file_failed_stream_joins_its_hasher(tmp_path, monkeypatch):
    delay_the_hasher(monkeypatch, [0.05] * 2)
    path = tmp_path / "m.mat"
    threads = threading.active_count()

    def blocks():
        yield np.eye(4)
        yield np.eye(4, dtype=complex)
        raise RuntimeError("builder failed")

    with pytest.raises(RuntimeError, match="builder failed"):
        save_matrix(path, blocks())
    assert threading.active_count() == threads
    assert not path.exists()
    assert not (tmp_path / "m.mat.json").exists()


def test_matrix_file_hashes_forty_blocks_in_order(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    delay_the_hasher(monkeypatch, rng.uniform(0.0, 0.004, 40))
    blocks = []
    for k in range(40):
        rows = int(rng.integers(1, 300))
        block = rng.standard_normal((rows, 96))
        blocks.append(block if k % 3 == 0 else block + 1j * rng.standard_normal((rows, 96)))
    whole = np.concatenate(blocks, axis=0)
    save_matrix(tmp_path / "one.mat", whole)
    save_matrix(tmp_path / "blocks.mat", iter(blocks))
    assert (tmp_path / "blocks.mat").read_bytes() == (tmp_path / "one.mat").read_bytes()
    payload = b"".join(np.ascontiguousarray(b, "<c16").tobytes() for b in blocks)
    sidecar = json.loads((tmp_path / "blocks.mat.json").read_text())
    assert sidecar["checksum"] == hashlib.sha256(payload).hexdigest()
    assert (tmp_path / "one.mat.json").read_text() == (tmp_path / "blocks.mat.json").read_text()


@pytest.mark.parametrize(
    "blocks",
    [[np.eye(2), np.ones((1, 3))], [np.eye(2), np.ones(2)], [], np.ones(3)],
    ids=["wrong-width", "not-2d", "empty", "vector"],
)
def test_matrix_file_rejects_bad_blocks(tmp_path, blocks):
    path = tmp_path / "m.mat"
    with pytest.raises(ValueError):
        save_matrix(path, blocks)
    assert not path.exists()
    assert not (tmp_path / "m.mat.json").exists()


def _count_pgm_function_calls(monkeypatch):
    from pbtkit import pbt

    calls = []
    inner = pbt.pgm_function

    def counted(*args):
        calls.append(args[3])
        return inner(*args)

    monkeypatch.setattr(pbt, "pgm_function", counted)
    return calls


def test_cli_export_kraus_streams_one_operator_at_a_time(tmp_path, monkeypatch):
    from pbtkit.pbt import kraus_from_twisted
    from pbtkit.schur import permutation_operator
    from pbtkit.symrep import transposition
    from pbtkit.twisted import build_twisted

    n, d, dim = 6, 3, 3**6
    path = tmp_path / "kraus.mat"
    calls = _count_pgm_function_calls(monkeypatch)
    tracemalloc.start()
    try:
        code = cli.main(["export", "kraus", "--n", str(n), "--d", str(d), str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert calls == [1]  # port 1's product only; the other ports are gathered
    assert peak < 64 * 2**20  # the five stacked operators alone take 40.5 MiB
    monkeypatch.undo()
    tw = build_twisted(n, d)
    k1 = kraus_from_twisted(n, d, tw, 1)
    # reference: V(1 i) K_1 V(1 i) by exchanging qudits 1 and i on both sides
    ref_ops = []
    for i in range(1, n):
        axes = list(range(2 * n))
        axes[0], axes[i - 1] = axes[i - 1], axes[0]
        axes[n], axes[n + i - 1] = axes[n + i - 1], axes[n]
        ref_ops.append(k1.reshape((d,) * (2 * n)).transpose(axes).reshape(dim, dim))
    ref = tmp_path / "ref.mat"
    save_matrix(ref, np.concatenate(ref_ops))
    assert path.read_bytes() == ref.read_bytes()
    assert (tmp_path / "kraus.mat.json").read_text() == (tmp_path / "ref.mat.json").read_text()
    kraus = load_matrix(path)[0].reshape(n - 1, dim, dim)
    for i, k in enumerate(kraus, start=1):
        s = permutation_operator(n, d, transposition(0, i - 1, n)).source_index()
        assert np.array_equal(k, k1[np.ix_(s, s)])
        assert np.abs(k - kraus_from_twisted(n, d, tw, i)).max() < 1e-15


def test_cli_export_kraus_one_port(tmp_path, monkeypatch):
    from pbtkit.pbt import kraus_from_twisted
    from pbtkit.twisted import build_twisted

    path = tmp_path / "kraus.mat"
    calls = _count_pgm_function_calls(monkeypatch)
    assert cli.main(["export", "kraus", "--n", "2", "--d", "3", str(path)]) == 0
    assert calls == [1]
    back, meta = load_matrix(path)
    assert (meta["rows"], meta["cols"]) == (9, 9)
    assert back.tobytes() == kraus_from_twisted(2, 3, build_twisted(2, 3), 1).astype(complex).tobytes()


def test_cli_export_kraus_has_zero_imaginary_parts(tmp_path):
    path = tmp_path / "kraus.mat"
    assert cli.main(["export", "kraus", "--n", "4", "--d", "2", str(path)]) == 0
    mat, meta = load_matrix(path)
    assert meta["dtype"] == "complex-f64" and mat.dtype == np.complex128
    assert mat.shape == (3 * 16, 16)
    assert not mat.imag.any() and mat.real.any()


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (3, 3), (4, 3)])
def test_cli_export_povm_is_the_closed_form(tmp_path, monkeypatch, n, d):
    from pbtkit.pbt import pgm_dense

    path = tmp_path / "povm.mat"
    calls = _count_pgm_function_calls(monkeypatch)
    assert cli.main(["export", "povm", "--n", str(n), "--d", str(d), str(path)]) == 0
    assert calls == [1]  # port 1's product only; the other ports are gathered
    monkeypatch.undo()
    dim = d**n
    ops = load_matrix(path)[0].reshape(n - 1, dim, dim)
    for op, ref in zip(ops, pgm_dense(n, d).operators, strict=True):
        assert np.abs(op - ref).max() < 1e-14
    assert np.abs(ops.sum(axis=0) - np.eye(dim)).max() < 1e-14


def test_cli_irreps(capsys):
    assert cli.main(["irreps", "--n", "3", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "(1),1,2,2,(2),3" in out
    assert "(1),1,2,2,(1,1),1" in out


def test_cli_irreps_n2(capsys):
    assert cli.main(["irreps", "--n", "2", "--d", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["irreps"][0]["alpha"] == "()"
    assert payload["irreps"][0]["lambda"] == {"(1)": 2.0}


def test_cli_rejects_bad_dims():
    with pytest.raises(SystemExit) as exc:
        cli.main(["irreps", "--n", "3", "--d", "0"])
    assert exc.value.code == 2


def test_cli_fidelity_monotone(capsys):
    assert cli.main(["fidelity", "--d", "2", "--n", "2..5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    values = [float(line.split(",")[2]) for line in lines]
    assert values[0] == 0.25
    assert all(b > a for a, b in zip(values, values[1:]))
    # 17-significant-digit output round-trips
    assert float(lines[1].split(",")[2]) == values[1]


def test_cli_verify_pass(capsys):
    assert cli.main(["verify", "--suite", "gram", "--n", "2..4", "--d", "2"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_schur_to_n9(capsys):
    assert cli.main(["verify", "--suite", "schur", "--n", "2..9", "--d", "2"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert "available" in capsys.readouterr().err


def test_cli_verify_kraus(capsys):
    assert cli.main(["verify", "--suite", "kraus", "--n", "3", "--d", "2"]) == 0


def test_cli_simulate(capsys):
    assert (
        cli.main(
            ["simulate", "--n", "3", "--d", "2", "--shots", "1000", "--seed", "7"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert len(payload["probabilities"]) == 2
    assert sum(payload["histogram"]["counts"]) == 1000


def test_cli_encode_ledger(capsys):
    assert cli.main(["encode", "--n", "3", "--d", "2", "--i", "1", "--mode", "padded"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measured_error"] < 1e-6
    names = [row["name"] for row in payload["ledger"]]
    assert "sqrtPi(i)" in names and "Phi" in names
    final = payload["ledger"][-1]
    assert final["ancilla_qubits"] == 12


def test_cli_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "schur.mat"
    assert cli.main(["export", "schur", "--n", "4", "--d", "2", str(path)]) == 0
    mat, meta = load_matrix(path)
    from pbtkit.schur import build_schur

    ref = build_schur(4, 2).matrix
    assert mat.tobytes() == ref.astype(complex).tobytes()
    assert len(meta["labels"]) == 16


def test_cli_export_povm(tmp_path):
    path = tmp_path / "povm.mat"
    assert cli.main(["export", "povm", "--n", "3", "--d", "2", str(path)]) == 0
    mat, _ = load_matrix(path)
    assert mat.shape == (16, 8)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["irreps"])  # missing required flags
    assert exc.value.code == 2


def _main_outcome(capsys, argv):
    """(stdout, stderr, exit code) of ``cli.main(argv)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus"],
        *([name, "-h"] for name in cli.COMMANDS),
        ["fidelity"],
        ["simulate", "--n", "3", "--d", "2", "--engine", "nope"],
        ["fidelity", "--d", "2", "--n", "2..3", "extra"],
        ["simulate", "--n", "x", "--d", "2"],
    ],
)
def test_cli_one_subcommand_parser_matches_the_full_tree(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    alone = _main_outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert alone == _main_outcome(capsys, argv)


def test_cli_valid_command_builds_one_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.main(["fidelity", "--d", "2", "--n", "2..3"]) == 0
    assert built == ["fidelity"]
    assert capsys.readouterr().out.startswith("n,d,fidelity\n")


def test_cli_simulate_runs_protocol_once(monkeypatch, capsys):
    from pbtkit import simulate

    calls = []
    real_run = simulate.run

    def counting_run(spec):
        calls.append(spec)
        return real_run(spec)

    monkeypatch.setattr(simulate, "run", counting_run)
    argv = ["simulate", "--n", "3", "--d", "2", "--shots", "1000", "--seed", "7"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    histogram = json.loads(capsys.readouterr().out)["histogram"]
    reference = simulate.sample(calls[0], 1000)
    assert histogram["counts"] == reference["counts"]


def test_cli_fidelity_rejects_every_n_in_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fidelity", "--d", "2", "--n", "1..3"])
    assert exc.value.code == 2
    assert "--n must be at least 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5..3", "a..3", "2.5"])
def test_cli_fidelity_rejects_malformed_range(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fidelity", "--d", "2", "--n", text])
    assert exc.value.code == 2
    assert "range lo..hi" in capsys.readouterr().err


def test_cli_bad_dims_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["irreps", "--n", "3", "--d", "0"])
    assert exc.value.code == 2
    assert "--d must be at least 1, got 0" in capsys.readouterr().err


def test_cli_encode_defaults_to_amplification_weights(capsys):
    from pbtkit.blockenc import amplification_weights

    assert cli.main(["encode", "--n", "3", "--d", "2", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["x"], payload["xp"]) == amplification_weights(3, 2)
    scale = payload["ledger"][-1]["scale"]
    assert abs(scale * np.sqrt(2) - 1 / np.sin(np.pi / 42)) < 1e-12


def test_cli_encode_too_large_is_usage_error(capsys):
    # refused by the size proxy (28.1 and 270.3 GiB) before the chain's
    # support, whose groups alone would take 1.76 GiB at (5,2), is built
    for n, d in ((5, 2), (4, 3)):
        tracemalloc.start()
        try:
            code = cli.main(["encode", "--n", str(n), "--d", str(d), "--i", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "GiB" in capsys.readouterr().err
        assert peak < 2**26


def test_cli_commands_never_enter_the_tree_apply(monkeypatch):
    # encode, the encode suite and the amplified engine read every block
    # from a restricted chain; the op tree's apply serves only as an oracle
    from pbtkit import blockenc, registers

    def refuse(*args, **kwargs):
        raise AssertionError("the tree apply was entered")

    for cls in (registers.Gate, registers.Branched, registers.Composite, registers.Sparse, registers.RestrictedProduct):
        monkeypatch.setattr(cls, "apply", refuse)
    monkeypatch.setattr(registers.Support, "scatter", refuse)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pbtkit" and hasattr(mod, "to_matrix"):
            monkeypatch.setattr(mod, "to_matrix", refuse)
    blockenc._pair_gate.cache_clear()  # so the padded pair gates are built here
    base = ["--n", "3", "--d", "2"]
    for argv in (
        ["encode", *base, "--i", "1"],
        ["encode", *base, "--i", "1", "--mode", "padded"],
        ["verify", "--suite", "encode", *base],
        ["simulate", *base, "--engine", "amplified-V", "--variant", "compressed"],
        ["simulate", *base, "--engine", "amplified-V", "--variant", "honest"],
    ):
        assert cli.main(argv) == 0, argv


def test_cli_export_schur_too_large_is_usage_error(tmp_path, capsys):
    path = tmp_path / "schur.mat"
    tracemalloc.start()
    try:
        code = cli.main(["export", "schur", "--n", "14", "--d", "2", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "4.0 GiB" in capsys.readouterr().err
    assert peak < 2**20  # the 4 GiB matrix was never allocated
    assert not path.exists()


@pytest.mark.parametrize("d", [2, 3])
def test_cli_fidelity_closed_form_to_n60(capsys, d):
    assert cli.main(["fidelity", "--d", str(d), "--n", "2..60"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(2, 61))
    values = [float(row.split(",")[2]) for row in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_cli_verify_fidelity_reports_residual(capsys):
    assert cli.main(["verify", "--suite", "fidelity", "--n", "2..8", "--d", "2"]) == 0
    out = capsys.readouterr().out
    residual = float(out.split("max residual")[1].split()[0])
    assert 0.0 < residual < 1e-12


def test_cli_verify_norm_reports_residual(capsys):
    # the norms stay below sqrt(d); the residual is the excess over it, not the norm
    assert cli.main(["verify", "--suite", "norm", "--n", "3..6", "--d", "2"]) == 0
    assert "pass  max residual 0  " in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["encode", "--n", "3", "--d", "2", "--i", "5"], "--i must be a port in 1..2, got 5"),
        (["encode", "--n", "3", "--d", "2", "--i", "0"], "--i must be a port in 1..2, got 0"),
        (["encode", "--n", "2", "--d", "2", "--i", "1"], "--n must be at least 3, got 2"),
        (
            ["simulate", "--n", "2", "--d", "2", "--engine", "amplified-V"],
            "--n must be at least 3, got 2",
        ),
        (["simulate", "--n", "3", "--d", "2", "--shots", "-5"], "--shots must be nonnegative"),
        (["verify", "--suite", "kraus", "--n", "1"], "--n must be at least 2, got 1"),
        (["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "0"], "--x must be positive"),
        (["encode", "--n", "3", "--d", "2", "--i", "1", "--xp", "0"], "--xp must be positive"),
        (["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "nan"], "--x must be positive"),
        (["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "inf"], "--x must be positive"),
        (["encode", "--n", "3", "--d", "2", "--i", "1", "--xp", "-1"], "--xp must be positive"),
        (["verify", "--suite", "yor", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (
            ["simulate", "--n", "3", "--d", "2", "--shots", "5", "--seed", "-1"],
            "--seed must be nonnegative, got -1",
        ),
        (
            ["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "1e200"],
            "--x must be positive and finite, between",
        ),
        (
            ["encode", "--n", "3", "--d", "2", "--i", "1", "--xp", "1e300"],
            "--xp must be positive and finite, between",
        ),
        (
            ["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "1e150"],
            "--x must be positive and finite, between",
        ),
        (
            ["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "1e-200"],
            "--x must be positive and finite, between",
        ),
        (
            ["encode", "--n", "3", "--d", "2", "--i", "1", "--x", "0.5"],
            "--x must be positive and finite, between",
        ),
    ],
)
def test_cli_bad_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,gib",
    [
        (["export", "kraus", "--n", "13", "--d", "2"], "6.0 GiB"),
        (["export", "povm", "--n", "13", "--d", "2"], "6.0 GiB"),
    ],
)
def test_cli_dense_too_large_is_usage_error(tmp_path, capsys, argv, gib):
    path = tmp_path / "out.mat"
    argv = argv + [str(path)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert gib in capsys.readouterr().err
    assert peak < 2**20  # nothing dense was built
    assert not path.exists()


@pytest.mark.parametrize("n,d,gib", [(11, 2, "2.5 GiB"), (8, 3, "18.0 GiB")])
def test_cli_compressed_dilation_too_large_is_usage_error(monkeypatch, capsys, n, d, gib):
    # the n-1 dilations' physical blocks are counted before the twisted transform
    from pbtkit import simulate

    def refused(*args, **kwargs):
        raise AssertionError("built past the guard")

    monkeypatch.setattr(simulate, "build_twisted", refused)
    argv = ["simulate", "--n", str(n), "--d", str(d), "--engine", "amplified-V"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and gib in err
    assert peak < 2**20  # nothing dense was built


@pytest.mark.parametrize("n,d", [(9, 2), (6, 3), (10, 2), (7, 3)])
def test_compressed_dilation_under_the_guard_passes(n, d):
    from pbtkit.simulate import guard_dilation

    guard_dilation(n, d)  # 0.13, 0.16, 0.56 and 1.71 GiB


@pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
def test_cli_amplified_layout_past_the_guard_is_usage_error(monkeypatch, capsys, n, d):
    # the honest protocol layout holds 7.5e9 amplitudes at (5,2) and 5.4e10
    # at (4,3): it is refused before its masks or its support are built
    from pbtkit import simulate

    def refused(*args, **kwargs):
        raise AssertionError("built past the guard")

    monkeypatch.setattr(simulate, "_layout_mask", refused)
    monkeypatch.setattr(simulate, "amplified_V", refused)
    argv = ["simulate", "--n", str(n), "--d", str(d), "--engine", "amplified-V"]
    assert cli.main(argv + ["--variant", "honest"]) == 2
    assert "guard" in capsys.readouterr().err


def test_cli_simulate_runs_where_the_exports_are_refused(capsys):
    # the dense-W engine is the closed-form channel, so no size guard applies
    assert cli.main(["simulate", "--n", "13", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 13


@pytest.fixture
def count_twisted_builds(monkeypatch):
    from pbtkit import pbt, twisted

    builds = []
    inner = twisted.build_twisted

    def counted(*args, **kwargs):
        builds.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(pbt, "build_twisted", counted)
    monkeypatch.setattr(twisted, "build_twisted", counted)
    return builds


@pytest.mark.parametrize("obj", ["kraus", "povm", "twisted"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_export_unwritable_path_is_usage_error(
    tmp_path, capsys, count_twisted_builds, obj, where
):
    target = tmp_path / "missing" / "k.mat" if where == "missing-directory" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", obj, "--n", "3", "--d", "2", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert not (tmp_path.parent / f"{tmp_path.name}.json").exists()
    assert count_twisted_builds == []  # the path was refused before the build


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_output_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main(["encode", "--n", "3", "--d", "2", "--i", "1", "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == []


def test_cli_simulate_unwritable_output_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    from pbtkit import simulate

    def refuse(*args, **kwargs):
        raise AssertionError("the protocol ran before the output was opened")

    monkeypatch.setattr(simulate, "run", refuse)
    target = tmp_path / "missing" / "x.json"
    argv = ["simulate", "--n", "3", "--d", "2", "--engine", "amplified-V", "--output", str(target)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == []


def test_cli_output_is_replaced_only_by_a_finished_run(tmp_path, monkeypatch):
    from pbtkit import simulate

    target = tmp_path / "x.json"
    target.write_text("a longer file already at the path\n" * 20)
    assert cli.main(["fidelity", "--d", "2", "--n", "2..3", "--output", str(target)]) == 0
    written = target.read_text()
    assert written.startswith("n,d,fidelity\n") and written.count("\n") == 3

    def fail(*args, **kwargs):
        raise ValueError("failed run")

    monkeypatch.setattr(simulate, "run", fail)
    argv = ["simulate", "--n", "3", "--d", "2", "--output"]
    assert cli.main(argv + [str(target)]) == 1
    assert target.read_text() == written
    assert cli.main(argv + [str(tmp_path / "new.json")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
