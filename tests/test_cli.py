"""Subcommand behavior: outputs, determinism, sidecars, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kwmix import cli
from oracles import distinct_gates, load_kernel_dump


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_congestion_csv(capsys):
    code, out, _ = run_cli(capsys, "congestion", "--k", "3", "--N", "8")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("k,N,A_delta_exact,paper_bound_19,formula_bound")
    cells = row.split(",")
    assert float(cells[2]) <= 19.0


def test_congestion_prints_plain_argmax_edge(capsys):
    code, out, _ = run_cli(capsys, "congestion", "--k", "4", "--N", "9",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["argmax_edge"] == "(0, 1, 2, 3)->(0, 1, 2, 4)"


def test_seed_is_refused_where_nothing_is_random(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--chain", "ucc", "--k", "2", "--N", "4", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_gap_json(capsys):
    code, out, _ = run_cli(capsys, "gap", "--chain", "ucc", "--k", "2",
                           "--N", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["spectral_gap"] == pytest.approx(0.5, abs=1e-12)


def test_lsc_search_reports_margin(capsys):
    code, out, _ = run_cli(capsys, "lsc-search", "--chain", "ucc", "--k", "2",
                           "--N", "4", "--restarts", "20", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["best_ratio"] > 0
    assert obj["margin"] > 0
    assert obj["paper_bound_log2"] < obj["paper_bound"]


def test_lsc_search_appends_its_evaluation_count(capsys):
    args = ("lsc-search", "--chain", "ucc", "--k", "2", "--N", "4", "--restarts", "5")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["kernel", "restarts", "best_ratio", "paper_bound", "margin",
                         "paper_bound_log2", "margin_log2", "evaluations"]
    assert obj["evaluations"] >= 5
    code, out, _ = run_cli(capsys, *args)
    header, row = out.strip().split("\n")
    assert header.endswith(",margin_log2,evaluations")
    assert row.endswith(f",{obj['evaluations']}")


def test_lsc_search_is_seed_deterministic(capsys):
    args = ("lsc-search", "--chain", "ucc", "--k", "2", "--N", "5", "--restarts", "6")
    outputs = {seed: [run_cli(capsys, *args, "--seed", seed)[1] for _ in range(2)]
               for seed in ("0", "1")}
    assert outputs["0"][0] == outputs["0"][1]
    assert outputs["1"][0] == outputs["1"][1]
    assert outputs["0"][0] != outputs["1"][0]


def test_lsc_search_does_not_depend_on_blas_threads():
    # ucc k=3 N=10 has 17280 edges, where a BLAS dot would be threaded
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["lsc-search", "--chain", "ucc", "--k", "3", "--N", "10", "--restarts", "4"]
    code = f"import sys; from kwmix.cli import main; sys.exit(main({argv!r}))"
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    runs = [subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                           text=True, check=True).stdout
            for child_env in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})]
    assert runs[0] == runs[1]
    assert "ucc(k=3,N=10)" in runs[0]


def test_chain_rule_check(capsys):
    code, out, _ = run_cli(capsys, "chain-rule-check", "--k", "2", "--N", "5",
                           "--count", "10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_rel_residual"] <= 1e-10


def test_compare_check(capsys):
    code, out, _ = run_cli(capsys, "compare-check", "--k", "2", "--N", "5",
                           "--count", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-12


def test_mix_exact_series(capsys):
    code, out, _ = run_cli(capsys, "mix-exact", "--chain", "rev", "--n", "3",
                           "--k", "2", "--eps", "0.25", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["tau"] >= 1
    tvs = [p["tv"] for p in obj["series"]]
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


@pytest.mark.parametrize("argv", [
    ("--chain", "rev", "--n", "4", "--k", "2"),
    ("--chain", "grev", "--n", "5", "--k", "2", "--part-w", "2", "--part-p", "2"),
    ("--chain", "ucc", "--k", "2", "--N", "5"),
])
def test_mix_exact_evolves_once_and_matches_the_library(capsys, monkeypatch, argv):
    from kwmix import mixing
    from kwmix.mixing import mixing_time_exact

    evolutions = []
    original = mixing._evolution

    def counted(kernel, starts):
        evolutions.append(kernel.size)
        return original(kernel, starts)

    monkeypatch.setattr(mixing, "_evolution", counted)
    code, out, _ = run_cli(capsys, "mix-exact", *argv, "--format", "json")
    assert code == 0 and len(evolutions) == 1
    obj = json.loads(out)
    assert len(obj["series"]) == max(2 * obj["tau"], 1) + 1
    monkeypatch.setattr(mixing, "_evolution", original)
    kernel = cli.build_kernel(cli._spec_from_args(cli.build_parser().parse_args(
        ["mix-exact", *argv])))
    assert obj["tau"] == mixing_time_exact(kernel, 0.25)


def test_every_chain_command_takes_every_family(capsys):
    # the --chain choices are chains.FAMILIES; what a family cannot run is
    # refused by the library: grev has no draw rule for mix-mc to sample
    code, out, _ = run_cli(capsys, "lsc-search", "--chain", "grev", "--n", "4", "--k", "2",
                           "--part-w", "1", "--part-p", "2", "--restarts", "6",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert 0 < obj["best_ratio"] < math.inf and obj["paper_bound"] is None
    code, out, _ = run_cli(capsys, "mix-mc", "--chain", "complete", "--N", "4", "--t", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["states"] == 4 and obj["p_value"] > 0.001
    code, out, err = run_cli(capsys, "mix-mc", "--chain", "grev", "--n", "5", "--k", "2",
                             "--part-w", "2", "--part-p", "2", "--t", "3")
    assert code == 2 and out == ""
    assert err == ("kwmix: invalid configuration: sample_chain runs rev, cc, ucc, "
                   "complete and tgrev, not grev\n")


def test_mix_mc(capsys):
    code, out, _ = run_cli(capsys, "mix-mc", "--chain", "ucc", "--k", "2",
                           "--N", "4", "--t", "30", "--samples", "20000",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["p_value"] > 0.001
    assert obj["empirical_tv"] < 0.05


def test_kwise_exact_series(capsys):
    code, out, _ = run_cli(capsys, "kwise-exact", "--n", "3", "--k", "2",
                           "--t", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"][0]["tv"] == pytest.approx(1 - 1 / 56, abs=1e-13)
    assert obj["final_tv"] < obj["series"][0]["tv"]


def test_kwise_test(capsys):
    code, out, _ = run_cli(capsys, "kwise-test", "--n", "6", "--k", "2",
                           "--gates", "200", "--samples", "20000",
                           "--statistic", "xor", "--bins", "16",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"n", "k", "gates", "M", "statistic", "chi2", "dof",
                        "p_value", "seed", "gate_mode"}
    assert obj["p_value"] > 0.001


def test_generic_frac_exact(capsys):
    code, out, _ = run_cli(capsys, "generic-frac", "--n", "2", "--k", "2",
                           "--part-w", "1", "--part-p", "1", "--exact",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["fraction_numerator"] == 2
    assert obj["fraction_denominator"] == 3


def test_generic_frac_exact_refuses_seed(capsys):
    argv = ["generic-frac", "--n", "4", "--k", "2", "--part-w", "1", "--part-p", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--exact", "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(
        "argument --seed: not allowed with argument --exact")
    outs = [run_cli(capsys, *argv, "--seed", seed) for seed in ("1", "1", "2")]
    assert all(code == 0 for code, _, _ in outs)
    assert outs[0][1] == outs[1][1] != outs[2][1]
    assert outs[0][1].strip().endswith(",1")


@pytest.mark.parametrize("argv", [
    ("generic-frac", "--n", "2", "--k", "5", "--part-w", "1", "--part-p", "1"),
    ("kwise-test", "--n", "3", "--k", "9", "--gates", "5", "--samples", "10",
     "--sampler", "uniform", "--statistic", "lowbits", "--bins", "2"),
])
def test_more_rows_than_strings_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "1 <= k <= 2^n" in err


@pytest.mark.parametrize("sampler", ["circuit", "uniform"])
def test_negative_gate_count_exits_2(capsys, sampler):
    code, out, err = run_cli(capsys, "kwise-test", "--n", "6", "--k", "2",
                             "--gates", "-3", "--samples", "100", "--sampler", sampler)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "need gates >= 0, got -3" in err


@pytest.mark.parametrize("chain", [("complete", "--N", "1"),
                                   ("ucc", "--k", "1", "--N", "1")], ids=lambda c: c[0])
def test_one_state_gap_exits_2(capsys, chain):
    code, out, err = run_cli(capsys, "gap", "--chain", *chain)
    assert code == 2
    assert out == ""
    assert err == "kwmix: invalid configuration: spectral gap needs at least 2 states, got 1\n"


def test_tgrev_verify(capsys):
    code, out, _ = run_cli(capsys, "tgrev-verify", "--n", "3", "--k", "2",
                           "--part-w", "2", "--part-p", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["passes"] is True


def test_gap_and_tgrev_verify_above_ten_thousand_states(capsys):
    part = ("--n", "5", "--k", "3", "--part-w", "2", "--part-p", "1", "--format", "json")
    code, out, _ = run_cli(capsys, "gap", "--chain", "tgrev", *part)
    assert code == 0
    obj = json.loads(out)
    assert obj["states"] == 12288
    assert obj["spectral_gap"] == pytest.approx(1 / 18, abs=1e-12)
    code, out, _ = run_cli(capsys, "tgrev-verify", *part)
    assert code == 0
    assert json.loads(out)["passes"] is True


def test_reducible_kernel_has_no_roundoff_gap(capsys):
    # 2^w = k: no block value is ever free, so the block tuples never move
    part = ("--n", "3", "--k", "2", "--part-w", "1", "--part-p", "1")
    code, out, err = run_cli(capsys, "gap", "--chain", "tgrev", *part)
    assert code == 2 and out == ""
    assert "2 strongly connected classes" in err
    # the verifier's factorization still holds; the reducible gaps are exact zeros
    code, out, _ = run_cli(capsys, "tgrev-verify", *part, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["gap_product"] == obj["gap_blocks"] == obj["gap_identity_error"] == 0
    assert obj["passes"] is True


def test_kernel_dump_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "kernel.dump"
    code, _, _ = run_cli(capsys, "kernel-dump", "--chain", "cc", "--k", "2",
                         "--N", "4", "--out", str(out_file))
    assert code == 0
    with open(out_file) as fp:
        header, triples = load_kernel_dump(fp)
    assert header["family"] == "cc" and header["k"] == 2 and header["N"] == 4
    sums = {}
    for r, _, p in triples:
        sums[r] = sums.get(r, 0.0) + p
    assert max(abs(s - 1.0) for s in sums.values()) <= 1e-12

    # 17 significant digits give a bit-exact decimal round trip
    from kwmix.chains import ChainSpec, build_kernel

    kernel = build_kernel(ChainSpec(family="cc", k=2, ncolors=4))
    dense = kernel.dense()
    assert len(triples) == kernel.matrix.nnz
    for r, c, p in triples:
        assert p == dense[r, c]


@pytest.mark.parametrize("argv", [
    "--chain ucc --k 3 --N 5", "--chain cc --k 2 --N 4", "--chain complete --N 7",
    "--chain rev --n 4 --k 2", "--chain grev --n 5 --k 2 --part-w 2 --part-p 2",
])
def test_kernel_dump_streams_the_library_dump_byte_for_byte(argv, tmp_path, capsys):
    import io

    from kwmix.reports import dump_kernel

    buf = io.StringIO()
    dump_kernel(cli.build_kernel(cli._spec_from_args(cli.build_parser().parse_args(
        ["kernel-dump", *argv.split()]))), buf)
    code, out, err = run_cli(capsys, "kernel-dump", *argv.split())
    assert (code, out, err) == (0, buf.getvalue(), "")
    path = tmp_path / "kernel.dump"
    code, out, _ = run_cli(capsys, "kernel-dump", *argv.split(), "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == buf.getvalue().encode()
    sidecar = json.loads((tmp_path / "kernel.dump.meta.json").read_text())
    assert sidecar["command"] == ["kernel-dump", *argv.split(), "--out", str(path)]


def test_kernel_dump_holds_no_copy_of_its_text(tmp_path, capsys):
    # rev k=3 n=5: a 30 MB dump of a kernel whose build peaks at about
    # 35 MB of traced memory. Streamed in pieces, the command peaks near
    # the build; a whole-text copy would add more than the dump's size.
    import tracemalloc

    argv = ["kernel-dump", "--chain", "rev", "--n", "5", "--k", "3"]
    spec = cli._spec_from_args(cli.build_parser().parse_args(argv))
    tracemalloc.start()
    try:
        kernel = cli.build_kernel(spec)
        build_peak = tracemalloc.get_traced_memory()[1]
        del kernel
        tracemalloc.reset_peak()
        path = tmp_path / "kernel.dump"
        assert cli.main(argv + ["--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 20e6
    assert peak < build_peak + size / 2, (peak, build_peak, size)


def test_kernel_dump_ignores_format_as_its_help_says(capsys):
    outs = {fmt: run_cli(capsys, "kernel-dump", "--chain", "cc", "--k", "2", "--N", "4",
                         "--format", fmt) for fmt in ("csv", "json")}
    assert outs["csv"] == outs["json"] and outs["csv"][0] == 0
    with pytest.raises(SystemExit):
        cli.main(["kernel-dump", "--help"])
    assert "--format {csv,json} ignored:" in " ".join(capsys.readouterr().out.split())


_PARTITION_5_2_2_2 = ('"partition": {"n": 5, "k": 2, "w": 2, "p": 2, '
                      '"blocks": [[0, 1], [2, 3]], "remainder": [4]}')


@pytest.mark.parametrize("argv, header", [
    ("--chain rev --n 3 --k 2",
     '{"family": "rev", "k": 2, "n": 3, "gate_mode": "parameter"}'),
    ("--chain rev --n 4 --gate-mode set",
     '{"family": "rev", "k": 1, "n": 4, "gate_mode": "set"}'),
    ("--chain grev --n 5 --k 2 --part-w 2 --part-p 2",
     '{"family": "grev", "k": 2, "n": 5, "gate_mode": "parameter", '
     + _PARTITION_5_2_2_2 + "}"),
    ("--chain grev --n 4 --part-w 1 --part-p 2 --gate-mode set",
     '{"family": "grev", "k": 1, "n": 4, "gate_mode": "set", "partition": {"n": 4, '
     '"k": 1, "w": 1, "p": 2, "blocks": [[0], [1]], "remainder": [2, 3]}}'),
    ("--chain tgrev --n 5 --k 2 --part-w 2 --part-p 2",
     '{"family": "tgrev", "k": 2, "n": 5, ' + _PARTITION_5_2_2_2 + "}"),
    ("--chain cc --k 2 --N 4", '{"family": "cc", "k": 2, "N": 4}'),
    ("--chain ucc --k 3 --N 5", '{"family": "ucc", "k": 3, "N": 5}'),
    ("--chain complete --N 4", '{"family": "complete", "N": 4}'),
], ids=["rev", "rev-set", "grev", "grev-set", "tgrev", "cc", "ucc", "complete"])
def test_kernel_dump_header_of_every_family(capsys, argv, header):
    code, out, _ = run_cli(capsys, "kernel-dump", *argv.split())
    assert code == 0
    assert out.split("\n", 1)[0] == header


def test_kernel_dump_header_of_a_product_kernel():
    import io

    from kwmix.chains import ChainSpec, build_kernel, product_kernel
    from kwmix.reports import dump_kernel

    buf = io.StringIO()
    dump_kernel(product_kernel([build_kernel(ChainSpec(family="complete", ncolors=2)),
                                build_kernel(ChainSpec(family="ucc", k=2, ncolors=3))]), buf)
    assert buf.getvalue().split("\n", 1)[0] == (
        '{"family": "product", "factors": [{"family": "complete", "N": 2}, '
        '{"family": "ucc", "k": 2, "N": 3}]}')


def test_determinism_and_sidecar_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["kwise-test", "--n", "6", "--k", "2", "--gates", "30",
            "--samples", "5000", "--bins", "16", "--seed", "3"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert sidecar["params"]["seed"] == 3
    assert "wall_time_s" in sidecar

    # replaying the sidecar command reproduces the result byte for byte
    first = out1.read_bytes()
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps({"command": sidecar["command"]}))
    assert cli.main(["batch", str(batch_file)]) == 0
    assert out1.read_bytes() == first
    capsys.readouterr()


def test_exit_code_invalid_config(capsys):
    code, _, err = run_cli(capsys, "gap", "--chain", "cc", "--k", "5", "--N", "3")
    assert code == 2
    assert "invalid configuration" in err


def test_exit_code_state_cap(capsys, monkeypatch):
    monkeypatch.setenv("KWM_STATE_CAP", "10")
    code, _, err = run_cli(capsys, "gap", "--chain", "ucc", "--k", "2", "--N", "6")
    assert code == 3
    assert "state cap" in err


def test_state_cap_messages_name_what_they_count(capsys, monkeypatch):
    # complete(N=4) has 4 states but 16 kernel entries, and so have ucc and
    # cc at k = 1, whose one vertex recolors as the complete graph; every
    # other kernel counts states. The caps are tiny, so nothing is allocated.
    monkeypatch.setenv("KWM_STATE_CAP", "15")
    code, out, err = run_cli(capsys, "gap", "--chain", "complete", "--N", "4")
    assert code == 3 and out == ""
    assert err == ("kwmix: state cap exceeded: complete(N=4) has 16 kernel entries, "
                   "cap is 15\n")
    for family in ("ucc", "cc"):
        code, out, err = run_cli(capsys, "gap", "--chain", family, "--N", "4")
        assert code == 3 and out == ""
        assert err == (f"kwmix: state cap exceeded: {family}(k=1,N=4) has 16 kernel "
                       "entries, cap is 15\n")
    code, out, err = run_cli(capsys, "gap", "--chain", "ucc", "--k", "2", "--N", "6")
    assert code == 3 and out == ""
    assert err == "kwmix: state cap exceeded: ucc(k=2,N=6) has 30 states, cap is 15\n"
    monkeypatch.setenv("KWM_STATE_CAP", "16")
    for family in ("complete", "ucc", "cc"):
        code, _, _ = run_cli(capsys, "gap", "--chain", family, "--N", "4")
        assert code == 0


def test_exit_code_out_of_memory(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 7.1 GiB for an array")

    monkeypatch.setattr(cli, "build_kernel", exhausted)
    code, out, err = run_cli(capsys, "mix-exact", "--chain", "rev", "--n", "5",
                             "--k", "3")
    assert code == 3 and out == ""
    assert err == "kwmix: out of memory: Unable to allocate 7.1 GiB for an array\n"


def test_exit_code_invariant_violation(capsys, monkeypatch):
    from kwmix.errors import InvariantViolation

    def boom(args):
        raise InvariantViolation("synthetic")

    monkeypatch.setitem(cli._RUNNERS, "gap", boom)
    code, _, err = run_cli(capsys, "gap", "--chain", "ucc", "--k", "2", "--N", "4")
    assert code == 4
    assert "invariant" in err


def test_eigensolver_failures_exit_2_and_4(capsys, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from kwmix import analysis

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("synthetic", np.array([]), np.array([]))

    argv = ("gap", "--chain", "ucc", "--k", "3", "--N", "8")
    monkeypatch.setattr(analysis, "eigsh", no_convergence)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "did not converge" in err
    monkeypatch.setattr(analysis, "eigsh", lambda *a, **kw: np.array([0.5, 0.999]))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert "top eigenvalue" in err


def test_batch_of_identical_gap_commands_prints_identical_bytes(tmp_path, capsys):
    argv = ["gap", "--chain", "ucc", "--k", "3", "--N", "8"]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps([argv, argv]))
    assert cli.main(["batch", str(batch_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[:2] == lines[2:]


GAP_ARGV = ["gap", "--chain", "ucc", "--k", "2", "--N", "4"]


@pytest.mark.parametrize("payload", [
    None,                                     # no such file
    "{not json",
    json.dumps([{"params": {}}]),             # object without "command"
    json.dumps([GAP_ARGV, 5]),                # entry that is no argv list
    json.dumps([GAP_ARGV, ["gap", 4]]),
    json.dumps("gap"),
])
def test_unreadable_batch_exits_2_before_any_command(tmp_path, capsys, payload):
    batch_file = tmp_path / "batch.json"
    if payload is not None:
        batch_file.write_text(payload)
    code, out, err = run_cli(capsys, "batch", str(batch_file))
    assert (code, out) == (2, "")
    assert err.startswith("kwmix: invalid configuration: ") and err.count("\n") == 1


def test_batch_runs_every_entry_after_an_argparse_rejection(tmp_path, capsys):
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps([["gap"], GAP_ARGV]))
    code, out, err = run_cli(capsys, "batch", str(batch_file))
    assert code == 2
    assert "required: --chain" in err
    assert out.splitlines()[0] == "kernel,states,spectral_gap"


@pytest.mark.parametrize("nested", ["self", "other"])
def test_batch_that_lists_a_batch_exits_2_before_any_command(tmp_path, capsys, nested):
    batch_file = tmp_path / "batch.json"
    other = tmp_path / "other.json"
    other.write_text(json.dumps([GAP_ARGV]))
    target = batch_file if nested == "self" else other
    batch_file.write_text(json.dumps([GAP_ARGV, ["batch", str(target)]]))
    code, out, err = run_cli(capsys, "batch", str(batch_file))
    assert (code, out) == (2, "")
    assert err.startswith("kwmix: invalid configuration: ") and "is itself a batch" in err


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "gap.csv"
    code, stdout, err = run_cli(capsys, *GAP_ARGV, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("kwmix: invalid configuration: ") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("subcommand", ["chain-rule-check", "compare-check"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_count_exits_2(capsys, subcommand, count):
    code, out, err = run_cli(capsys, subcommand, "--k", "2", "--N", "3", "--count", count)
    assert (code, out) == (2, "")
    assert err == f"kwmix: invalid configuration: need --count >= 1, got {count}\n"


@pytest.mark.parametrize("argv,code,message,spied", [
    (("chain-rule-check", "--k", "4", "--N", "120", "--count", "1"), 3,
     "state cap exceeded: tuple function(k=4,N=120) has 197149680 states",
     ("analysis", "make_rng")),
    (("compare-check", "--k", "11", "--N", "11"), 2, "need 1 <= k < N",
     ("comparison", "build_kernel")),
    (("compare-check", "--k", "8", "--N", "8"), 2, "need 1 <= k < N",
     ("comparison", "build_kernel")),
], ids=["chain-rule-cap", "compare-k11-N11", "compare-k8-N8"])
def test_checks_refuse_before_drawing_or_building(capsys, monkeypatch, argv, code,
                                                  message, spied):
    import importlib

    def never(*args, **kwargs):
        raise AssertionError(f"{spied[1]} was called before the refusal")

    monkeypatch.setattr(importlib.import_module(f"kwmix.{spied[0]}"), spied[1], never)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1


def test_cli_imports_no_private_kwmix_name():
    import ast

    # relative imports, and absolute ones from the package; dunders such as
    # __version__ are public
    with open(cli.__file__) as fp:
        tree = ast.parse(fp.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "kwmix")
             for alias in node.names]
    assert "build_kernel" in names
    assert [n for n in names if n.startswith("_") and not n.endswith("__")] == []


def test_cli_imports_neither_numpy_nor_rng():
    import ast

    # the CLI parses, makes one library call per subcommand and renders:
    # it has no array to compute and nothing to draw
    with open(cli.__file__) as fp:
        tree = ast.parse(fp.read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "kwmix" if node.level else ""
            module = ".".join(filter(None, [package, node.module]))
            modules += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert "kwmix.analysis" in modules
    assert [m for m in modules if m.split(".")[0] == "numpy" or m == "kwmix.rng"] == []


def test_mix_exact_without_mixing_exits_2(capsys):
    code, out, err = run_cli(capsys, "mix-exact", "--chain", "rev", "--n", "3",
                             "--k", "2", "--max-steps", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "no mixing within 0 steps" in err and "--max-steps" in err


def test_reducible_kernel_exits_2_before_stepping(capsys, monkeypatch):
    # 2^w = k: no row can change its block value, so 4 closed classes
    from kwmix import mixing

    def never(kernel, starts):
        raise AssertionError("a reducible kernel was evolved")

    monkeypatch.setattr(mixing, "_evolution", never)
    code, out, err = run_cli(capsys, "mix-exact", "--chain", "tgrev", "--n", "5",
                             "--k", "2", "--part-w", "1", "--part-p", "2")
    assert code == 2 and out == ""
    assert "4 strongly connected classes" in err


def _k1_gate_gap(n: int, gate_mode: str) -> float:
    """Spectral gap of the one-row gate chain: a lazy hypercube walk (1/n)
    under the parameter measure; under the set measure each of the D(n)
    distinct permutations flips bit t by a function f of the other bits,
    and the gap is 2 (1 + (n-1) + 5 C(n-1, 2)) / D(n)."""
    if gate_mode == "parameter":
        return 1 / n
    return 2 * (1 + (n - 1) + 5 * math.comb(n - 1, 2)) / distinct_gates(n)


@pytest.mark.parametrize("chain", [
    ("--chain", "rev"),
    ("--chain", "grev", "--part-w", "4", "--part-p", "1"),
])
def test_gate_kernels_above_twelve_wires_build_exactly(capsys, chain):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gap", *chain, "--n", "13", "--k", "1",
                                 "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert json.loads(out)["states"] == 8192
    assert peak < 20 * 2**20  # no gate tables: the state cap bounds the kernel
    for n in range(4 if chain[1] == "grev" else 3, 14):
        for gate_mode in ("parameter", "set"):
            code, out, _ = run_cli(capsys, "gap", *chain, "--n", str(n), "--k", "1",
                                   "--gate-mode", gate_mode, "--format", "json")
            assert code == 0
            gap = json.loads(out)["spectral_gap"]
            assert gap == pytest.approx(_k1_gate_gap(n, gate_mode), abs=1e-12), (n, gate_mode)


def test_uniform_sampler_with_k_equal_to_two_to_the_n(capsys):
    code, out, _ = run_cli(capsys, "kwise-test", "--n", "4", "--k", "16", "--gates", "5",
                           "--samples", "10", "--sampler", "uniform",
                           "--statistic", "lowbits", "--bins", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("4,16,5,10,lowbits,2,")


def test_mix_mc_refuses_too_few_samples_per_state(capsys):
    # 50 samples over the 240 states of rev(k=2, n=4): 0.21 expected each
    code, out, err = run_cli(capsys, "mix-mc", "--chain", "rev", "--n", "4",
                             "--k", "2", "--t", "10", "--samples", "50")
    assert code == 2
    assert out == ""
    assert err == ("kwmix: invalid configuration: 50 samples over 240 states expect 0.208 in "
                   "the least likely state; the chi-square test needs at least 5\n")


def test_too_few_samples_never_reads_as_enough(capsys):
    # 1199 / 240 = 4.996 expected per state, which 3 digits round to 5
    code, out, err = run_cli(capsys, "mix-mc", "--chain", "rev", "--n", "4",
                             "--k", "2", "--t", "3", "--samples", "1199")
    assert code == 2
    assert out == ""
    assert err == ("kwmix: invalid configuration: 1199 samples over 240 states expect 4.996 in "
                   "the least likely state; the chi-square test needs at least 5\n")


def test_kwise_test_refuses_bins_that_expect_too_few_samples(capsys):
    # 10 samples over the 63 nonzero xor bins: 0.159 expected each
    code, out, err = run_cli(capsys, "kwise-test", "--n", "6", "--k", "2", "--gates", "5",
                             "--samples", "10", "--bins", "64")
    assert code == 2
    assert out == ""
    assert "invalid configuration" in err and "at least 5" in err


def test_hamming_pools_its_sparse_end_bins(capsys):
    # 100000 samples over 17 bins expect 1.53 in each end bin; weights <= 1
    # and >= 15 pooled expect 25.9
    argv = ("kwise-test", "--n", "16", "--k", "2", "--gates", "10", "--samples", "100000",
            "--statistic", "hamming", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    obj = json.loads(out)
    assert code == 0 and (obj["bins"], obj["dof"]) == (15, 14)
    code, out, err = run_cli(capsys, *argv, "--bins", "17")
    assert code == 2 and out == ""
    assert "100000 samples over 17 bins expect 1.53" in err
    code, out, _ = run_cli(capsys, *argv, "--sampler", "uniform")
    assert code == 0 and json.loads(out)["p_value"] > 0.001


# kwise-test --statistic hamming --bins n+1 --gates 20 --samples 6000
# --seed n --format json, as printed before the end bins could be pooled;
# re-pinned when the samples stopped being split over eight streams and
# all came from the one stream of the seed
HAMMING_N_PLUS_ONE = {
    3: '"bins": 4, "chi2": 0.9377777777777776, "dof": 3, "p_value": 0.81630290003659312',
    4: '"bins": 5, "chi2": 7.2297777777777767, "dof": 4, "p_value": 0.12423242194363898',
    5: '"bins": 6, "chi2": 4.1600000000000001, "dof": 5, "p_value": 0.52661753609405848',
    6: '"bins": 7, "chi2": 44.419911111111105, "dof": 6, "p_value": 6.1018695728324434e-08',
    7: '"bins": 8, "chi2": 91.22092698412699, "dof": 7, "p_value": 6.9444368910414066e-17',
    8: '"bins": 9, "chi2": 277.92320000000001, "dof": 8, "p_value": 2.040263173410995e-55',
    9: '"bins": 10, "chi2": 438.99462433862436, "dof": 9, "p_value": 6.4540910077374614e-89',
    10: '"bins": 11, "chi2": 959.52064338624336, "dof": 10, "p_value": 9.7780934707513521e-200',
}


@pytest.mark.parametrize("n", sorted(HAMMING_N_PLUS_ONE))
def test_hamming_over_n_plus_one_bins_prints_the_same_bytes(capsys, n):
    code, out, _ = run_cli(capsys, "kwise-test", "--n", str(n), "--k", "2", "--gates", "20",
                           "--samples", "6000", "--statistic", "hamming",
                           "--bins", str(n + 1), "--seed", str(n), "--format", "json")
    assert code == 0
    assert out == (f'{{"n": {n}, "k": 2, "gates": 20, "M": 6000, "statistic": "hamming", '
                   f'{HAMMING_N_PLUS_ONE[n]}, "seed": {n}, "gate_mode": "parameter", '
                   '"sampler": "circuit"}\n')


@pytest.mark.parametrize("argv, message", [
    (("kwise-test", "--n", "1", "--k", "2", "--gates", "0", "--samples", "10",
      "--sampler", "uniform"), "xor of 1-bit strings takes one value over 2 bins"),
    (("mix-mc", "--chain", "ucc", "--k", "1", "--N", "1", "--t", "3", "--samples", "10"),
     "ucc(k=1,N=1) has one state"),
], ids=["kwise-test", "mix-mc"])
def test_chi_square_over_one_outcome_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"kwmix: invalid configuration: {message}; a chi-square test needs two\n"


def test_monte_carlo_commands_load_no_scipy_stats():
    # p-values come from scipy.special; a fresh interpreter runs every
    # command that prints one, and the genericity sampler, without scipy.stats
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [
        ["kwise-test", "--n", "6", "--k", "2", "--gates", "5", "--samples", "2000"],
        ["kwise-test", "--n", "6", "--k", "2", "--gates", "5", "--samples", "2000",
         "--sampler", "uniform", "--statistic", "hamming"],
        ["mix-mc", "--chain", "rev", "--n", "3", "--k", "2", "--t", "5", "--samples", "2000"],
        ["generic-frac", "--n", "8", "--k", "2", "--part-w", "2", "--part-p", "2",
         "--samples", "100"],
    ]
    code = ("import sys\n"
            "import kwmix.cli\n"
            f"codes = [kwmix.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_exact_commands_load_no_scipy_optimize():
    # the log-Sobolev search is kwmix's own L-BFGS: no command imports
    # scipy.optimize, and `import kwmix.cli` does not either
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [
        ["gap", "--chain", "ucc", "--k", "2", "--N", "5"],
        ["mix-exact", "--chain", "rev", "--n", "3", "--k", "2"],
        ["kwise-test", "--n", "6", "--k", "2", "--gates", "5", "--samples", "2000"],
        ["lsc-search", "--chain", "ucc", "--k", "2", "--N", "5", "--restarts", "3"],
    ]
    code = ("import sys\n"
            "import kwmix.cli\n"
            f"codes = [kwmix.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_parser_is_built_once_per_process(capsys):
    # a call that argparse rejects leaves the cached parser as it was
    def rejected():
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--chain", "nope"])
        return exc.value.code, capsys.readouterr().err

    def accepted():
        return run_cli(capsys, "gap", "--chain", "ucc", "--k", "2", "--N", "4")

    cli.build_parser.cache_clear()
    cached = rejected(), accepted()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    fresh = []
    for call in (rejected, accepted):
        cli.build_parser.cache_clear()
        fresh.append(call())
    assert cached == tuple(fresh)
    assert cached[0][0] == 2 and "invalid choice: 'nope'" in cached[0][1]
    assert cached[1][0] == 0 and cached[1][1].startswith("kernel,states,spectral_gap")


def test_mix_mc_is_seed_deterministic(capsys):
    # the same seed prints the same bytes; another seed moves the statistic
    runs = [
        (("mix-mc", "--chain", "rev", "--n", "3", "--k", "2", "--t", "10",
          "--samples", "2000"), "chi2"),
        (("kwise-test", "--n", "6", "--k", "2", "--gates", "20", "--samples", "2000"), "chi2"),
        (("kwise-test", "--n", "6", "--k", "2", "--gates", "20", "--samples", "2000",
          "--sampler", "uniform"), "chi2"),
        (("generic-frac", "--n", "8", "--k", "3", "--part-w", "2", "--part-p", "2",
          "--samples", "2000"), "hits"),  # a generic fraction near 0.16
    ]
    for argv, field in runs:
        outs = [run_cli(capsys, *argv, "--seed", seed, "--format", "json")
                for seed in ("4", "4", "5")]
        assert all(code == 0 for code, _, _ in outs)
        assert outs[0][1] == outs[1][1]
        values = [json.loads(out)[field] for _, out, _ in outs]
        assert values[0] != values[2]


@pytest.mark.parametrize("chain", [("rev", "--n", "3"), ("cc", "--N", "4"), ("ucc", "--N", "6"),
                                   ("complete", "--N", "4")], ids=lambda c: c[0])
@pytest.mark.parametrize("flag", [("--part-w", "3"), ("--part-p", "1")], ids=lambda f: f[0])
def test_partition_flags_without_a_partition_exit_2(capsys, chain, flag):
    code, out, err = run_cli(capsys, "gap", "--chain", *chain, "--k", "2", *flag)
    assert (code, out) == (2, "")
    assert err == (f"kwmix: invalid configuration: --chain {chain[0]} takes no "
                   "--part-w or --part-p\n")


@pytest.mark.parametrize("argv, message", [
    ("--chain ucc --k 2 --N 6 --n 5", "ucc takes no n"),
    ("--chain rev --n 3 --k 2 --N 6", "rev takes no N"),
    ("--chain complete --N 4 --k 3", "complete takes no k other than 1"),
    ("--chain tgrev --n 3 --k 2 --part-w 2 --part-p 1 --gate-mode set",
     "tgrev takes no gate mode 'set'"),
    ("--chain cc --k 2 --N 4 --gate-mode set", "cc takes no gate mode 'set'"),
], ids=["ucc-n", "rev-N", "complete-k", "tgrev-set", "cc-set"])
def test_fields_the_chain_does_not_read_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "gap", *argv.split())
    assert (code, out) == (2, "")
    assert err == f"kwmix: invalid configuration: {message}\n"


def test_zero_block_partition_exits_2(capsys):
    # a partition without blocks would make equal-row tuples "generic"
    code, out, err = run_cli(capsys, "gap", "--chain", "grev", "--n", "3", "--k", "2",
                             "--part-w", "1", "--part-p", "0")
    assert code == 2
    assert out == ""
    assert "invalid configuration" in err and "at least one block" in err


def test_partition_commands_at_few_wires_end_with_an_exit_code(capsys):
    # every command sizing a partition, with and without overrides, at
    # n <= 3: a result (0), a refusal (2) or the state cap (3), and never
    # a traceback; n = k = 1 sizes the default blocks at width 0
    commands = []
    for size in (["--n", str(n), "--k", str(k)] for n in (1, 2, 3) for k in (1, 2)):
        for part in ([], ["--part-w", "1"], ["--part-w", "1", "--part-p", "1"]):
            commands += [["generic-frac", *size, *part, "--samples", "20"],
                         ["generic-frac", *size, *part, "--exact"],
                         ["gap", "--chain", "grev", *size, *part],
                         ["mix-exact", "--chain", "tgrev", *size, *part]]
        commands.append(["tgrev-verify", *size, "--part-w", "1", "--part-p", "1"])
    assert len(commands) == 78
    codes = {}
    for argv in commands:
        codes[" ".join(argv)] = cli.main(argv)
        capsys.readouterr()
    assert set(codes.values()) <= {0, 2, 3}, codes
    for argv in ("generic-frac --n 1 --k 1 --samples 20", "generic-frac --n 1 --k 1 --exact",
                 "gap --chain grev --n 1 --k 1", "mix-exact --chain tgrev --n 1 --k 1"):
        assert codes[argv] == 2


def test_reducible_searches_and_sizes_below_one_wire_exit_2(capsys):
    # a reducible kernel's log-Sobolev constant is exactly 0, so a search
    # would report roundoff; below one wire there is no string to bin
    commands = [
        ["lsc-search", "--chain", "tgrev", "--n", "3", "--k", "2", "--part-w", "1",
         "--part-p", "1", "--restarts", "6"],
        ["lsc-search", "--chain", "cc", "--k", "2", "--N", "2"],
        ["lsc-search", "--chain", "complete", "--N", "1"],
        ["lsc-search", "--chain", "ucc", "--k", "1", "--N", "1"],
    ]
    messages = (["reducible and its log-Sobolev constant is 0"] * 2
                + ["log-Sobolev search needs at least 2 states, got 1"] * 2)
    for n in ("0", "-1"):
        for statistic in ("xor", "hamming", "lowbits"):
            for sampler in ("circuit", "uniform"):
                commands.append(["kwise-test", "--n", n, "--k", "2", "--gates", "5",
                                 "--samples", "100", "--statistic", statistic,
                                 "--sampler", sampler])
                messages.append(f"need n >= 1, got {n}")
    for argv, message in zip(commands, messages):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("kwmix: invalid configuration") and message in err, argv


MC_ROWS = {
    "chain-rule-check": (("chain-rule-check", "--k", "2", "--N", "4", "--count", "3"),
                         "chain_rule_check",
                         ["k", "N", "count", "max_abs_residual", "max_rel_residual",
                          "per_coordinate"],
                         ["k", "N", "i", "count", "max_abs_residual", "max_rel_residual"]),
    "compare-check": (("compare-check", "--k", "2", "--N", "4", "--count", "3"),
                      "compare_check", ["k", "N", "count", "A_delta", "max_residual"], None),
    "mix-mc": (("mix-mc", "--chain", "ucc", "--k", "2", "--N", "3", "--t", "5",
                "--samples", "300"), "end_state_test",
               ["kernel", "t", "samples", "states", "distinct_visited", "chi2", "dof",
                "p_value", "empirical_tv", "seed"],
               ["kernel", "t", "samples", "states", "chi2", "dof", "p_value",
                "empirical_tv", "seed"]),
    "kwise-test": (("kwise-test", "--n", "4", "--k", "2", "--gates", "5",
                    "--samples", "300"), "kwise_stat_mc",
                   ["n", "k", "gates", "M", "statistic", "bins", "chi2", "dof",
                    "p_value", "seed", "gate_mode", "sampler"], None),
    "generic-frac": (("generic-frac", "--n", "6", "--k", "2", "--part-w", "2",
                      "--part-p", "1", "--samples", "300"), "generic_fraction_mc",
                     ["n", "k", "w", "p", "mode", "fraction", "hits", "samples",
                      "wilson_low", "wilson_high", "union_bound_low", "seed"],
                     ["n", "k", "w", "p", "mode", "fraction", "wilson_low",
                      "wilson_high", "union_bound_low", "samples", "seed"]),
}


@pytest.mark.parametrize("command", sorted(MC_ROWS))
def test_monte_carlo_json_keys_and_csv_header(capsys, command):
    argv, _, keys, header = MC_ROWS[command]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == keys
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.split("\n")[0] == ",".join(header or keys)


@pytest.mark.parametrize("command", sorted(MC_ROWS))
def test_a_report_field_reaches_the_json_row(capsys, monkeypatch, command):
    # the commands print the library's report, so a field that the report
    # gains reaches the row with no CLI edit
    from dataclasses import asdict, field, make_dataclass

    argv, library_call, keys, _ = MC_ROWS[command]
    real = getattr(cli, library_call)

    def with_extra_field(*args, **kwargs):
        report = real(*args, **kwargs)
        frozen = type(report).__dataclass_params__.frozen
        grown = make_dataclass(type(report).__name__, [("extra", float, field(default=0.0))],
                               bases=(type(report),), frozen=frozen)
        return grown(**asdict(report), extra=0.125)

    monkeypatch.setattr(cli, library_call, with_extra_field)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["extra"] == 0.125
    assert [key for key in obj if key != "extra"] == keys


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_all_float_cells_have_17_significant_digits(tmp_path, capsys):
    import csv as csvmod

    out = tmp_path / "gap.csv"
    assert cli.main(["gap", "--chain", "ucc", "--k", "2", "--N", "4",
                     "--out", str(out)]) == 0
    with open(out) as fp:
        rows = list(csvmod.reader(fp))
    gap_cell = rows[1][2]
    assert float(gap_cell) == pytest.approx(0.5, abs=1e-12)
    assert len(gap_cell.replace(".", "").replace("-", "").lstrip("0")) >= 16
    capsys.readouterr()
