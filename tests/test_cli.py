import os
import subprocess
import sys
from pathlib import Path

import pytest

import etdom
from etdom.cli import main


def run_cli(args, input_text=None, capsys=None):
    """Invoke the CLI in-process and capture its output."""
    rc = main(args)
    out, err = capsys.readouterr()
    return rc, out, err


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.g6"
    path.write_text(">>graph6<<\nDUW\n@\n")
    rc, out, _ = run_cli(["analyze", str(path)], capsys=capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "alpha=2" in lines[0] and "gamma_inf=3" in lines[0]


def test_gen_counts(capsys):
    rc, out, err = run_cli(["gen", "5"], capsys=capsys)
    assert rc == 0
    assert len(out.strip().splitlines()) == 21
    assert "# 21 graphs" in err


def test_batch_commands_name_backend_on_stderr_only(tmp_path, capsys):
    from etdom import BACKEND, encode, generate_connected
    from etdom.pipeline import reproduce_table

    banner = f"# backend: {BACKEND}, workers: 1\n"
    c5 = tmp_path / "c5.g6"
    c5.write_text("DUW\n")
    expected_stdout = {
        ("table", "T7", "--max-n", "6"): reproduce_table("T7", max_n=6, workers=1).to_tsv(),
        ("gen", "5"): "".join(encode(g) + "\n" for g in generate_connected(5)),
        ("filter", "alpha_lt_theta", "--gen", "5"): None,
        ("appendix", "T9", "--file", str(c5)): None,
    }
    for args, want in expected_stdout.items():
        rc, out, err = run_cli(["--workers", "1", *args], capsys=capsys)
        assert err.startswith(banner) and err.count("# backend:") == 1
        assert "backend" not in out
        if want is not None:
            assert rc == 0 and out == want
    rc, _, err = run_cli(["eternal", "DUW"], capsys=capsys)
    assert rc == 0 and "backend" not in err


def test_gen_budget_exit_code(capsys):
    rc, _, err = run_cli(["gen", "11"], capsys=capsys)
    assert rc == 3
    assert "budget" in err


def test_filter_generated(tmp_path, capsys):
    chain = "connected,alpha_lt_theta,critical"
    rc, out, _ = run_cli(["filter", chain, "--gen", "7"], capsys=capsys)
    assert rc == 0
    assert "total\t853" in out
    assert "critical\t3" in out
    # generated packed ints and the same graphs read as graph6 lines give
    # the same report
    _, lines, _ = run_cli(["gen", "7"], capsys=capsys)
    path = tmp_path / "gen7.g6"
    path.write_text(lines)
    rc, from_file, _ = run_cli(["filter", chain, "--input", str(path)], capsys=capsys)
    assert rc == 0

    def report(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed")]

    assert report(from_file) == report(out)


def test_table_t4(capsys):
    rc, out, _ = run_cli(["table", "T4", "--max-n", "13"], capsys=capsys)
    assert rc == 0
    assert "13\tC13[1,2,3,5];C13[1,3,4]" in out


def test_table_name_case_insensitive(capsys):
    rc, out, _ = run_cli(["table", "t4", "--max-n", "5"], capsys=capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "5\t-"


def test_table_t3_small(capsys):
    rc, out, _ = run_cli(["table", "T3", "--max-n", "9"], capsys=capsys)
    assert rc == 0
    assert "5\t3\t1\t1\t0" in out
    assert "9\t16\t5\t5\t0" in out


def test_appendix_ok(capsys):
    rc, out, _ = run_cli(["appendix", "T10"], capsys=capsys)
    assert rc == 0
    assert "13 graphs checked, 0 failures" in out


def test_appendix_mismatch_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("DUW\n")
    rc, out, _ = run_cli(["appendix", "T9", "--file", str(bad)], capsys=capsys)
    assert rc == 1
    assert "FAIL" in out


def test_construct_circulant(capsys):
    rc, out, _ = run_cli(["construct", "circulant", "5", "1"], capsys=capsys)
    assert rc == 0
    from etdom import decode
    from etdom.canon import are_isomorphic
    from etdom.graphs import cycle_graph

    assert are_isomorphic(decode(out.strip()), cycle_graph(5))
    rc, out, _ = run_cli(
        ["construct", "circulant", "18", "1,3,8", "--analyze"], capsys=capsys
    )
    assert rc == 0
    assert "gamma_inf=8" in out and "theta=9" in out


def test_construct_mycielski(capsys):
    rc, out, _ = run_cli(["construct", "mycielski", "4"], capsys=capsys)
    assert rc == 0
    from etdom import decode

    g = decode(out.strip())
    assert g.n == 11 and g.edge_count() == 20


def test_construct_bowtie(capsys):
    rc, out, _ = run_cli(["construct", "bowtie-k2", "13", "1,3,4"], capsys=capsys)
    assert rc == 0
    from etdom import decode
    from etdom.canon import are_isomorphic
    from etdom.constructions import CirculantSpec, circulant

    g = decode(out.strip())
    assert g.n == 26
    assert are_isomorphic(g, circulant(CirculantSpec(26, (1, 3, 4, 9, 10, 12))))


def test_eternal_subcommand(capsys):
    rc, out, _ = run_cli(["eternal", "DUW", "--survivors", "--trace", "4"], capsys=capsys)
    assert rc == 0
    assert "gamma_inf=3" in out
    assert out.count("guards") >= 10
    assert "attack" in out


DATA = Path(__file__).resolve().parent / "data"

# pinned stdout of `etdom eternal`: the survivor count and listing and the
# seeded trace (which attacks come, which guard answers) are output, and
# must not change when the game is decided differently
ETERNAL_PINS = {
    "eternal_DUW_survivors_trace40_seed3.txt":
        ["DUW", "--survivors", "--trace", "40", "--seed", "3"],
    "eternal_C13_1_3_4_trace200_seed7.txt":  # the circulant C13[1,3,4]
        ["LlthgsL`mEkLkL", "--trace", "200", "--seed", "7"],
    "eternal_cube_trace5.txt":  # alpha = theta = 4, so no game decides gamma_inf
        ["Gr`HOk", "--trace", "5"],
}


@pytest.mark.parametrize("name", ETERNAL_PINS)
def test_eternal_stdout_pinned(name, capsys):
    rc, out, _ = run_cli(["eternal", *ETERNAL_PINS[name]], capsys=capsys)
    assert rc == 0
    assert out == (DATA / name).read_text()


def test_eternal_trace_refuses_disconnected(capsys):
    # C5 + K3: gamma_inf is still printed, then the listing is refused
    rc, out, err = run_cli(["eternal", "Ghc?GK", "--trace", "5"], capsys=capsys)
    assert rc == 2
    assert out == "n=8 alpha=3 theta=4 gamma_inf=4\n"
    assert err == "survivor listing needs a connected graph\n"


def test_bad_input_exit_code(capsys):
    rc, _, err = run_cli(["eternal", "not-a-graph6-\x19"], capsys=capsys)
    assert rc == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "etdom.cli", "table", "T4", "--max-n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_python_m_etdom(capsys):
    # the package runs as a module, with the same stdout as cli.main
    args = ["table", "T4", "--max-n", "6"]
    src = str(Path(etdom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "etdom", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = run_cli(args, capsys=capsys)
    assert rc == 0 and proc.stdout == out


def test_config_file_args(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("table\nT4\n--max-n\n5\n")
    rc, out, _ = run_cli([f"@{cfg}"], capsys=capsys)
    assert rc == 0
    assert out.startswith("n\t")
