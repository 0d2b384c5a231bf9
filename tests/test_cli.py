import os
import subprocess
import sys
from pathlib import Path

import pytest

from tkplex.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    main,
    scaled_delta,
)

from conftest import FIG1_TEXT


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    return path


def run_enumerate(fig1_file, tmp_path, *extra):
    out = tmp_path / "records.txt"
    code = main(
        ["enumerate", str(fig1_file), "--delta", "1", "--k", "2",
         "--output", str(out), *extra]
    )
    return code, out


class TestEnumerateCommand:
    def test_headline_record_present(self, fig1_file, tmp_path):
        code, out = run_enumerate(fig1_file, tmp_path)
        assert code == EXIT_OK
        assert "a b c 4 5" in out.read_text().splitlines()

    def test_labels_sorted_per_line(self, fig1_file, tmp_path):
        _, out = run_enumerate(fig1_file, tmp_path)
        for line in out.read_text().splitlines():
            labels = line.split()[:-2]
            assert labels == sorted(labels)

    def test_runs_are_byte_identical(self, fig1_file, tmp_path):
        _, first = run_enumerate(fig1_file, tmp_path)
        text = first.read_text()
        _, second = run_enumerate(fig1_file, tmp_path)
        assert second.read_text() == text

    def test_stats_file_matches_output(self, fig1_file, tmp_path, capsys):
        stats_path = tmp_path / "stats.txt"
        code, out = run_enumerate(fig1_file, tmp_path, "--stats", str(stats_path))
        assert code == EXIT_OK
        stats = dict(
            line.split("=", 1) for line in stats_path.read_text().splitlines()
        )
        assert int(stats["plex_count"]) == len(out.read_text().splitlines())
        assert stats["n"] == "3"
        assert stats["m"] == "7"
        assert stats["omega"] == "6"
        assert stats["delta"] == "1"
        assert stats["timed_out"] == "False"
        table = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        for key in ("recursive_calls", "wall_seconds", "parse_seconds",
                    "index_seconds", "search_seconds"):
            assert float(stats[key]) >= 0
            assert key in table

    def test_with_degeneracy_report(self, fig1_file, tmp_path, capsys):
        code, _ = run_enumerate(fig1_file, tmp_path, "--with-degeneracy")
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "slice_degeneracy" in table
        assert "call_upper_bound" in table

    def test_delta_equal_to_lifetime_rejected(self, fig1_file):
        code = main(["enumerate", str(fig1_file), "--delta", "6", "--k", "2"])
        assert code == EXIT_PARAMETER

    def test_bad_k_rejected(self, fig1_file):
        code = main(["enumerate", str(fig1_file), "--delta", "1", "--k", "0"])
        assert code == EXIT_PARAMETER

    def test_missing_delta_rejected(self, fig1_file):
        code = main(["enumerate", str(fig1_file), "--k", "2"])
        assert code == EXIT_PARAMETER

    def test_unreadable_input(self, tmp_path):
        code = main(
            ["enumerate", str(tmp_path / "absent.txt"), "--delta", "1", "--k", "2"]
        )
        assert code == EXIT_PARSE

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 a\n")
        code = main(["enumerate", str(bad), "--delta", "0", "--k", "1"])
        assert code == EXIT_PARSE

    def test_non_integer_columns_rejected(self, fig1_file, capsys):
        code = main(
            ["enumerate", str(fig1_file), "--columns", "0,x,2",
             "--delta", "1", "--k", "2"]
        )
        assert code == EXIT_PARAMETER
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_column_rejected(self, fig1_file, capsys):
        code = main(
            ["enumerate", str(fig1_file), "--columns", "0,1,-5",
             "--delta", "1", "--k", "2"]
        )
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("flag", ["--output", "--stats"])
    def test_unwritable_path_fails_before_search(
        self, fig1_file, tmp_path, monkeypatch, capsys, flag
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr("tkplex.cli.enumerate_maximal_plexes", no_search)
        code = main(
            ["enumerate", str(fig1_file), "--delta", "1", "--k", "2",
             flag, str(tmp_path / "absent" / "file.txt")]
        )
        assert code == EXIT_PARAMETER
        assert capsys.readouterr().err.startswith("error: ")

    def test_timeout_exit_code(self, fig1_file, tmp_path):
        code, _ = run_enumerate(fig1_file, tmp_path, "--time-limit", "0")
        assert code == EXIT_TIMEOUT

    def test_scaled_delta_formula(self):
        # reference value 5^e scaled by lifetime / (5 m), rounded, floored at 0
        assert scaled_delta(0, 6, 7) == 0
        assert scaled_delta(1, 6, 7) == 1
        assert scaled_delta(3, 100, 10) == 250
        assert scaled_delta(-2, 6, 7) == 0
        assert scaled_delta(1, 5, 2) == 2  # 2.5 rounds half to even
        assert scaled_delta(1, 7, 2) == 4  # 3.5 too
        assert scaled_delta(1, 45, 7) == 6  # 6.43 to nearest
        assert scaled_delta(1000, 6, 7) > 10**600  # exact, no float overflow

    @pytest.mark.parametrize("command,extra", [
        ("enumerate", ["--k", "1"]),
        ("degeneracy", []),
    ])
    def test_huge_delta_exp_rejected(self, fig1_file, capsys, command, extra):
        code = main([command, str(fig1_file), "--delta-exp", "1000000", *extra])
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too large for lifetime" in err[0]

    def test_delta_exp_flag(self, fig1_file, tmp_path):
        out = tmp_path / "records.txt"
        code = main(
            ["enumerate", str(fig1_file), "--delta-exp", "1", "--k", "2",
             "--output", str(out)]
        )
        assert code == EXIT_OK  # resolves to delta=1
        assert "a b c 4 5" in out.read_text().splitlines()

    def test_resolution_option(self, tmp_path):
        path = tmp_path / "coarse.txt"
        path.write_text("1000 a b\n1020 b c\n1040 a c\n")
        out = tmp_path / "records.txt"
        code = main(
            ["enumerate", str(path), "--resolution", "20", "--delta", "0",
             "--k", "1", "--output", str(out)]
        )
        assert code == EXIT_OK
        assert "a b 1 1" in out.read_text().splitlines()


class TestDegeneracyCommand:
    def test_fixture_values(self, fig1_file, capsys):
        code = main(["degeneracy", str(fig1_file), "--delta", "1", "--delta", "5"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "static_degeneracy=2" in lines
        assert "delta=1 slice_degeneracy=2" in lines
        # at delta = lifetime - 1 the single frame is the union graph
        assert "delta=5 slice_degeneracy=2" in lines

    def test_commands_other_than_oracle_never_load_it(self, fig1_file):
        # the oracle is independent evidence, so the library's own commands
        # must not compute anything with it
        script = (
            "import sys, tkplex.cli\n"
            "path = sys.argv[1]\n"
            "tkplex.cli.main(['enumerate', path, '--delta', '1', '--k', '2'])\n"
            "tkplex.cli.main(['degeneracy', path, '--delta', '1'])\n"
            "sys.exit('tkplex.oracle' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script, str(fig1_file)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "static_degeneracy=2" in done.stdout.splitlines()

    def test_delta_too_large(self, fig1_file):
        code = main(["degeneracy", str(fig1_file), "--delta", "6"])
        assert code == EXIT_PARAMETER

    def test_long_sparse_lifetime(self, tmp_path, capsys):
        path = tmp_path / "sparse.txt"
        path.write_text("1 a b\n2 b c\n1000000000 a c\n")
        code = main(["degeneracy", str(path), "--delta", "0"])
        assert code == EXIT_OK
        assert "delta=0 slice_degeneracy=1" in capsys.readouterr().out.splitlines()


class TestOracleCommand:
    def test_enumerator_output_verifies(self, fig1_file, tmp_path, capsys):
        _, out = run_enumerate(fig1_file, tmp_path)
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(out)]
        )
        assert code == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_missing_record_detected(self, fig1_file, tmp_path, capsys):
        _, out = run_enumerate(fig1_file, tmp_path)
        lines = out.read_text().splitlines()
        dropped = lines.pop()
        out.write_text("\n".join(lines) + "\n")
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(out)]
        )
        assert code == EXIT_MISMATCH
        assert f"missing: {dropped}" in capsys.readouterr().out

    def test_extra_record_detected(self, fig1_file, tmp_path, capsys):
        _, out = run_enumerate(fig1_file, tmp_path)
        out.write_text(out.read_text() + "a c 2 2\n")
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(out)]
        )
        assert code == EXIT_MISMATCH
        assert "extra:   a c 2 2" in capsys.readouterr().out

    @pytest.mark.parametrize("delta,k", [("-1", "2"), ("1", "0")])
    def test_bad_parameters_rejected(self, fig1_file, tmp_path, delta, k):
        _, out = run_enumerate(fig1_file, tmp_path)
        code = main(
            ["oracle", str(fig1_file), "--delta", delta, "--k", k,
             "--records", str(out)]
        )
        assert code == EXIT_PARAMETER

    def test_size_guard(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("".join(f"{t} a b\n" for t in range(1, 12)))
        records = tmp_path / "records.txt"
        records.write_text("")
        code = main(
            ["oracle", str(path), "--delta", "0", "--k", "1",
             "--records", str(records)]
        )
        assert code == EXIT_PARAMETER


class TestInputErrors:
    COMMANDS = {
        "enumerate": ["--delta", "1", "--k", "2"],
        "degeneracy": ["--delta", "1"],
        "oracle": ["--delta", "1", "--k", "2", "--records", "unused.txt"],
    }

    @pytest.mark.parametrize("resolution", ["0", "-20"])
    @pytest.mark.parametrize("command", ["enumerate", "degeneracy", "oracle"])
    def test_nonpositive_resolution_rejected(
        self, fig1_file, capsys, command, resolution
    ):
        code = main(
            [command, str(fig1_file), "--resolution", resolution,
             *self.COMMANDS[command]]
        )
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_non_utf8_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("1 \xe9 b\n".encode("latin-1"))
        code = main(["enumerate", str(path), "--delta", "0", "--k", "1"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_records_rejected(self, fig1_file, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_bytes(b"a b \xff 1 5\n")
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(records)]
        )
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
