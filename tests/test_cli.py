import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tkplex import cli
from tkplex.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    main,
    scaled_delta,
)

from conftest import FIG1_TEXT, render_edge_list, scale_graph


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

    def test_names_sorted_as_strings(self, tmp_path, capsys):
        # first seen as v9, v10, a; as strings they sort a, v10, v9
        edges = tmp_path / "edges.txt"
        edges.write_text("1 v9 v10\n2 v10 a\n3 v9 a\n4 v9 v10\n4 v10 a\n")
        out = tmp_path / "records.txt"
        args = [str(edges), "--delta", "1", "--k", "2"]
        assert main(["enumerate", *args, "--output", str(out)]) == EXIT_OK
        names = [line.split()[:-2] for line in out.read_text().splitlines()]
        assert ["a", "v10", "v9"] in names
        assert all(n == sorted(n) for n in names)
        assert main(["oracle", *args, "--records", str(out)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

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
                    "index_seconds", "core_seconds", "search_seconds"):
            assert float(stats[key]) >= 0
            assert key in table

    def test_wall_seconds_covers_parsing(self, fig1_file, tmp_path, monkeypatch):
        # a clock that only parsing moves: 100 s to parse, nothing after
        now = [0.0]
        parse = cli.parse_edge_list

        def slow_parse(*args, **kwargs):
            now[0] += 100.0
            return parse(*args, **kwargs)

        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        monkeypatch.setattr(cli, "parse_edge_list", slow_parse)
        stats_path = tmp_path / "stats.txt"
        code, _ = run_enumerate(fig1_file, tmp_path, "--stats", str(stats_path))
        assert code == EXIT_OK
        stats = dict(
            line.split("=", 1) for line in stats_path.read_text().splitlines()
        )
        assert float(stats["parse_seconds"]) == 100.0
        assert float(stats["wall_seconds"]) == 100.0

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

    @pytest.mark.parametrize("columns", ["0,1,1", "1,1,2", "2,0,2"])
    def test_repeated_column_rejected(self, fig1_file, capsys, columns):
        # not a self-loop or a bad timestamp on line 1: a parameter error
        code = main(
            ["enumerate", str(fig1_file), "--columns", columns,
             "--delta", "1", "--k", "2"]
        )
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err == "error: --columns needs three distinct non-negative indices\n"
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("limit", ["-1", "nan"])
    def test_bad_time_limit_rejected(self, fig1_file, tmp_path, capsys, limit):
        code, out = run_enumerate(fig1_file, tmp_path, "--time-limit", limit)
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("command,extra", [
        ("enumerate", ["--k", "1"]),
        ("degeneracy", []),
    ])
    def test_far_out_delta_exp_decided_at_once(
        self, fig1_file, capsys, command, extra, sign
    ):
        # 10^9 ends like 10^6, with no power of 5 taken, in either direction
        outcomes = []
        for exponent in (sign * 10**6, sign * 10**9):
            started = time.monotonic()
            code = main([command, str(fig1_file), "--delta-exp", str(exponent), *extra])
            assert time.monotonic() - started < 5
            done = capsys.readouterr()
            lines = [line for line in (done.out + done.err).splitlines()
                     if "seconds" not in line]
            outcomes.append((code, "\n".join(lines).replace(str(exponent), "E")))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (EXIT_PARAMETER if sign > 0 else EXIT_OK)

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


    def test_closed_pipe_stops_quietly(self, tmp_path):
        # `tkplex enumerate ... | head -1`: about 120 kB of records, more
        # than a pipe holds, so the reader closes it while the search runs
        path = tmp_path / "contacts.txt"
        path.write_text(render_edge_list(
            scale_graph(n=40, edge_target=6000, omega=5000)
        ))
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "tkplex.cli", "enumerate", str(path),
             "--delta", "0", "--k", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert first.split()[-2:] == ["1", "5000"]
        assert code == EXIT_OK, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert "recursive_calls" not in err  # stopped before the stats table

    @pytest.mark.parametrize(
        "commands",
        [(), ("enumerate",), ("enumerate", "oracle")],
        ids=["import", "enumerate", "oracle"],
    )
    def test_start_up_skips_dataclasses(self, fig1_file, tmp_path, commands):
        # every run pays for its imports: `dataclasses` loads `inspect`,
        # `ast`, `dis` and `tokenize`, about 10 ms, more than the search
        # takes on small inputs; the two checkers would add ~300 lines to
        # compile at every start; `tkplex oracle` loads its own checker alone
        records_flag = {"enumerate": "--output", "oracle": "--records"}
        script = "import sys, tkplex.cli\n"
        for command in commands:
            script += (
                f"code = tkplex.cli.main(['{command}', sys.argv[1], '--delta', '1',"
                f" '--k', '2', '{records_flag[command]}', sys.argv[2]])\n"
                "assert code == 0, code\n"
            )
        unwanted = {"dataclasses", "inspect", "tkplex.instrumentation", "tkplex.oracle"}
        if "oracle" in commands:
            unwanted.remove("tkplex.oracle")
        script += f"print(sorted({unwanted!r} & set(sys.modules)))\n"
        src = Path(__file__).resolve().parent.parent / "src"
        out = tmp_path / "records.txt"
        done = subprocess.run(
            [sys.executable, "-c", script, str(fig1_file), str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        if commands:
            assert "a b c 4 5" in out.read_text().splitlines()


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteFailure:
    """A write that fails, here on a device that is always full, ends in
    exit 2 and one ``error:`` line, not in a traceback."""

    def run(self, args, stdout):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, by default
        with open(stdout, "w") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "tkplex.cli", *args], env=env,
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        err = proc.stderr.splitlines()
        assert proc.returncode == EXIT_PARAMETER, err
        # a stats table on stderr may come first; the error line comes last
        assert [line for line in err if "error" in line.lower()] == err[-1:], err
        assert err[-1].startswith("error: cannot write "), err
        assert not any("Traceback" in line or "Exception" in line for line in err)
        return err

    @pytest.mark.parametrize(
        "command, extra, stdout",
        [
            ("enumerate", ["--k", "2", "--output", "/dev/full"], None),
            ("enumerate", ["--k", "2"], "/dev/full"),
            ("degeneracy", [], "/dev/full"),
        ],
        ids=["output", "stdout", "degeneracy-stdout"],
    )
    def test_one_error_line(self, fig1_file, tmp_path, command, extra, stdout):
        args = [command, str(fig1_file), "--delta", "1", *extra]
        err = self.run(args, stdout or tmp_path / "stdout.txt")
        if command == "degeneracy" or stdout is None:  # no table on stderr
            assert len(err) == 1

    def test_failed_stats_file_leaves_stdout_whole(self, fig1_file, tmp_path):
        args = ["enumerate", str(fig1_file), "--delta", "1", "--k", "2"]
        out = tmp_path / "stdout.txt"
        self.run([*args, "--stats", "/dev/full"], out)
        records = tmp_path / "records.txt"
        assert main([*args, "--output", str(records)]) == EXIT_OK
        assert out.read_text() == records.read_text()


class TestOracleCommand:
    def test_enumerator_output_verifies(self, fig1_file, tmp_path, capsys):
        _, out = run_enumerate(fig1_file, tmp_path)
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(out)]
        )
        assert code == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_piped_stdout_verifies(self, fig1_file, tmp_path, capsys):
        # without --output the records own stdout and the table goes to stderr
        code = main(["enumerate", str(fig1_file), "--delta", "1", "--k", "2"])
        assert code == EXIT_OK
        piped = capsys.readouterr()
        assert "recursive_calls" in piped.err
        out = tmp_path / "out.txt"
        out.write_text(piped.out)
        code = main(
            ["oracle", str(fig1_file), "--delta", "1", "--k", "2",
             "--records", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == "ok: 5 records match\n"

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
