import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ghzdense
from ghzdense import cli
from ghzdense.bases import _CATALOGS, bell_catalog, ghz_state, phi_catalog
from ghzdense.cli import CommandResult, _fmt, dispatch, main
from ghzdense.encoding import reachability_matrix, reachability_oracle_matrix
from ghzdense.qstate import basis_state, dump_state, fidelity_up_to_phase, load_state


class TestBasesCommands:
    @pytest.mark.parametrize("basis", ["bell", "ghz", "phi"])
    def test_verify_passes_for_builtin_bases(self, basis):
        result = dispatch(["bases", "verify", "--basis", basis])
        assert result.exit_code == 0
        assert "yes" in result.stdout

    def test_verify_json_payload(self):
        result = dispatch(["bases", "verify", "--basis", "phi", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["basis"] == "phi"
        assert payload["within_tolerance"] is True
        assert payload["max_off_diagonal"] <= 1e-12
        assert payload["max_diagonal_deviation"] <= 1e-12

    def test_verify_reports_failure_with_exit_1(self, monkeypatch):
        import ghzdense.cli as cli_mod
        from ghzdense.bases import OrthonormalityReport

        monkeypatch.setattr(
            cli_mod, "verify_orthonormal", lambda catalog: OrthonormalityReport(1.0, 0.0)
        )
        result = dispatch(["bases", "verify", "--basis", "ghz"])
        assert result.exit_code == 1
        assert "NO" in result.stdout

    def test_dump_accepts_prefixed_and_bare_indices(self):
        bare = dispatch(["bases", "dump", "--basis", "ghz", "--index", "3"])
        named = dispatch(["bases", "dump", "--basis", "ghz", "--index", "psi3"])
        assert bare.exit_code == named.exit_code == 0
        assert bare.stdout == named.stdout
        state = load_state(bare.stdout)
        assert fidelity_up_to_phase(state, ghz_state(3)) == pytest.approx(1.0, abs=1e-12)

    def test_dump_rejects_foreign_prefix(self):
        result = dispatch(["bases", "dump", "--basis", "ghz", "--index", "bell2"])
        assert result.exit_code == 2
        assert result.stdout.startswith("error: index prefix 'bell' does not name a ghz state")

    def test_dump_rejects_out_of_range(self):
        result = dispatch(["bases", "dump", "--basis", "bell", "--index", "5"])
        assert result.exit_code == 2

    def test_dump_rejects_prefix_without_number(self):
        result = dispatch(["bases", "dump", "--basis", "ghz", "--index", "psi"])
        assert result.exit_code == 2
        assert "malformed state index" in result.stdout

    @pytest.mark.parametrize("index", ["3.0", "-1", "+3", "psi-3"])
    def test_dump_rejects_non_letter_prefix_as_malformed(self, index):
        result = dispatch(["bases", "dump", "--basis", "ghz", "--index", index])
        assert result.exit_code == 2
        assert result.stdout == f"error: malformed state index {index!r}"

    @pytest.mark.parametrize("basis, count", [("ghz", 8), ("phi", 8), ("bell", 4)])
    def test_dump_rejects_a_huge_index_in_its_own_words(self, basis, count):
        result = dispatch(["bases", "dump", "--basis", basis, "--index", "9" * 5000])
        assert result.exit_code == 2
        assert result.stdout == f"error: index must lie in [1, {count}], got 99999999...9999 (5000 digits)"
        twenty = dispatch(["bases", "dump", "--basis", basis, "--index", "9" * 20])
        assert twenty.stdout == f"error: index must lie in [1, {count}], got {'9' * 20}"

    @pytest.mark.parametrize("index", ["psi0003", "0003", "0" * 5000 + "3"], ids=["psi0003", "0003", "5000-zeros-3"])
    def test_dump_accepts_leading_zeros(self, index):
        result = dispatch(["bases", "dump", "--basis", "ghz", "--index", index])
        assert result.exit_code == 0
        assert result.stdout == dispatch(["bases", "dump", "--basis", "ghz", "--index", "3"]).stdout


class TestEncodeCommand:
    def test_encode_message_7(self):
        result = dispatch(["encode", "--message", "7"])
        assert result.exit_code == 0
        state = load_state(result.stdout)
        assert fidelity_up_to_phase(state, ghz_state(7)) == pytest.approx(1.0, abs=1e-12)

    def test_encode_rejects_bad_message(self):
        assert dispatch(["encode", "--message", "9"]).exit_code == 2
        assert dispatch(["encode", "--message", "zero"]).exit_code == 2

    def test_encode_bounds_the_digit_count(self):
        result = dispatch(["encode", "--message", "psi" + "1" * 5000])
        assert result.exit_code == 2
        assert result.stdout == "error: index must lie in [1, 8], got 11111111...1111 (5000 digits)"
        padded = dispatch(["encode", "--message", "psi" + "0" * 5000 + "7"])
        assert padded.exit_code == 0
        assert padded.stdout == dispatch(["encode", "--message", "7"]).stdout


class TestReachCommand:
    def test_text_matrix_rows(self):
        result = dispatch(["reach", "--basis", "ghz", "--qubit", "1"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[1] == "psi1  1 1 1 1 0 0 0 0"
        assert lines[8] == "psi8  0 0 0 0 1 1 1 1"

    def test_json_round_trips_to_library_matrix(self):
        result = dispatch(["reach", "--basis", "phi", "--qubit", "3", "--json"])
        payload = json.loads(result.stdout)
        want = reachability_matrix(phi_catalog(), 3)
        assert np.array_equal(np.array(payload["reachable"]), want)
        assert payload["qubit"] == 3

    def test_oracle_fields(self):
        result = dispatch(
            ["reach", "--basis", "ghz", "--qubit", "1", "--oracle", "--samples", "200", "--json"]
        )
        payload = json.loads(result.stdout)
        assert payload["samples"] == 200
        assert payload["seed"] == 0
        fid = np.array(payload["max_fidelity"])
        assert fid.shape == (8, 8)
        # 200 samples is coarse, so only structure is checked here: sampled
        # fidelity never exceeds zero where no single-qubit map exists.
        reachable = np.array(payload["reachable"])
        assert np.all(fid[~reachable] <= 1e-12)
        assert np.all(np.diag(fid) > 0.5)

    def test_oracle_text_rows_are_the_library_fidelities(self):
        argv = ["reach", "--basis", "phi", "--qubit", "2", "--oracle", "--samples", "300", "--seed", "4"]
        result = dispatch(argv)
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[9] == "best sampled fidelity (300 samples, seed 4):"
        want = reachability_oracle_matrix(phi_catalog(), 2, 300, 4)
        assert lines[10:] == [f"phi{i}  " + " ".join(_fmt(v) for v in row) for i, row in enumerate(want, 1)]

    def test_rejects_bad_qubit(self):
        assert dispatch(["reach", "--basis", "ghz", "--qubit", "4"]).exit_code == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--samples", "0"], "--samples"),
            (["--seed", "0"], "--seed"),
            (["--samples", "10000", "--seed", "3"], "--samples and --seed"),
        ],
    )
    def test_sampling_flags_without_oracle_exit_2_naming_oracle(self, flags, named):
        for extra in ([], ["--json"]):
            result = dispatch(["reach", "--basis", "ghz", "--qubit", "1", *flags, *extra])
            assert result.exit_code == 2
            assert result.stdout == f"error: {named} can only be used with --oracle"

    def test_oracle_alone_draws_10000_samples_from_seed_0(self):
        argv = ["reach", "--basis", "bell", "--qubit", "1", "--oracle"]
        payload = json.loads(dispatch([*argv, "--json"]).stdout)
        assert (payload["samples"], payload["seed"]) == (10_000, 0)
        assert dispatch(argv).stdout == dispatch([*argv, "--samples", "10000", "--seed", "0"]).stdout

    @pytest.mark.parametrize("qubit", [1, 2])
    def test_bell_pairs_reach_each_other_through_either_qubit(self, qubit):
        """The two-qubit half of the paper's contrast: one qubit reaches all
        four Bell states, where ghz splits into two blocks of four."""
        result = dispatch(["reach", "--basis", "bell", "--qubit", str(qubit)])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1:] == [f"bell{i}  1 1 1 1" for i in range(1, 5)]
        payload = json.loads(dispatch(["reach", "--basis", "bell", "--qubit", str(qubit), "--json"]).stdout)
        want = reachability_matrix(bell_catalog(), qubit)
        assert np.array_equal(np.array(payload["reachable"]), want)
        assert want.all()

    @pytest.mark.parametrize("basis, qubit, bound", [("bell", 3, "[1, 2]"), ("ghz", 4, "[1, 3]")])
    def test_out_of_range_qubit_names_the_catalog_range(self, basis, qubit, bound):
        result = dispatch(["reach", "--basis", basis, "--qubit", str(qubit)])
        assert result.exit_code == 2
        assert "qubit" in result.stdout and bound in result.stdout


class TestNetworkCommands:
    def test_show_lists_gates_and_truth_table(self):
        result = dispatch(["network", "show"])
        assert result.exit_code == 0
        assert "CNOT control=1 target=3" in result.stdout
        assert "CNOT control=1 target=2" in result.stdout
        assert "H qubit=1" in result.stdout
        assert "psi6 -> 110" in result.stdout
        assert "psi1 -> 000" in result.stdout

    def test_apply_round_trip(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text(dump_state(ghz_state(6)))
        result = dispatch(["network", "apply", "--state-file", str(path)])
        assert result.exit_code == 0
        out = load_state(result.stdout)
        assert fidelity_up_to_phase(out, basis_state("110")) == pytest.approx(1.0, abs=1e-12)

    def test_apply_missing_file(self, tmp_path):
        result = dispatch(["network", "apply", "--state-file", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2
        assert "error" in result.stdout

    def test_apply_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nqubits 3\n0 0.5 0\n")
        assert dispatch(["network", "apply", "--state-file", str(path)]).exit_code == 2

    def test_apply_reads_at_most_the_state_text_bound(self, tmp_path, monkeypatch):
        text = dump_state(ghz_state(6))
        monkeypatch.setattr(cli, "_MAX_STATE_CHARS", len(text))
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert dispatch(["network", "apply", "--state-file", str(path)]).exit_code == 0
        path.write_text(text + "\n")
        result = dispatch(["network", "apply", "--state-file", str(path)])
        assert result.exit_code == 2
        assert f"longer than {len(text)} characters" in result.stdout


class TestRoundtripCommand:
    def test_json_report(self):
        result = dispatch(
            ["roundtrip", "--protocol", "ghz3", "--trials", "400", "--seed", "1", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["protocol"] == "ghz3"
        assert payload["trials"] == 400
        assert payload["success_rate"] == 1.0
        assert payload["bits_per_transmitted_qubit"] == 1.5
        assert sum(payload["messages_histogram"]) == 400

    def test_dispatch_is_deterministic(self):
        args = ["roundtrip", "--protocol", "bell2", "--trials", "200", "--noise", "0.2", "--json"]
        assert dispatch(args) == dispatch(args)

    def test_text_report(self):
        result = dispatch(["roundtrip", "--protocol", "bell2", "--trials", "50"])
        assert result.exit_code == 0
        assert "success_rate                1" in result.stdout
        assert "bits_per_transmitted_qubit  2" in result.stdout

    def test_pinned_message(self):
        result = dispatch(
            ["roundtrip", "--protocol", "ghz3", "--trials", "20", "--message", "psi5", "--json"]
        )
        payload = json.loads(result.stdout)
        assert payload["messages_histogram"] == [0, 0, 0, 0, 20, 0, 0, 0]

    def test_rejects_foreign_message_prefix(self):
        result = dispatch(
            ["roundtrip", "--protocol", "ghz3", "--trials", "20", "--message", "bell2"]
        )
        assert result.exit_code == 2

    def test_rejects_bad_noise(self):
        assert dispatch(["roundtrip", "--protocol", "ghz3", "--noise", "1.5"]).exit_code == 2


class TestCapacityCommand:
    def test_text_table(self):
        result = dispatch(["capacity"])
        assert result.exit_code == 0
        assert "1.5" in result.stdout
        assert "2.0" in result.stdout
        assert "ghz3" in result.stdout and "bell2" in result.stdout

    def test_json_rows(self):
        payload = json.loads(dispatch(["capacity", "--json"]).stdout)
        rows = {row["protocol"]: row for row in payload}
        assert rows["ghz3"]["bits_per_transmitted_qubit"] == 1.5
        assert rows["bell2"]["bits_per_transmitted_qubit"] == 2.0
        assert rows["ghz3"]["message_count"] == 8


class TestDispatchPlumbing:
    def test_unknown_command(self):
        assert dispatch(["frobnicate"]).exit_code == 2

    def test_unknown_flag(self):
        assert dispatch(["capacity", "--wat"]).exit_code == 2

    def test_missing_required_argument(self):
        assert dispatch(["bases", "verify"]).exit_code == 2

    def test_help_exits_zero(self):
        assert dispatch(["--help"]).exit_code == 0

    def test_usage_shows_the_basis_names_of_the_catalogs(self):
        shown = "{" + ",".join(_CATALOGS) + "}"
        assert shown == "{bell,ghz,phi}"
        assert f"--basis {shown}" in dispatch(["bases", "verify"]).stdout

    def test_fmt_uses_12_significant_digits(self):
        assert _fmt(1 / 3) == "0.333333333333"
        assert _fmt(1.0) == "1"

    def test_result_is_a_value(self):
        result = dispatch(["capacity"])
        assert isinstance(result, CommandResult)

    def test_main_prints_to_stdout_on_success(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["capacity"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert "ghz3" in captured.out
        assert captured.err == ""

    def test_main_prints_to_stderr_on_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--message", "12"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @staticmethod
    def _run_with_closed(stream: str, args: list[str]) -> subprocess.CompletedProcess:
        """``python -m ghzdense args`` with ``stream``'s pipe closed before
        the command starts, the other stream captured."""
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": str(Path(ghzdense.__file__).resolve().parents[1])}
        other = "stderr" if stream == "stdout" else "stdout"
        try:
            return subprocess.run(
                [sys.executable, "-W", "error", "-m", "ghzdense", *args],
                **{stream: write, other: subprocess.PIPE},
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)

    def test_main_keeps_its_exit_code_when_stdout_is_closed(self):
        out = self._run_with_closed("stdout", ["roundtrip", "--protocol", "ghz3", "--json"])
        assert (out.returncode, out.stderr) == (0, b"")

    def test_main_keeps_its_exit_code_when_stderr_is_closed(self):
        out = self._run_with_closed("stderr", ["encode", "--message", "12"])
        assert (out.returncode, out.stdout) == (2, b"")
