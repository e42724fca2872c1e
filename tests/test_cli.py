"""The command-line driver: emissions, verify suites, exit codes,
determinism."""

import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin import data
from maxlin.cli import CommandConfig, main, run
from maxlin.report import Report


@pytest.fixture()
def fig_files(tmp_path):
    paths = {}
    for name in ("fig1.poset", "fig2.dag", "fig3.dag"):
        target = tmp_path / name
        target.write_text(data.read(name), encoding="utf-8")
        paths[name] = str(target)
    theta = tmp_path / "theta2.json"
    theta.write_text(json.dumps({"theta": [["1/2", "1/2"]] * 5}), encoding="utf-8")
    paths["theta2"] = str(theta)
    theta3 = tmp_path / "theta3.json"
    theta3.write_text(
        json.dumps({"theta": [["1/6", "1/3", "1/2"]] * 3}), encoding="utf-8"
    )
    paths["theta3"] = str(theta3)
    return paths


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG2_STATES = [
    "00000", "00001", "00011", "00101", "00111",
    "01011", "01111", "10111", "11111",
]

FIG2_IDEALS = [
    "00000", "01000", "10000", "10100", "11000",
    "11010", "11100", "11110", "11111",
]


class TestEmissions:
    def test_lattice_text(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys, ["lattice", "--dag", fig_files["fig2.dag"], "--format", "text"]
        )
        assert code == 0
        assert out.splitlines() == FIG2_STATES

    def test_lattice_json(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["lattice", "--dag", fig_files["fig2.dag"]])
        assert code == 0
        assert json.loads(out) == FIG2_STATES

    def test_lattice_of_long_chain(self, capsys, tmp_path):
        """The enumeration is iterative: a chain longer than Python's
        recursion limit still prints every state."""
        dag = tmp_path / "chain1200.dag"
        dag.write_text("1200 2\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1200)))
        code, out, _ = run_main(capsys, ["lattice", "--dag", str(dag), "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1201
        assert lines[0] == "0" * 1200 and lines[-1] == "1" * 1200

    def test_ideals(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["ideals", "--dag", fig_files["fig2.dag"]])
        assert code == 0
        assert json.loads(out) == FIG2_IDEALS

    def test_k_override(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys, ["lattice", "--dag", fig_files["fig3.dag"], "--k", "2"]
        )
        assert code == 0
        assert json.loads(out) == ["000", "001", "010", "011", "111"]

    def test_distribution(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "distribution",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
            ],
        )
        assert code == 0
        values = json.loads(out)
        assert values["11111"] == "1/4"
        assert values["00000"] == "1/32"
        assert list(values) == FIG2_STATES

    def test_zeta(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            ["zeta", "--dag", fig_files["fig2.dag"], "--theta", fig_files["theta2"]],
        )
        assert code == 0
        values = json.loads(out)
        assert values["11111"] == "1"
        assert values["00000"] == "1/32"

    def test_zeta_and_moebius_of_long_chain(self, capsys, tmp_path):
        """The transforms walk the lattice once per coordinate, so a 50-chain
        with k=3 (1,326 states) stays cheap for zeta and the moebius suite."""
        dag = tmp_path / "chain50.dag"
        dag.write_text("50 3\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 50)))
        theta = tmp_path / "theta50.json"
        theta.write_text(json.dumps({"theta": [["1/6", "1/3", "1/2"]] * 50}))
        code, out, _ = run_main(capsys, ["zeta", "--dag", str(dag), "--theta", str(theta)])
        assert code == 0
        values = json.loads(out)
        assert len(values) == 1326
        assert values["2" * 50] == "1"
        code, out, _ = run_main(
            capsys, ["verify", "moebius", "--dag", str(dag), "--trials", "2"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["total"] == 4

    def test_generators_text(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            ["generators", "--dag", fig_files["fig2.dag"], "--format", "text"],
        )
        assert code == 0
        assert sorted(out.splitlines()) == [
            "q[00011]*q[00101] - q[00001]*q[00111]",
            "q[00101]*q[01011] - q[00001]*q[01111]",
            "q[00111]*q[01011] - q[00011]*q[01111]",
            "q[01011]*q[10111] - q[00011]*q[11111]",
            "q[01111]*q[10111] - q[00111]*q[11111]",
        ]

    def test_generators_of_ideals(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "generators",
                "--dag", fig_files["fig1.poset"],
                "--of", "ideals",
                "--format", "text",
            ],
        )
        assert code == 0
        assert sorted(out.splitlines()) == [
            "q[01000]*q[10000] - q[00000]*q[11000]",
            "q[11101]*q[11110] - q[11100]*q[11111]",
        ]

    def test_generators_json_shape(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["generators", "--dag", fig_files["fig3.dag"]])
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 21
        assert all(
            set(e) == {"pair", "meet", "join", "polynomial"} for e in entries
        )


def ladder_dag_text(n: int) -> str:
    """Two chains a_1 < ... < a_m and b_1 < ... < b_m (a_i = 2i-1, b_i = 2i,
    m = n/2) with rungs a_i < b_(i+1): a width-2 poset, as a 2-state DAG."""
    edges = []
    for i in range(1, n // 2):
        a, b, a2, b2 = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, a2), (b, b2), (a, b2)]
    return f"{n} 2\n" + "".join(f"{u} {v}\n" for u, v in edges)


def relabelled_chain_text(n: int) -> str:
    """A chain whose i-th vertex is labelled 11*i mod n + 1 (n coprime to
    11), so the labels are not a topological order, as a 2-state DAG."""
    labels = [11 * i % n + 1 for i in range(n)]
    return f"{n} 2\n" + "".join(f"{u} {v}\n" for u, v in zip(labels, labels[1:]))


# (input, command, format) -> (bytes, sha-256) of stdout, taken from the
# coordinate-wise min/max meets and joins, the per-entry str() rendering of
# states and the prefix-by-prefix lattice enumeration; fig2 and chain30 run
# with --k 3.
PINNED_STDOUT = {
    ("chain30", "ideals", "json"): (
        1119, "aaffa4f03b9b68d94740cbc099b0ac7daad3cc1cd0abd91d29145d8817b52204"
    ),
    ("chain30", "ideals", "text"): (
        961, "49d271377a706ff83cb9b3e684b7c25f1c0ccebb5503eb6353262901f4cbd28c"
    ),
    ("chain30", "lattice", "json"): (
        17859, "23b4a9878b0db7b21f33a60ab88846bd360e8e992dfafe88837695509dcec2c3"
    ),
    ("chain30", "lattice", "text"): (
        15376, "7e34a1c02af2c8dabd64bcd959e5b7fc438fac66c8af248df59054e69fb761f8"
    ),
    ("fig2", "generators", "json"): (
        41820, "2abd745a587ac294c6663901bd6c1206dd0f7a57a7c2a1f2a19181f1c069b199"
    ),
    ("fig2", "generators", "text"): (
        9994, "44042496369612638a674b2e8658b48bf112a5f52805def8c028883bdeab2bb7"
    ),
    ("fig2", "lattice", "json"): (
        443, "f28e26ee53cf94d105e691597fe2d4266d086722c7dbf7a1f6fcdc618510c643"
    ),
    ("fig2", "lattice", "text"): (
        240, "fc9721ae586f881f6fe82da04184dcb2fcee81fce166f58fb3d3878cb56220e7"
    ),
    ("ladder20", "generators", "json"): (
        199488, "0b7c1fe9c2113f953e52512d7d2f293e75fd23932ad65ff32dc7fbe0a3785a93"
    ),
    ("ladder20", "generators", "text"): (
        70070, "b40667027106645b5f051deefe68eb666e2d5436d9071b8f4e38d41e27f4db44"
    ),
    ("ladder20", "lattice", "json"): (
        1979, "cd9cead93fed5b721a8651152bed38059dd5ccaaab7d93140ea73bc93775a1f8"
    ),
    ("ladder20", "lattice", "text"): (
        1596, "8c2d051726635e4c65a2453a34af8201aa74dac1e7807f2df32a1ba6c1426b92"
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("case", list(PINNED_STDOUT), ids="-".join)
    def test_stdout_digest(self, capsys, fig_files, tmp_path, case):
        source, command, fmt = case
        if source == "fig2":
            argv = ["--dag", fig_files["fig2.dag"], "--k", "3"]
        elif source == "chain30":
            dag = tmp_path / "chain30.dag"
            dag.write_text(relabelled_chain_text(30), encoding="utf-8")
            argv = ["--dag", str(dag), "--k", "3"]
        else:
            dag = tmp_path / "ladder20.dag"
            dag.write_text(ladder_dag_text(20), encoding="utf-8")
            argv = ["--dag", str(dag)]
        code, out, err = run_main(capsys, [command, *argv, "--format", fmt])
        assert (code, err) == (0, "")
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_STDOUT[case]


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["vanishing", "theorem31", "oracle", "moebius", "eq5", "groebner"]
    )
    def test_suites_pass_on_fig2(self, capsys, fig_files, suite):
        code, out, _ = run_main(
            capsys,
            [
                "verify", suite,
                "--dag", fig_files["fig2.dag"],
                "--seed", "7",
                "--trials", "5",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["suite"] == suite

    def test_oracle_report_detail(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "verify", "oracle",
                "--dag", fig_files["fig2.dag"],
                "--seed", "7",
                "--trials", "50",
            ],
        )
        assert code == 0
        assert json.loads(out)["detail"] == "50/50 trials, 9 states each, exact match"

    def test_failing_suite_exits_nonzero(self, capsys, fig_files, monkeypatch):
        import maxlin.cli as cli

        monkeypatch.setattr(
            cli,
            "roundtrip_check",
            lambda lattice, trials, seed: Report(
                "moebius", total=1, failures=["trial 0: zeta then inverse"]
            ),
        )
        code, out, _ = run_main(
            capsys, ["verify", "moebius", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failures"] == ["trial 0: zeta then inverse"]

    def test_oracle_limit_env(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "4")
        code, _, err = run_main(
            capsys, ["verify", "oracle", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 2
        assert "guard" in err

    def test_oracle_limit_env_not_an_integer(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "abc")
        code, out, err = run_main(
            capsys, ["verify", "oracle", "--dag", fig_files["fig2.dag"]]
        )
        assert (code, out) == (2, "")
        assert err == "error: MAXLIN_ORACLE_LIMIT must be an integer, got 'abc'\n"


    def test_groebner_certificate_at_scale(self, capsys, fig_files):
        # 125 states and 3,480 generators: S-pair reduction took seconds here
        code, out, _ = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"], "--k", "4"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["total"] == 6053460
        assert report["detail"] == (
            "3480 generators map to 0; standard/image monomials in degrees 1-3: "
            "125/125, 4395/4395, 75664/75664"
        )

    def test_groebner_fig2_k6(self, capsys, fig_files):
        """686 states and 132,498 generators pass under the default guard."""
        code, out, _ = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"], "--k", "6"]
        )
        assert code == 0
        assert json.loads(out)["detail"] == (
            "132498 generators map to 0; standard/image monomials in degrees 1-3: "
            "686/686, 103143/103143, 6306184/6306184"
        )

    @pytest.mark.parametrize(
        "suite, variable, limit, message",
        [
            (
                "oracle",
                "MAXLIN_ORACLE_LIMIT",
                "31",
                "enumeration needs 2**5 = 32 innovation vectors but the guard is 31",
            ),
            (
                "groebner",
                "MAXLIN_HILBERT_LIMIT",
                "80",
                "the Hilbert counts need 9**2 = 81 state pairs but the guard is 80",
            ),
        ],
    )
    def test_guard_names_its_variable(
        self, capsys, fig_files, monkeypatch, suite, variable, limit, message
    ):
        monkeypatch.setenv(variable, limit)
        argv = ["verify", suite, "--dag", fig_files["fig2.dag"], "--trials", "1"]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}; {variable} sets the guard\n"
        monkeypatch.setenv(variable, str(int(limit) + 1))
        assert run_main(capsys, argv)[0] == 0

    def test_hilbert_limit_env_not_an_integer(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "1e7")
        code, out, err = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"]]
        )
        assert (code, out) == (2, "")
        assert err == "error: MAXLIN_HILBERT_LIMIT must be an integer, got '1e7'\n"


class TestEval:
    def test_sum_to_one_relation(self, capsys, fig_files, tmp_path):
        poly = tmp_path / "relations.poly"
        poly.write_text(
            "# the normalization relation\n"
            "p[00000]+p[00001]+p[00011]+p[00101]+p[00111]"
            "+p[01011]+p[01111]+p[10111]+p[11111] - 1\n",
            encoding="utf-8",
        )
        code, out, _ = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 0
        results = json.loads(out)
        assert len(results) == 1
        assert results[0]["value"] == "0"

    def test_bad_polynomial_exits_two(self, capsys, fig_files, tmp_path):
        poly = tmp_path / "bad.poly"
        poly.write_text("p[00000] +", encoding="utf-8")
        code, _, err = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 2
        assert "error" in err

    def test_off_lattice_vector_is_zero(self, capsys, fig_files, tmp_path):
        # 10000 has entries below k but is not monotone, so it has probability 0
        poly = tmp_path / "off.poly"
        poly.write_text("p[10000]\np[00000] + p[10000]\n", encoding="utf-8")
        code, out, _ = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 0
        assert [r["value"] for r in json.loads(out)] == ["0", "1/32"]

    @pytest.mark.parametrize("variable", ["p[1000]", "p[20000]"])
    def test_vector_outside_the_cube_exits_two(self, capsys, fig_files, tmp_path, variable):
        # wrong length, or an entry of at least k
        poly = tmp_path / "bad.poly"
        poly.write_text(variable, encoding="utf-8")
        code, out, err = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: no value for variable {variable}\n"


    def test_q_variables_take_the_zeta_coordinates(self, capsys, tmp_path):
        # on the 2-chain 1 -> 2 the states are 00, 01, 11, and q_g sums p
        # over the states below g
        dag = tmp_path / "chain2.dag"
        dag.write_text("2 2\n1 2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [["1/3", "2/3"], ["1/4", "3/4"]]}), encoding="utf-8")
        poly = tmp_path / "q.poly"
        poly.write_text(
            "q[11] - 1\nq[01] - p[00] - p[01]\nq[00]\n2*q[01]*p[11]\n", encoding="utf-8"
        )
        argv = ["eval", "--dag", str(dag), "--theta", str(theta), "--poly", str(poly)]
        code, out, err = run_main(capsys, argv + ["--format", "text"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "q[11] - 1 = 0",
            "q[01] - p[00] - p[01] = 0",
            "q[00] = 1/12",
            "2*q[01]*p[11] = 4/9",
        ]

    def test_off_lattice_q_variable_exits_two(self, capsys, tmp_path):
        dag = tmp_path / "chain2.dag"
        dag.write_text("2 2\n1 2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [["1/2", "1/2"]] * 2}), encoding="utf-8")
        poly = tmp_path / "q.poly"
        poly.write_text("q[10]\n", encoding="utf-8")
        argv = ["eval", "--dag", str(dag), "--theta", str(theta), "--poly", str(poly)]
        assert run_main(capsys, argv) == (2, "", "error: no value for variable q[10]\n")


class TestErrorsAndDeterminism:
    def test_cyclic_dag_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "cyclic.dag"
        bad.write_text("2 2\n1 2\n2 1\n", encoding="utf-8")
        code, _, err = run_main(capsys, ["lattice", "--dag", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, ["lattice", "--dag", str(tmp_path / "nope.dag")]
        )
        assert code == 2
        assert "error" in err

    def test_missing_theta_exits_two(self, capsys, fig_files):
        code, _, err = run_main(
            capsys, ["distribution", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 2
        assert "--theta" in err

    @pytest.mark.parametrize("command", ["lattice", "distribution", "zeta"])
    def test_eleven_states_exits_two(self, capsys, fig_files, tmp_path, command):
        # state strings are one digit per vertex, so k >= 11 has no encoding
        theta = tmp_path / "theta11.json"
        theta.write_text(json.dumps({"theta": [["1/11"] * 11] * 3}), encoding="utf-8")
        argv = [command, "--dag", fig_files["fig3.dag"], "--k", "11"]
        if command != "lattice":
            argv += ["--theta", str(theta)]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_identical_config_identical_output(self, capsys, fig_files):
        argv = [
            "verify", "eq5",
            "--dag", fig_files["fig3.dag"],
            "--seed", "3",
            "--trials", "4",
        ]
        code1, out1, _ = run_main(capsys, argv)
        code2, out2, _ = run_main(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_run_with_config_object(self, fig_files, capsys):
        config = CommandConfig(command="lattice", dag_path=fig_files["fig2.dag"], fmt="text")
        assert run(config) == 0
        assert capsys.readouterr().out.splitlines() == FIG2_STATES


# The theta grammar: an integer, a/b or a plain decimal, in ASCII digits.
RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")

# ASCII digits and the characters Fraction() also takes, plus Arabic-Indic
# digits and the fullwidth digit one.
THETA_CHARS = "0129/.-+_ eE\u0661\u0662\uff11"

# Entries of a 2 x 2 table: 0, 1/2 and 1 spelled in and out of the grammar
# (Fraction() takes every spelling here but the last three), random text
# over THETA_CHARS, and JSON numbers.
THETA_ENTRIES = st.one_of(
    st.sampled_from(
        ["0", "1", "1/2", "0.5", "2/4", "-0", "+1/2", " 1/2", "1/2\n", "0_1/2", "1/0_2",
         "5e-1", "50E-2", "1.", ".5", "\u0661/\u0662", "1/\uff12", "1/2.0", "1 /2", "0x1"]
    ),
    st.text(THETA_CHARS, max_size=8),
    st.integers(-1, 2),
    st.floats(),
)


def distribution_on_a_two_chain(directory, theta_text: str) -> tuple[int, str, str]:
    """(status, stdout, stderr) of `distribution` on the 2-chain with k=2
    and the given theta file text."""
    dag, theta = directory / "chain2.dag", directory / "theta.json"
    dag.write_text("2 2\n1 2\n", encoding="utf-8")
    theta.write_text(theta_text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["distribution", "--dag", str(dag), "--theta", str(theta)])
    return code, out.getvalue(), err.getvalue()


def loads_or_one_error_line(code: int, out: str, err: str) -> bool:
    if code == 0:
        return err == "" and bool(json.loads(out))
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestThetaInput:
    @pytest.mark.parametrize(
        "rows",
        [
            [["\u0661/\u0662", "1_0/2_0"], ["+1/2", "0.5"]],
            [["1e-100000", "1"], ["1/2", "1/2"]],
            [["1e-4000000", "1"], ["1/2", "1/2"]],
            [[" 1/2", "1/2"], ["1/2", "1/2"]],
            [[1e-05, "1"], ["1/2", "1/2"]],
        ],
    )
    def test_outside_the_grammar_exits_two(self, tmp_path, rows):
        code, out, err = distribution_on_a_two_chain(tmp_path, json.dumps({"theta": rows}))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: bad rational .*: expected an integer, a/b or a decimal\n", err)

    def test_numbers_and_decimals_load(self, tmp_path):
        theta = json.dumps({"theta": [[0.25, "0.75"], ["-0/3", 1]]})
        code, out, err = distribution_on_a_two_chain(tmp_path, theta)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"00": "0", "01": "1/4", "11": "3/4"}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.lists(st.lists(THETA_ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2),
            st.lists(st.lists(THETA_ENTRIES, max_size=3), max_size=3),
        )
    )
    def test_any_entries_load_or_exit_two(self, tmp_path_factory, rows):
        """Entries outside the grammar always exit 2; tables in it load or
        exit 2 on the table's own checks (row length, sign, sum)."""
        directory = tmp_path_factory.mktemp("theta")
        code, out, err = distribution_on_a_two_chain(directory, json.dumps({"theta": rows}))
        assert loads_or_one_error_line(code, out, err)
        if not all(RATIONAL.fullmatch(str(v)) for row in rows for v in row):
            assert code == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.text('{}[]",: theta0129/.-e\u0661', max_size=40))
    def test_any_text_loads_or_exits_two(self, tmp_path_factory, text):
        directory = tmp_path_factory.mktemp("theta")
        assert loads_or_one_error_line(*distribution_on_a_two_chain(directory, text))
