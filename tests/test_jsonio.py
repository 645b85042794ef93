"""The JSON formats: pinned bytes, the writer, exact round trips, rejected inputs."""

import gc
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import (
    ConeGenerators,
    DimVector,
    Ensemble,
    HermitianOperator,
    Measurement,
    PrecheckError,
    SchemaError,
    SeparableDecomposition,
    VerificationReport,
    build_example1,
    build_example2,
    example_cone_generators,
    load_certificate,
    load_measurement,
    solve_global,
    solve_separable_bound,
    validate_ensemble,
    verify_optimality,
    verify_separable_certificate,
)
from udbound.cli import main
from udbound.jsonio import dumps, matrix_from_json, matrix_to_json, read_json, write_json
from helpers import random_ensemble

# sha256 of the files written by `udbound example1` and `udbound example2 --d 3|4`.
# The fixtures are closed forms (outer and Kronecker products of exact
# vectors), so these bytes do not depend on the BLAS/LAPACK build.
WRITTEN_SHA256 = {
    "example1": {
        "example1_certificate_global.json": "666a516171ad5ecdb97e1426940e14a76e6fc7c3e5ea20452d3b7317140badbd",
        "example1_certificate_sep.json": "1ffc2d7c18ec825e1303fd332a4fb1991f0e657d0b2bc4dbabc2257872d9c439",
        "example1_cones.json": "bedc140bfcf56013ec5e448f565ceb0d7b1a4965ecc247da12dfe172c5add1bc",
        "example1_ensemble.json": "9140a24a384d5f155abd675566e286ffe922c9b3f6feecb357b2a5b702dab6b7",
        "example1_measurement_global.json": "ca98325b7ad809319c482e2222fcc9580bc228d595b9035b4b4b7c465c8e63ac",
        "example1_measurement_locc.json": "ad63ba5145929c693ac126a5d20eaf0dcb1b4dac64ef737b1eafc61a80c7109c",
    },
    "example2_d3": {
        "example2_d3_certificate_global.json": "d87fb16a6a0454067e15ea75fb2ca25aa5318371df6ec8030727a8f2585706b3",
        "example2_d3_certificate_sep.json": "037d32906ee959d275807f3748be2ec1cacbb40baae05ae10a57fbd1e6d71a79",
        "example2_d3_cones.json": "2c10ce980ec04c005da2847912761ab74ab7abda7eb5a4cecd86c3f92079a8a6",
        "example2_d3_ensemble.json": "1a93d86f4a0f390223cb71b791d7f1e134d7619ddd2fd23b841024304c8e8726",
        "example2_d3_measurement_global.json": "bb57bb2a21dcbc00e8d8af6ee1361f7712dd2a02d3e73800c5cad90af0355cb7",
        "example2_d3_measurement_locc.json": "aa68016a53dc3457813e47f66b72783b736c77cc562bdf0ee94d4b9ca691f3e0",
    },
    "example2_d4": {
        "example2_d4_certificate_global.json": "7850969898c5e72258d1674fe8382aa62e6418c6b5c3f7e49a209ab413dde344",
        "example2_d4_certificate_sep.json": "000289f6e11247746fbc4484d3e538e09b4d327cbd7c8da88c5484e5b31eb653",
        "example2_d4_cones.json": "11c7875b00fd5c97af4a13775c588975f6c981826e225c5381711964136a9483",
        "example2_d4_ensemble.json": "bcb3a6588ad772df1ef6900134f845ead724bd2af696289114f8991718999a58",
        "example2_d4_measurement_global.json": "147c52c3d3a32a1fb14a08b181150f20232084a4cea7e885fb9f5262c4add0f0",
        "example2_d4_measurement_locc.json": "7d96a05564587cc91f6487f41c859516d6fd09c285a06c92bbde622dfc0605d0",
    },
}

EXAMPLE_ARGS = {
    "example1": ["example1"],
    "example2_d3": ["example2", "--d", "3"],
    "example2_d4": ["example2", "--d", "4"],
}


class TestWrittenBytes:
    @pytest.mark.parametrize("name", sorted(WRITTEN_SHA256))
    def test_example_files_match_pinned_hashes(self, name, tmp_path):
        assert main([*EXAMPLE_ARGS[name], "--out", str(tmp_path)]) == 0
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.json")
        }
        assert written == WRITTEN_SHA256[name]

    def test_json_stdout_is_the_written_report(self, tmp_path, capsys):
        assert main(["example1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        args = ["solve", "global", "--ensemble", str(tmp_path / "example1_ensemble.json")]
        assert main([*args, "--format", "json", "--out", str(report)]) == 0
        text = report.read_text(encoding="utf-8")
        assert text.endswith("}\n")
        assert capsys.readouterr().out == text  # print adds the newline the file ends with


# ---------------------------------------------------------------------------
# the writer: the text of json.dumps(obj, indent=2, sort_keys=True)

TRICKY_STRINGS = st.sampled_from(["], [", ", ", '"', "\n", "]], [[", "[]", "{}", "é ∞ 😀", "a\\b", ""])
NUMBERS = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308, 1.79e308]),
    st.integers(-(10**40), 10**40),
)
LEAVES = st.one_of(NUMBERS, st.booleans(), st.none(), TRICKY_STRINGS, st.text(max_size=6))


@st.composite
def uniform_number_lists(draw):
    """Number lists nested to one depth with ragged lengths, like matrices."""
    depth = draw(st.integers(1, 4))

    def level(k):
        size = draw(st.integers(1, 3))
        return [draw(NUMBERS) if k == depth else level(k + 1) for _ in range(size)]

    return level(1)


JSON_TREES = st.recursive(
    st.one_of(LEAVES, uniform_number_lists()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(TRICKY_STRINGS, st.text(max_size=6)), children, max_size=4),
    ),
    max_leaves=24,
)


def listify(tree):
    """The payload with every array leaf replaced by its ``tolist()``."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {key: listify(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [listify(item) for item in tree]
    return tree


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1.79e308, -1.79e308]
PARTS = st.one_of(st.sampled_from([*EDGE, math.nan, math.inf, -math.inf]), st.floats(width=64))


@st.composite
def matrix_leaves(draw):
    """(r, c, 2) float64 leaves: all-zero, fully dense or mixed, in several memory layouts."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fill = draw(st.sampled_from(["zero", "dense", "mixed"]))
    size = 2 * rows * cols
    if fill == "zero":
        parts = [0.0] * size
    else:
        parts = draw(st.lists(PARTS, min_size=size, max_size=size))
        if fill == "dense":  # no pair is two +0.0
            parts[0::2] = [-0.0 if x == 0 else x for x in parts[0::2]]
    mat = np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)
    layout = draw(st.sampled_from(["C", "F", "strided", "raw F", "raw strided"]))
    if layout == "F":
        return matrix_to_json(np.asfortranarray(mat))
    if layout == "strided":
        return matrix_to_json(np.repeat(np.repeat(mat, 2, axis=0), 3, axis=1)[::2, ::3])
    if layout == "raw F":  # array leaves that did not come from matrix_to_json
        return np.asfortranarray(matrix_to_json(mat))
    if layout == "raw strided":
        return np.repeat(matrix_to_json(mat), 2, axis=1)[:, ::2]
    return matrix_to_json(mat)


# matrices as dict values, in lists (site POVMs) and in lists of lists (decomposition terms)
MATRIX_TREES = st.recursive(
    st.one_of(
        matrix_leaves(),
        st.lists(matrix_leaves(), min_size=1, max_size=3),
        st.lists(st.lists(matrix_leaves(), min_size=1, max_size=3), min_size=1, max_size=3),
        LEAVES,
        uniform_number_lists(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(TRICKY_STRINGS, st.text(max_size=6)), children, max_size=3),
    ),
    max_leaves=8,
)


class TestWriter:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(JSON_TREES)
    @example([[1], 2])
    @example([[[1.0, 2.0]], [3.0, [4.0]]])
    @example({"a": [[], [[]], [1, []]], "b": {"c": {}}, "], [": ["], [", ", "]})
    @example([[{}], [{}]])
    @example(((1, (2, 3)), [4, 5]))
    @example([0.5, ", ", "]], [["])
    @example([[1, "x], [y"], [2, "a, b"]])
    @example([[[0.0, -0.0], [1.5, 0.0]], [[0.0, 0.0], [math.nan, -math.inf]]])
    @example([[[0.5, 1]], [[True, 0.0]]])
    @example([[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]])
    @example([[[1.0, 2.0, 3.0]]])
    def test_matches_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(MATRIX_TREES)
    @example({"m": np.zeros((3, 3, 2)), "n": [[np.zeros((1, 1, 2))]]})
    @example([1.5, np.array([[[math.nan, -0.0]], [[math.inf, -math.inf]]])])
    @example({"empty": [np.zeros((0, 3, 2)), np.zeros((2, 0, 2))]})
    def test_array_leaves_match_json_dumps_of_lists(self, tree):
        expected = json.dumps(listify(tree), indent=2, sort_keys=True)
        assert dumps(tree) == expected
        assert dumps(listify(tree)) == expected  # the payload as read back from a file

    @pytest.mark.parametrize(
        "leaf",
        [
            np.zeros((2, 2)),
            np.zeros((2, 2, 3)),
            np.zeros((1, 2, 2, 2)),
            np.zeros(2),
            np.zeros((2, 2, 2), dtype=np.float32),
            np.zeros((2, 2, 2), dtype=np.int64),
            np.zeros((2, 2), dtype=np.complex128),
        ],
    )
    @pytest.mark.parametrize("wrap", [lambda a: a, lambda a: {"m": a}, lambda a: [a], lambda a: [[0.5], [a]]])
    def test_other_arrays_raise_type_error(self, leaf, wrap):
        with pytest.raises(TypeError):
            dumps(wrap(leaf))

    @pytest.mark.parametrize("obj", [{1: "a", 2.5: "b"}, {True: 1, False: 2}, {None: 2}, {math.nan: 0}])
    def test_non_string_keys_match_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{(1,): 0}, [object()], {"a": {1, 2}}])
    def test_unencodable_values_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)


class TestReader:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_setting_is_restored(self, tmp_path, enabled):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"a": [[1.0, 2.0]]}', encoding="utf-8")
        bad.write_text("{not json", encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert read_json(good) == {"a": [[1.0, 2.0]]}
            assert gc.isenabled() is enabled
            with pytest.raises(SchemaError, match="invalid JSON"):
                read_json(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# verdicts survive the files


def _random_two_qubit_ensemble(seed):
    rng = np.random.default_rng(seed)
    dims = DimVector((2, 2))
    states = []
    for _ in range(3):
        g = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        rho = g @ g.conj().T
        states.append(HermitianOperator(rho / np.trace(rho).real, dims))
    weights = rng.exponential(size=3) + 0.05
    return Ensemble(dims, tuple(weights / weights.sum()), tuple(states))


ROUND_TRIP_ENSEMBLES = {
    "example1": lambda: build_example1()[0],
    "example2_d3": lambda: build_example2(3)[0],
    "random_seed_0": lambda: _random_two_qubit_ensemble(0),
    "random_seed_1": lambda: _random_two_qubit_ensemble(1),
}


def _verdict_bits(report):
    return (
        report.passed,
        report.failing,
        {k: v.hex() for k, v in report.residuals.items()},
        {k: {i: v.hex() for i, v in d.items()} for k, d in report.details.items()},
        report.value.hex(),
    )


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_ENSEMBLES))
def test_solved_verdict_survives_write_and_load(name, tmp_path):
    ensemble = ROUND_TRIP_ENSEMBLES[name]()
    solved = solve_global(ensemble, tol=1e-7, seed=0)
    assert solved.status == "optimal"
    payload = solved.to_dict()
    write_json(tmp_path / "m.json", payload["measurement"])
    write_json(tmp_path / "c.json", payload["dual_certificate"])
    in_memory = verify_optimality(ensemble, solved.measurement, solved.dual_certificate, tol=1e-6)
    from_files = verify_optimality(
        ensemble, load_measurement(tmp_path / "m.json"), load_certificate(tmp_path / "c.json"), tol=1e-6
    )
    assert in_memory.passed
    assert _verdict_bits(from_files) == _verdict_bits(in_memory)


def _solver_case(name):
    if name == "random_3_qubit":
        ensemble = random_ensemble(np.random.default_rng(5), (2, 2, 2), 4)
        return ensemble, [ConeGenerators(ensemble.dims, ()) for _ in range(ensemble.n)]
    ensemble, _ = build_example1() if name == "example1" else build_example2(3)
    family = name.split("_")[0]
    return ensemble, [example_cone_generators(ensemble, family, i) for i in range(ensemble.n)]


@pytest.mark.parametrize("kind", ["global", "sep-bound"])
@pytest.mark.parametrize("name", ["example1", "example2_d3", "random_3_qubit"])
def test_solver_reports_match_json_dumps(name, kind, tmp_path):
    """Solver outputs are dense, with -0.0 and tiny entries; the sha256 pins cover only sparse fixtures."""
    ensemble, cones = _solver_case(name)
    if kind == "global":
        report = solve_global(ensemble, tol=1e-8, seed=0)
    else:
        report = solve_separable_bound(ensemble, cones, tol=1e-8, seed=0)
    payload = report.to_dict()
    text = write_json(tmp_path / "report.json", payload)
    assert text == json.dumps(listify(payload), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# codec properties


@st.composite
def complex_matrices(draw, max_side=4):
    side = draw(st.integers(1, max_side))
    parts = draw(st.lists(FINITE, min_size=2 * side * side, max_size=2 * side * side))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(side, side)


def _bits(mat):
    return np.ascontiguousarray(mat).view(np.uint64)


def _reference_to_json(mat):
    """The per-cell encoder the vectorised one must match byte for byte."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


class TestCodecProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(complex_matrices())
    @example(np.array([[complex(a, b) for b in EDGE] for a in EDGE], dtype=np.complex128))
    def test_round_trip_is_bit_exact(self, mat):
        text = json.dumps(matrix_to_json(mat).tolist())
        assert text == json.dumps(_reference_to_json(mat))
        back = matrix_from_json(json.loads(text), "m")
        assert back.shape == mat.shape
        assert np.array_equal(_bits(back), _bits(mat))

    BAD_CELLS = {
        "string": lambda re, im: [str(re), im],
        "null": lambda re, im: [re, None],
        "nan": lambda re, im: [math.nan, im],
        "infinity": lambda re, im: [re, math.inf],
        "-infinity": lambda re, im: [-math.inf, im],
        "overflowing int": lambda re, im: [10**400, im],
        "short pair": lambda re, im: [re],
        "long pair": lambda re, im: [re, im, 0.0],
        "bare number": lambda re, im: re,
    }

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(complex_matrices(), st.sampled_from(sorted(BAD_CELLS)), st.data())
    def test_malformed_entries_are_schema_errors(self, mat, kind, data):
        payload = matrix_to_json(mat).tolist()
        side = len(payload)
        r = data.draw(st.integers(0, side - 1))
        c = data.draw(st.integers(0, side - 1))
        payload[r][c] = self.BAD_CELLS[kind](*payload[r][c])
        with pytest.raises(SchemaError, match=r"^m: "):
            matrix_from_json(payload, "m")

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(complex_matrices(), st.data())
    def test_ragged_and_non_square_rows_are_schema_errors(self, mat, data):
        payload = matrix_to_json(mat).tolist()
        r = data.draw(st.integers(0, len(payload) - 1))
        if data.draw(st.booleans()):
            payload[r].pop()
        else:
            payload[r].append([0.0, 0.0])
        with pytest.raises(SchemaError):
            matrix_from_json(payload, "m")

    @pytest.mark.parametrize("data", [None, [], [[]], "[[[1, 0]]]", {"re": 1}, [[[1, 0]], [[0, 1]]], 3.0])
    def test_non_matrix_values_are_schema_errors(self, data):
        with pytest.raises(SchemaError):
            matrix_from_json(data, "m")


# ---------------------------------------------------------------------------
# non-finite inputs exit 2 instead of passing or crashing


@pytest.fixture()
def example1_dir(tmp_path):
    assert main(["example1", "--out", str(tmp_path)]) == 0
    return tmp_path


def _rewrite(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _verify(kind, d):
    args = [
        "verify",
        kind,
        "--ensemble",
        str(d / "example1_ensemble.json"),
        "--measurement",
        str(d / ("example1_measurement_global.json" if kind == "prop1" else "example1_measurement_locc.json")),
        "--certificate",
        str(d / ("example1_certificate_global.json" if kind == "prop1" else "example1_certificate_sep.json")),
    ]
    if kind != "prop1":
        args += ["--cones", str(d / "example1_cones.json")]
    return main(args)


class TestNonFiniteInputs:
    def test_nan_prior(self, example1_dir, capsys):
        def nan_prior(p):
            p["states"][0]["prior"] = math.nan

        _rewrite(example1_dir / "example1_ensemble.json", nan_prior)
        assert _verify("prop1", example1_dir) == 2
        assert "states[0].prior" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["thm3", "cor3"])
    def test_nan_decomposition_factor(self, example1_dir, kind, capsys):
        def nan_factor(p):
            p["elements"][1]["decomposition"]["terms"][0][0][0][0][0] = math.nan

        _rewrite(example1_dir / "example1_measurement_locc.json", nan_factor)
        assert _verify(kind, example1_dir) == 2
        assert "elements[1].decomposition.terms[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, matrix",
        [
            ("example1_ensemble.json", lambda p: p["states"][0]["matrix"]),
            ("example1_measurement_global.json", lambda p: p["elements"][0]["matrix"]),
            ("example1_certificate_global.json", lambda p: p["matrix"]),
        ],
    )
    def test_overflowing_matrix_entry(self, example1_dir, name, matrix, capsys):
        def overflow(p):
            matrix(p)[0][0][0] = 10**400

        _rewrite(example1_dir / name, overflow)
        assert _verify("prop1", example1_dir) == 2
        assert "finite [re, im] pairs" in capsys.readouterr().err

    def test_nan_factor_fails_the_separability_precheck(self):
        ensemble, fixtures = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(ensemble.n)]
        locc = fixtures.locc_measurement
        decompositions = locc.locc_protocol.derive_decompositions(locc.dims, len(locc.elements))
        factors = [np.array(f) for f in decompositions[1].terms[0]]
        factors[0][0, 0] = math.nan
        broken = SeparableDecomposition((tuple(factors), *decompositions[1].terms[1:]))
        measurement = Measurement(
            locc.dims,
            locc.elements,
            decompositions=(decompositions[0], broken, *decompositions[2:]),
        )
        with pytest.raises(PrecheckError, match="element 1"):
            verify_separable_certificate(ensemble, measurement, fixtures.sep_certificate, cones)

    def test_validate_ensemble_rejects_non_finite_priors(self):
        ensemble, _ = build_example1()
        for bad in (math.nan, math.inf):
            priors = (bad, *ensemble.priors[1:])
            report = validate_ensemble(Ensemble(ensemble.dims, priors, ensemble.states))
            assert not report.ok and "prior 1" in str(report)

    def test_nan_residual_fails_the_report(self):
        report = VerificationReport(tolerance=1e-8, residuals={"7a": 0.0, "7d": math.nan})
        assert report.failing == ["7d"] and not report.passed
