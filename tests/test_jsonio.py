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
    load_cones,
    load_ensemble,
    load_measurement,
    save_certificate,
    save_cones,
    save_ensemble,
    save_measurement,
    solve_global,
    solve_separable_bound,
    validate_ensemble,
    verify_optimality,
    verify_separable_certificate,
)
from udbound.cli import main
from udbound.ensembles import ensemble_to_dict, measurement_from_dict, measurement_to_dict
from udbound.jsonio import (
    dumps,
    matrices_from_json,
    matrix_from_json,
    matrix_groups_from_json,
    matrix_to_json,
    operator_from_dict,
    read_json,
    write_json,
)
from helpers import dense_rendering, random_ensemble, reference_matrix_from_json, reference_matrix_to_json

# sha256 of the files written by `udbound example1` and `udbound example2 --d 3|4`.
# The fixtures are closed forms (outer and Kronecker products of exact
# vectors), so these bytes do not depend on the BLAS/LAPACK build.
WRITTEN_SHA256 = {
    "example1": {
        "example1_certificate_global.json": "1cef6d2560f2840bf063befc9c3a2358833d9de1121c2e02125ab13144dcd748",
        "example1_certificate_sep.json": "4eab8b27bdaf0e1c6b3eecd5bb1e2383d08283d5eb2b4f51e8eb7521fd180639",
        "example1_cones.json": "aa421c00b2fc6ce72617eebc9ef2893c0c1d57aa1dbc7e763989ec303da9d645",
        "example1_ensemble.json": "e1fa73508a62cb50852f42a9263bbf5a3066b0a5d3bc31b6102c1ea9fdcc2b2f",
        "example1_measurement_global.json": "934f00c440334be8b97ae8fe7d240bb8e8a9d3ac840e08e9030e7f86ac392b57",
        "example1_measurement_locc.json": "0ece54016a7db91b15f9750452fe217039bbc6768891ce305d133a30f29ae3f6",
    },
    "example2_d3": {
        "example2_d3_certificate_global.json": "cec1b69ddc16f7ed5b542b11395b7b84ad4d151bcff7214b760eea105139782b",
        "example2_d3_certificate_sep.json": "be827509918ff76155a316106e6d75e84196efb3c623f5ab403cedd7c65fa11d",
        "example2_d3_cones.json": "d8fdf86e29ca0547ad5ddead40c34a4a09f116a8e8b46fe2ce501cc8a5eb2f5e",
        "example2_d3_ensemble.json": "0e5834d1a86e27ce3a91531f3ff8a5dde6c61c6ea4ce66f1d785838c7ebcb2eb",
        "example2_d3_measurement_global.json": "b2dd66341bee2db80ef33ecdbd2d6983577b5cca107deba36b934f438160085c",
        "example2_d3_measurement_locc.json": "3a5f70e82acd589c67ddb14dc9de632c5a099549201d60000e735f3cbec3f3db",
    },
    "example2_d4": {
        "example2_d4_certificate_global.json": "7f9ca19084c7d6af00e795ff5dff06b7d68ff04650e9319b3a7cd2ba6654a1cf",
        "example2_d4_certificate_sep.json": "9bdbbd29d859c1189de62982e75bdcd3297682631edcc318bdf413d2528e63e2",
        "example2_d4_cones.json": "205e6013b53555f283425cf715b37697dd5e712f061105f618ccf1b0dea32706",
        "example2_d4_ensemble.json": "93b6a18cc4020f58dabd8aa2491d91bf2e82b86b6c457ccd44600cf8ce223ae4",
        "example2_d4_measurement_global.json": "63b537781b7f27440afecb9dca620b114f8d3da89d048840333d7e8c1801bc1d",
        "example2_d4_measurement_locc.json": "73ab05d05d2ebb3bb2325cc9ab982dfe682f772520f2d9da92c950d6cfb90aa2",
    },
}

# sha256 of the same files written densely, every matrix as nested rows of [re, im] pairs, as they were
# written before the coordinate form: each written file, re-rendered dense, must still hash to these.
DENSE_SHA256 = {
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

# each example file's loader and writer, by the kind its name ends with
FORMATS = {
    "ensemble": (load_ensemble, save_ensemble),
    "measurement": (load_measurement, save_measurement),
    "certificate": (load_certificate, save_certificate),
    "cones": (load_cones, save_cones),
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

    @pytest.mark.parametrize("name", sorted(DENSE_SHA256))
    def test_dense_rendering_matches_the_dense_pins(self, name, tmp_path):
        # no written number moved: each file, with its coordinate objects expanded, is the dense file
        assert main([*EXAMPLE_ARGS[name], "--out", str(tmp_path)]) == 0
        rendered = {}
        for path in tmp_path.glob("*.json"):
            text = json.dumps(dense_rendering(json.loads(path.read_text(encoding="utf-8"))), indent=2, sort_keys=True)
            rendered[path.name] = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert rendered == DENSE_SHA256[name]

    @pytest.mark.parametrize("name", sorted(DENSE_SHA256))
    def test_dense_files_load_to_the_same_objects(self, name, tmp_path):
        # the dense re-renderings are the files written before the coordinate form: they still load, bit for bit
        assert main([*EXAMPLE_ARGS[name], "--out", str(tmp_path)]) == 0
        for path in sorted(tmp_path.glob("*.json")):
            kind = path.stem.split("_")[-2 if path.stem.endswith(("global", "locc", "sep")) else -1]
            load, save = FORMATS[kind]
            dense = tmp_path / "dense" / path.name
            dense.parent.mkdir(exist_ok=True)
            write_json(dense, dense_rendering(json.loads(path.read_text(encoding="utf-8"))))
            save(load(dense), tmp_path / "dense" / "again.json")
            assert (tmp_path / "dense" / "again.json").read_bytes() == path.read_bytes()

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


def reencode(tree):
    """The payload with every matrix, an array leaf or a coordinate object, re-encoded by the per-cell
    reference, which applies the writer's rule on its own."""
    if isinstance(tree, np.ndarray):
        return reference_matrix_to_json(np.ascontiguousarray(tree).view(np.complex128)[..., 0])
    if isinstance(tree, dict):
        if sorted(tree) == ["cols", "im", "re", "rows", "side"]:
            return reference_matrix_to_json(reference_matrix_from_json(tree, "m"))
        return {key: reencode(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [reencode(item) for item in tree]
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
    if layout == "raw F":  # dense array leaves that did not come from matrix_to_json
        return np.asfortranarray(_pairs(mat))
    if layout == "raw strided":
        return np.repeat(_pairs(mat), 2, axis=1)[:, ::2]
    return matrix_to_json(mat)


def _pairs(mat):
    """The float64 (r, c, 2) array of [re, im] pairs: the dense form, whatever the writer's rule picks."""
    return np.stack((mat.real, mat.imag), axis=-1)


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

    D4_FILES = [
        (load_ensemble, "example2_d4_ensemble.json"),
        (load_measurement, "example2_d4_measurement_global.json"),
        (load_measurement, "example2_d4_measurement_locc.json"),
        (load_certificate, "example2_d4_certificate_global.json"),
        (load_certificate, "example2_d4_certificate_sep.json"),
        (load_cones, "example2_d4_cones.json"),
    ]

    @pytest.mark.parametrize("loader, name", D4_FILES, ids=[name for _, name in D4_FILES])
    def test_no_collection_during_a_load(self, example2_d4_dir, loader, name):
        # parse, decode and validation share one pause, and the parsed tree is dropped inside it
        phases = []

        def record(phase, _info):
            phases.append(phase)

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(record)
        try:
            loader(example2_d4_dir / name)
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was else gc.disable)()
        assert "start" not in phases

    EXAMPLE1_FILES = [
        (load_ensemble, "example1_ensemble.json"),
        (load_measurement, "example1_measurement_locc.json"),
        (load_certificate, "example1_certificate_sep.json"),
        (load_cones, "example1_cones.json"),
    ]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("loader, name", EXAMPLE1_FILES, ids=[name for _, name in EXAMPLE1_FILES])
    def test_loaders_restore_the_collector_setting(self, example1_dir, loader, name, enabled):
        path = example1_dir / name
        bad_matrix = example1_dir / "bad_matrix.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        _first_matrix(payload)["matrix"] = [[["x", 0.0]]]
        bad_matrix.write_text(json.dumps(payload), encoding="utf-8")
        bad_json = example1_dir / "bad.json"
        bad_json.write_text("{not json", encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            loader(path)
            assert gc.isenabled() is enabled
            for bad, message in ((bad_json, "invalid JSON"), (bad_matrix, r"matrix: expected a non-empty square list")):
                with pytest.raises(SchemaError, match=message):
                    loader(bad)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def example2_d4_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("example2_d4")
    assert main(["example2", "--d", "4", "--out", str(out)]) == 0
    return out


def _first_matrix(payload):
    """The object holding the first "matrix" key met in a depth-first walk of a file payload."""
    if isinstance(payload, dict):
        if "matrix" in payload:
            return payload
        payload = list(payload.values())
    for item in payload if isinstance(payload, list) else ():
        found = _first_matrix(item)
        if found is not None:
            return found
    return None


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
    """Solver outputs carry -0.0 and tiny entries, in both matrix forms; the sha256 pins cover only fixtures."""
    ensemble, cones = _solver_case(name)
    if kind == "global":
        report = solve_global(ensemble, tol=1e-8, seed=0)
    else:
        report = solve_separable_bound(ensemble, cones, tol=1e-8, seed=0)
    payload = report.to_dict()
    parts = write_json(tmp_path / "report.json", payload)
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text == "".join(parts) == json.dumps(reencode(payload), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# codec properties


@st.composite
def complex_matrices(draw, max_side=4):
    side = draw(st.integers(1, max_side))
    parts = draw(st.lists(FINITE, min_size=2 * side * side, max_size=2 * side * side))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(side, side)


def _bits(mat):
    return np.ascontiguousarray(mat).view(np.uint64)


class TestCodecProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(complex_matrices())
    @example(np.array([[complex(a, b) for b in EDGE] for a in EDGE], dtype=np.complex128))
    def test_round_trip_is_bit_exact(self, mat):
        text = json.dumps(listify(matrix_to_json(mat)))
        assert text == json.dumps(reference_matrix_to_json(mat))
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
        payload = _pairs(mat).tolist()
        side = len(payload)
        r = data.draw(st.integers(0, side - 1))
        c = data.draw(st.integers(0, side - 1))
        payload[r][c] = self.BAD_CELLS[kind](*payload[r][c])
        with pytest.raises(SchemaError, match=r"^m: "):
            matrix_from_json(payload, "m")

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(complex_matrices(), st.data())
    def test_ragged_and_non_square_rows_are_schema_errors(self, mat, data):
        payload = _pairs(mat).tolist()
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
# the coordinate form

SPARSE_PARTS = st.one_of(st.sampled_from(EDGE), FINITE)


@st.composite
def filled_matrices(draw, max_side=6):
    """Square matrices with no, one, some or every cell drawn; parts include -0.0, subnormals and +-1.79e308."""
    side = draw(st.integers(1, max_side))
    cells = side * side
    fill = draw(st.sampled_from(["zero", "one", "mixed", "dense"]))
    if fill == "zero":
        drawn = []
    elif fill == "one":
        drawn = [draw(st.integers(0, cells - 1))]
    elif fill == "mixed":
        drawn = draw(st.sets(st.integers(0, cells - 1), max_size=cells))
    else:
        drawn = range(cells)
    pairs = np.zeros((cells, 2))
    for k in drawn:
        pairs[k] = draw(st.tuples(SPARSE_PARTS, SPARSE_PARTS))
    return pairs.view(np.complex128).reshape(side, side)


def _one_entry(side, row, col, value):
    mat = np.zeros((side, side), dtype=np.complex128)
    mat[row, col] = value
    return mat


def _coordinates(mat):
    """Every cell of ``mat`` whose bits are not all zero as a coordinate object, whatever the writer's rule picks."""
    rows, cols = np.nonzero(_pairs(mat).view(np.uint64).any(axis=-1))
    cells = mat[rows, cols]
    return {
        "side": len(mat),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "re": cells.real.tolist(),
        "im": cells.imag.tolist(),
    }


def _bad(change):
    """A valid 3x3 coordinate object with two entries, then ``change`` applied to it."""
    data = {"side": 3, "rows": [0, 2], "cols": [1, 2], "re": [0.5, -0.0], "im": [-0.25, 1e-300]}
    change(data)
    return data


class TestCoordinateForm:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(filled_matrices())
    @example(np.zeros((3, 3), dtype=np.complex128))
    @example(_one_entry(4, 1, 2, complex(-0.0, 0.0)))
    @example(_one_entry(4, 3, 0, complex(0.0, -0.0)))
    @example(_one_entry(2, 0, 1, complex(5e-324, -5e-324)))
    @example(_one_entry(3, 2, 2, complex(1.79e308, -1.79e308)))
    @example(np.full((2, 2), complex(-0.0, -0.0)))
    def test_written_form_is_the_rules_and_round_trips_bit_exact(self, mat):
        text = dumps(matrix_to_json(mat))
        assert text == json.dumps(reference_matrix_to_json(mat), indent=2, sort_keys=True)
        back = matrix_from_json(json.loads(text), "m")
        assert back.shape == mat.shape
        assert np.array_equal(_bits(back), _bits(mat))

    @pytest.mark.parametrize(
        "nonzero, shape, form",
        [
            (0, (4, 4), dict),
            (8, (4, 4), dict),  # 2 * 8 <= 16
            (9, (4, 4), np.ndarray),
            (4, (3, 3), dict),  # 2 * 4 <= 9
            (5, (3, 3), np.ndarray),
            (1, (1, 1), np.ndarray),
            (0, (1, 1), dict),
            (0, (2, 3), np.ndarray),  # not square
            (0, (0, 0), np.ndarray),  # empty
        ],
    )
    @pytest.mark.parametrize("entry", [complex(1.0, 0.0), complex(-0.0, 0.0), complex(0.0, 1.0), complex(0.0, -0.0)])
    def test_the_rule_at_its_boundary(self, nonzero, shape, form, entry):
        flat = np.zeros(shape[0] * shape[1], dtype=np.complex128)
        flat[:nonzero] = entry
        written = matrix_to_json(flat.reshape(shape))
        assert isinstance(written, form)
        if shape[0]:
            assert listify(written) == reference_matrix_to_json(flat.reshape(shape))

    def test_read_back_report_rewrites_byte_identically(self, tmp_path):
        ensemble, _ = build_example1()  # its report holds both forms; example2's solved matrices are all sparse
        payload = solve_global(ensemble, tol=1e-8, seed=0).to_dict()
        forms = {type(m) for m in [payload["dual_certificate"]["matrix"]] + [
            el["matrix"] for el in payload["measurement"]["elements"]
        ]}
        assert forms == {dict, np.ndarray}  # both forms are read back and rewritten
        write_json(tmp_path / "report.json", payload)
        read = read_json(tmp_path / "report.json")
        write_json(tmp_path / "again.json", read)
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "report.json").read_bytes()
        # the measurement and certificate split out of a read-back report are the files written directly
        for key in ("measurement", "dual_certificate"):
            write_json(tmp_path / "direct.json", payload[key])
            write_json(tmp_path / "extracted.json", read[key])
            assert (tmp_path / "extracted.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    BAD = {
        "missing key": (lambda d: d.pop("im"), r"^m: expected a coordinate object with exactly the keys"),
        "extra key": (lambda d: d.update(dense=False), r"^m: expected a coordinate object with exactly the keys"),
        "side 0": (lambda d: d.update(side=0), r"^m\.side: expected a positive integer"),
        "negative side": (lambda d: d.update(side=-3), r"^m\.side: expected a positive integer"),
        "bool side": (lambda d: d.update(side=True), r"^m\.side: expected a positive integer"),
        "float side": (lambda d: d.update(side=3.0), r"^m\.side: expected a positive integer"),
        "side 2**31": (lambda d: d.update(side=2**31), r"^m\.side: expected a positive integer below 2\*\*31"),
        "unequal lengths": (lambda d: d["re"].append(0.0), r"^m: expected rows, cols, re and im as lists of one"),
        "not a list": (lambda d: d.update(cols=1), r"^m: expected rows, cols, re and im as lists of one"),
        "bool index": (lambda d: d["rows"].__setitem__(0, True), r"^m\.rows: expected integers in \[0, side\)"),
        "float index": (lambda d: d["cols"].__setitem__(1, 2.0), r"^m\.cols: expected integers in \[0, side\)"),
        "index = side": (lambda d: d["cols"].__setitem__(0, 3), r"^m\.cols: expected integers in \[0, side\)"),
        "negative index": (lambda d: d["rows"].__setitem__(1, -1), r"^m\.rows: expected integers in \[0, side\)"),
        "huge index": (lambda d: d["rows"].__setitem__(1, 2**64), r"^m\.rows: expected integers in \[0, side\)"),
        "duplicate entry": (
            lambda d: [d[k].append(d[k][0]) for k in ("rows", "cols", "re", "im")],
            r"^m: entry \(0, 1\) is listed twice$",
        ),
        "nan": (lambda d: d["re"].__setitem__(0, math.nan), r"^m\.re: expected finite numbers$"),
        "inf": (lambda d: d["im"].__setitem__(1, math.inf), r"^m\.im: expected finite numbers$"),
        "-inf": (lambda d: d["re"].__setitem__(1, -math.inf), r"^m\.re: expected finite numbers$"),
        "overflowing int": (lambda d: d["im"].__setitem__(0, 10**400), r"^m\.im: expected finite numbers$"),
        "bool value": (lambda d: d["re"].__setitem__(0, False), r"^m\.re: expected finite numbers$"),
        "string value": (lambda d: d["im"].__setitem__(0, "1"), r"^m\.im: expected finite numbers$"),
        "unallocatable side": (
            lambda d: d.update(side=2**31 - 1),
            r"^m\.side: 2147483647\*\*2 entries do not fit in memory$",
        ),
    }

    def test_the_unchanged_object_decodes(self):
        expected = np.zeros((3, 3), dtype=np.complex128)
        expected[0, 1], expected[2, 2] = complex(0.5, -0.25), complex(-0.0, 1e-300)
        assert np.array_equal(_bits(matrix_from_json(_bad(lambda d: None), "m")), _bits(expected))

    @pytest.mark.parametrize("rule", sorted(BAD))
    def test_each_rule_is_a_schema_error(self, rule):
        change, message = self.BAD[rule]
        with pytest.raises(SchemaError, match=message):
            matrix_from_json(_bad(change), "m")
        with pytest.raises(SchemaError, match=message.replace("^m", r"^f\[1\]")):
            matrices_from_json([np.zeros((3, 3, 2)).tolist(), _bad(change)], "f")

    @pytest.mark.parametrize("rule", sorted(BAD))
    def test_each_rule_is_a_schema_error_in_a_coordinate_list(self, rule):
        # a list of coordinate objects is decoded in one pass; a broken rule gives the one object's own message
        change, message = self.BAD[rule]
        good = _bad(lambda d: None)
        with pytest.raises(SchemaError, match=message.replace("^m", r"^f\[1\]")):
            matrices_from_json([good, _bad(change)], "f")
        with pytest.raises(SchemaError, match=message.replace("^m", r"^f\[1\]\[0\]")):
            matrix_groups_from_json([[good], [_bad(change), good]], "f")

    def test_a_coordinate_list_decodes_as_each_object_alone(self):
        rng = np.random.default_rng(5)
        mats = []
        for count in (0, 1, 4, 7):
            mat = np.zeros(16, dtype=np.complex128)
            mat[1 + rng.choice(15, count, replace=False)] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            mat = mat.reshape(4, 4)
            mat[0, 0] = complex(-0.0, 5e-324)
            mats.append(matrix_to_json(mat))
        assert all(isinstance(m, dict) for m in mats)
        alone = [_bits(matrix_from_json(m, "m")) for m in mats]
        assert all(np.array_equal(_bits(a), b) for a, b in zip(matrices_from_json(mats, "f"), alone))
        groups = matrix_groups_from_json([mats[:1], mats[1:]], "g")
        assert [len(g) for g in groups] == [1, 3]
        assert all(np.array_equal(_bits(a), b) for a, b in zip(groups[0] + groups[1], alone))

    # 2**48 entries are 4 PiB, past any address space, so the allocation fails at once (MemoryError);
    # about 2**62 entries are past numpy's largest array size (ValueError)
    @pytest.mark.parametrize("side", [16777216, 2147483647])
    def test_a_side_too_large_to_allocate_is_a_schema_error(self, side, tmp_path):
        path = tmp_path / "huge.json"
        matrix = {"side": side, "rows": [], "cols": [], "re": [], "im": []}
        path.write_text(json.dumps({"dims": [side], "matrix": matrix}))
        with pytest.raises(SchemaError, match=rf"matrix\.side: {side}\*\*2 entries do not fit in memory"):
            load_certificate(path)

    def test_a_file_error_names_the_field(self, tmp_path):
        ensemble, _ = build_example1()
        payload = ensemble_to_dict(ensemble)
        payload["states"][0]["matrix"] = _bad(lambda d: d.update(side=4, cols=[1, 4]))
        write_json(tmp_path / "bad.json", payload)
        with pytest.raises(SchemaError, match=r"states\[0\]\.matrix\.cols: expected integers in \[0, side\)"):
            load_ensemble(tmp_path / "bad.json")
        assert main(["solve", "global", "--ensemble", str(tmp_path / "bad.json")]) == 2

    def test_hermiticity_is_checked_after_the_coordinate_rules(self):
        data = {"dims": [2], "matrix": _bad(lambda d: d.update(side=2, rows=[0, 1], cols=[1, 1]))}
        with pytest.raises(SchemaError, match=r"operator\.matrix: .*hermiticity deviation"):
            operator_from_dict(data)

    @pytest.mark.parametrize("where", ["site_povms", "terms"])
    def test_a_list_mixing_both_forms_decodes(self, where):
        _, fixtures = build_example1()
        measurement = fixtures.locc_measurement
        payload = listify(measurement_to_dict(measurement))
        if where == "site_povms":
            mats = payload["locc_protocol"]["site_povms"][0]
            originals = measurement.locc_protocol.site_povms[0]
        else:
            mats = payload["elements"][1]["decomposition"]["terms"][0]
            originals = measurement.decompositions[1].terms[0]
        assert len(mats) >= 2
        for k, mat in enumerate(originals):
            mats[k] = _coordinates(mat) if k % 2 else _pairs(mat).tolist()
        assert {type(m) for m in mats} == {dict, list}
        back = measurement_from_dict(json.loads(json.dumps(payload)))
        decoded = back.locc_protocol.site_povms[0] if where == "site_povms" else back.decompositions[1].terms[0]
        assert len(decoded) == len(originals)
        for got, want in zip(decoded, originals):
            assert np.array_equal(_bits(got), _bits(np.asarray(want, dtype=np.complex128)))


# ---------------------------------------------------------------------------
# the flat decoder against the whole-tree one

# numbers a JSON parse yields, by kind; "-0" parses to the int 0, and
# integers past 2**63 take numpy's uint64 or float64 path
NUMBER_KINDS = [
    FINITE,
    st.one_of(st.integers(-3, 3), st.sampled_from([json.loads("-0"), 2**53 + 1, 2**63, 2**64 - 1])),
    st.booleans(),
]
BAD_LEAVES = [math.nan, math.inf, -math.inf, None, "1", "", 2**64, -(2**63) - 1, 10**400, {"re": 1.0}, [1.0]]
BAD_CELLS = [
    lambda re, im: [re],
    lambda re, im: [re, im, 0.0],
    lambda re, im: {"re": re, "im": im},
    lambda re, im: "ab",
    lambda re, im: re,
    lambda re, im: None,
    lambda re, im: [],
    lambda re, im: [[re], [im]],
]
BAD_ROWS = [
    lambda row: row[:-1],
    lambda row: row + [[0.0, 0.0]],
    lambda row: {"re": 0.0, "im": 0.0},
    lambda row: "ab" * len(row),
    lambda row: None,
    lambda row: [],
]
# corruptions, applied leaf first, so that each finds the lists it edits
LEVELS = ("leaf", "cell", "row", "extra row", "missing row")


@st.composite
def json_matrices(draw, side=None):
    """Nested rows of [re, im] numbers with up to two corruptions."""
    side = side or draw(st.integers(1, 3))
    numbers = draw(st.sampled_from([*NUMBER_KINDS, st.one_of(*NUMBER_KINDS)]))
    rows = [[[draw(numbers), draw(numbers)] for _ in range(side)] for _ in range(side)]
    levels = [draw(st.sampled_from(LEVELS)) for _ in range(draw(st.integers(0, 2)))]
    for level in sorted(levels, key=LEVELS.index):
        r, c, k = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1)), draw(st.integers(0, 1))
        if level == "leaf":
            rows[r][c][k] = draw(st.sampled_from(BAD_LEAVES))
        elif level == "cell":
            rows[r][c] = draw(st.sampled_from(BAD_CELLS))(draw(numbers), draw(numbers))
        elif level == "row" and isinstance(rows[r], list):
            rows[r] = draw(st.sampled_from(BAD_ROWS))(rows[r])
        elif level == "extra row":
            rows.append(list(rows[r]) if isinstance(rows[r], list) else rows[r])
        elif level == "missing row" and rows:
            rows.pop(r % len(rows))
    return rows


# values put in place of a coordinate key, list item or extra key
COORDINATE_BAD = [*BAD_LEAVES, True, 0.0, -1, 0, 1, 3, 2**31, [], [0], {}]


@st.composite
def coordinate_payloads(draw, side=None):
    """Coordinate objects, maybe with a repeated cell, with up to two corruptions; mostly one item's."""
    side = side or draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    cells = draw(st.lists(cell, unique=True, max_size=side * side))
    if cells and draw(st.integers(0, 4)) == 0:
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(cells)))
    numbers = draw(st.sampled_from([*NUMBER_KINDS, st.one_of(*NUMBER_KINDS)]))
    data = {
        "side": side,
        "rows": [r for r, _ in cells],
        "cols": [c for _, c in cells],
        "re": [draw(numbers) for _ in cells],
        "im": [draw(numbers) for _ in cells],
    }
    for _ in range(draw(st.integers(0, 2))):
        # mostly one item's value, so that every check is reached often; hypothesis favours the first choice
        key = draw(st.sampled_from(["rows", "cols", "re", "im", "side", "extra"]))
        how = draw(st.sampled_from(["item", "replace", "append", "drop"]))
        bad = draw(st.sampled_from(COORDINATE_BAD))
        if key == "extra":
            data[key] = bad
        elif how == "drop":
            data.pop(key, None)
        elif how == "replace":
            data[key] = bad
        elif isinstance(data.get(key), list):
            if how == "item" and data[key]:
                data[key][draw(st.integers(0, len(data[key]) - 1))] = bad
            else:
                data[key].append(bad)
    return data


# values that are no matrix, and in-memory arrays, which take the one-call path
OTHER_PAYLOADS = st.sampled_from(
    [
        None,
        [],
        [[]],
        [[[]]],
        [[[], []]],
        "[[[1, 0]]]",
        "ab",
        3.0,
        True,
        {},
        {"re": 1.0},
        np.zeros((2, 3, 2)),
        np.zeros((0, 0, 2)),
        np.full((1, 1, 2), math.nan),
        np.ones((2, 2, 2), dtype=int),
        np.ones((2, 2, 2), dtype=bool),
        np.zeros((2, 2)),
        np.array(None),
    ]
)
PAYLOADS = st.one_of(
    json_matrices(), coordinate_payloads(), OTHER_PAYLOADS, complex_matrices(max_side=3).map(matrix_to_json)
)


@st.composite
def matrix_lists(draw):
    """One to three payloads, of one side, dense or mixed with coordinate objects, or of several."""
    if draw(st.booleans()):
        side = draw(st.integers(1, 3))
        forms = [json_matrices(side=side)]
        if draw(st.booleans()):
            forms.append(coordinate_payloads(side=side))
        return draw(st.lists(st.one_of(*forms), min_size=1, max_size=3))
    return draw(st.lists(PAYLOADS, min_size=1, max_size=3))


@st.composite
def matrix_groups(draw):
    """A ``matrix_lists()`` draw split into consecutive non-empty groups."""
    mats = draw(matrix_lists())
    ends = sorted(draw(st.sets(st.integers(1, len(mats) - 1)) if len(mats) > 1 else st.just(set()))) + [len(mats)]
    return [mats[start:end] for start, end in zip([0] + ends, ends)]


def _outcome(decode):
    """("ok", [(shape, dtype, bits), ...]) for what ``decode()`` returns, else (exception type, message);
    a tuple of tuples gives one ("ok", [...]) per inner tuple."""
    try:
        out = decode()
    except Exception as exc:  # the exact type and text are what is compared
        return type(exc), str(exc)
    mats = out if isinstance(out, tuple) else (out,)
    return "ok", [
        _outcome(lambda: m) if isinstance(m, tuple) else (m.shape, m.dtype, _bits(m).tobytes()) for m in mats
    ]


class TestDecodeEquivalence:
    """The decoders accept, reject, return and report as the reference does: one ``np.array`` of the whole
    payload for dense pairs, one entry at a time for a coordinate object."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(PAYLOADS)
    @example([[[1, 0], [json.loads("-0"), -1]], [[0, 1], [2**63, 0]]])
    @example([[[True, False]]])
    @example([[[2**63, -1]]])
    @example([[[10**400, 0.0]]])
    @example([[[math.nan, 0.0]]])
    @example([[[1.0, math.inf]]])
    @example([[["1", 0.0]]])
    @example([[[None, 0.0]]])
    @example([[{"re": 1.0, "im": 0.0}]])
    @example([[[1.0]]])
    @example([[[1.0, 0.0, 0.0]]])
    @example([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]])
    @example([[[1.0], [0.0, 0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])  # the right count of numbers, misplaced
    @example([[[[1.0], [0.0]]]])  # one pair of lists
    @example({"side": 2, "rows": [1, 0, 1], "cols": [0, 1, 0], "re": [1.0, 2.0, 3.0], "im": [0, 0, 0]})
    @example({"side": 2, "rows": [2**63], "cols": [0], "re": [1.0], "im": [0.0]})
    @example({"side": 1, "rows": [0], "cols": [0], "re": [10**400], "im": [0.0]})
    @example({"side": 1, "rows": [0], "cols": [0], "re": [1.0], "im": [True]})
    @example({"side": 3, "rows": [], "cols": [], "re": [], "im": []})
    def test_matrix_from_json(self, data):
        expected = _outcome(lambda: reference_matrix_from_json(data, "m"))
        assert _outcome(lambda: matrix_from_json(data, "m")) == expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(matrix_lists())
    @example([[[[1.0, 0.0]]], [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]])
    @example([[[[1.0, 0.0]]], [[["x", 0.0]]], [[[None, 0.0]]]])
    @example([[[[1.0, 0.0]]], {"side": 1, "rows": [0], "cols": [0], "re": [-0.0], "im": [2]}, [[[0.0, 1.0]]]])
    def test_matrices_from_json(self, data):
        expected = _outcome(lambda: tuple(reference_matrix_from_json(m, f"f[{k}]") for k, m in enumerate(data)))
        assert _outcome(lambda: matrices_from_json(data, "f")) == expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(matrix_groups())
    @example([[_coordinates(np.eye(2))], [_coordinates(np.eye(2)), _coordinates(np.eye(2))]])
    @example([[_coordinates(np.eye(2))], [_coordinates(np.eye(3))], [_coordinates(np.eye(2))]])
    @example([[_coordinates(np.eye(2)), _bad(lambda d: d["re"].append(0.0))], [_coordinates(np.eye(3))]])
    # two rules broken at once: rows before cols, re before im
    @example([[_coordinates(np.eye(2))], [{"side": 2, "rows": [2], "cols": [-1], "re": [1.0], "im": [0.0]}]])
    @example([[{"side": 2, "rows": [0], "cols": [0], "re": [math.inf], "im": ["1"]}, _coordinates(np.eye(2))]])
    def test_matrix_groups_from_json(self, groups):
        expected = _outcome(
            lambda: tuple(
                tuple(reference_matrix_from_json(m, f"g[{t}][{k}]") for k, m in enumerate(group))
                for t, group in enumerate(groups)
            )
        )
        assert _outcome(lambda: matrix_groups_from_json(groups, "g")) == expected


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
            if isinstance(matrix(p), dict):
                matrix(p)["re"][0] = 10**400
            else:
                matrix(p)[0][0][0] = 10**400

        _rewrite(example1_dir / name, overflow)
        assert _verify("prop1", example1_dir) == 2
        err = capsys.readouterr().err
        assert "finite [re, im] pairs" in err or "matrix.re: expected finite numbers" in err

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
