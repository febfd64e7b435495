import inspect
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest
from scipy.linalg import block_diag

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input


def test_scalar_noise_validates_clean():
    report = rc.validate(scalar_noise(0.5))
    assert report.ok
    assert report.violations == ()
    assert bool(report)


def test_zero_K_W_flagged():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[0.0]])
    report = rc.validate(m)
    assert not report.ok
    assert "K_W not positive definite" in report.violations


def test_zero_N_breaks_R():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[0.0]], K_W=[[1.0]])
    report = rc.validate(m)
    assert "R not positive definite" in report.violations


def test_ragged_matrix_rejected_at_construction():
    with pytest.raises(ValueError, match="A is not rectangular"):
        rc.NoiseModel(A=[[0.5, 1.0], [0.3]], B=[[1.0]], C=[[1.0]],
                      N=[[1.0]], K_W=[[1.0]])


@pytest.mark.parametrize("name, value, message", [
    ("A", np.zeros((1, 1, 1)), "^A is not rectangular$"),
    ("mu_S1", [[0.0]], "^mu_S1 must be one-dimensional$"),
    ("mu_S1", [[0.0], [0.0, 1.0]], "^mu_S1 is not rectangular$"),
], ids=["three_dimensional", "two_dimensional_mean", "ragged_mean"])
def test_arrays_of_the_wrong_rank_are_rejected_at_construction(name, value, message):
    arrays = dict(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[1.0]])
    with pytest.raises(ValueError, match=message):
        rc.NoiseModel(**{**arrays, name: value})


def test_shape_mismatch_reported_by_name():
    m = rc.NoiseModel(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]],
                      N=[[1.0, 1.0]], K_W=[[1.0]])
    report = rc.validate(m)
    assert any(v.startswith("N has") for v in report.violations)


# distinct dimensions, so each message names the one it checks against
NOISE_ARRAYS = dict(A=np.zeros((2, 2)), B=np.ones((2, 3)), C=np.ones((1, 2)),
                    N=np.ones((1, 3)), K_W=np.eye(3))  # n_s = 2, n_w = 3, n_y = 1
INPUT_ARRAYS = dict(F=np.zeros((2, 2)), G=np.ones((2, 3)), Gamma=np.ones((1, 2)),
                    D=np.ones((1, 3)), K_Z=np.eye(3))  # n_xi = 2, n_z = 3, n_x = 1


@pytest.mark.parametrize("cls, arrays, name, value, message", [
    (rc.NoiseModel, NOISE_ARRAYS, "A", np.zeros((2, 3)), "A not square (shape (2, 3))"),
    (rc.NoiseModel, NOISE_ARRAYS, "B", np.ones((3, 3)), "B has 3 rows, expected n_s = 2"),
    (rc.NoiseModel, NOISE_ARRAYS, "B", np.ones((2, 2)), "B has 2 columns, expected n_w = 3"),
    (rc.NoiseModel, NOISE_ARRAYS, "C", np.ones((1, 3)), "C has 3 columns, expected n_s = 2"),
    (rc.NoiseModel, NOISE_ARRAYS, "N", np.ones((2, 3)), "N has 2 rows, expected n_y = 1"),
    (rc.NoiseModel, NOISE_ARRAYS, "N", np.ones((1, 2)), "N has 2 columns, expected n_w = 3"),
    (rc.NoiseModel, NOISE_ARRAYS, "K_W", np.ones((3, 4)), "K_W not square (shape (3, 4))"),
    (rc.NoiseModel, NOISE_ARRAYS, "K_S1", np.eye(3), "K_S1 has shape (3, 3), expected (2, 2)"),
    (rc.NoiseModel, NOISE_ARRAYS, "mu_S1", np.zeros(3), "mu_S1 has length 3, expected n_s = 2"),
    (rc.InputModel, INPUT_ARRAYS, "F", np.zeros((2, 3)), "F not square (shape (2, 3))"),
    (rc.InputModel, INPUT_ARRAYS, "G", np.ones((3, 3)), "G has 3 rows, expected n_xi = 2"),
    (rc.InputModel, INPUT_ARRAYS, "G", np.ones((2, 2)), "G has 2 columns, expected n_z = 3"),
    (rc.InputModel, INPUT_ARRAYS, "Gamma", np.ones((1, 3)),
     "Gamma has 3 columns, expected n_xi = 2"),
    (rc.InputModel, INPUT_ARRAYS, "D", np.ones((2, 3)), "D has 2 rows, expected n_x = 1"),
    (rc.InputModel, INPUT_ARRAYS, "D", np.ones((1, 2)), "D has 2 columns, expected n_z = 3"),
    (rc.InputModel, INPUT_ARRAYS, "K_Z", np.ones((3, 4)), "K_Z not square (shape (3, 4))"),
    (rc.InputModel, INPUT_ARRAYS, "K_Xi1", np.eye(3),
     "K_Xi1 has shape (3, 3), expected (2, 2)"),
    (rc.InputModel, INPUT_ARRAYS, "mu_Xi1", np.zeros(3),
     "mu_Xi1 has length 3, expected n_xi = 2"),
    # a 1-D array is a 1 x n row
    (rc.NoiseModel, NOISE_ARRAYS, "B", np.ones(3), "B has 1 rows, expected n_s = 2"),
    (rc.InputModel, INPUT_ARRAYS, "G", np.ones(3), "G has 1 rows, expected n_xi = 2"),
])
def test_each_declared_array_has_its_shape_message(cls, arrays, name, value, message):
    assert rc.validate(cls(**arrays)).ok
    assert rc.validate(cls(**{**arrays, name: value})).violations == (message,)


def test_nonfinite_entries_reported():
    m = rc.NoiseModel(A=[[np.nan]], B=[[1.0]], C=[[1.0]], N=[[1.0]],
                      K_W=[[1.0]])
    report = rc.validate(m)
    assert any("non-finite" in v for v in report.violations)


def test_negative_kappa_flagged():
    report = rc.validate(rc.Channel(H=[[1.0]], kappa=-1.0))
    assert any("kappa negative" in v for v in report.violations)


def test_nan_kappa_flagged():
    assert rc.validate(rc.Channel(H=[[1.0]], kappa=np.nan)).violations == ("kappa not finite",)


def test_validate_rejects_an_unsupported_type():
    with pytest.raises(TypeError, match="^cannot validate object of type dict$"):
        rc.validate({"H": [[1.0]]})


def test_validation_tests_each_covariance_for_symmetry_once(monkeypatch):
    # the R check reads K_W's symmetry from the covariance loop
    calls = []
    is_symmetric = rc.models.is_symmetric
    monkeypatch.setattr(rc.models, "is_symmetric",
                        lambda K: calls.append(K.shape) or is_symmetric(K))
    noise, inp = random_models(np.random.default_rng(1), n_s=4, n_xi=3, n_y=2)
    for model, shapes in ((noise, [(3, 3), (4, 4)]), (inp, [(1, 1), (3, 3)])):
        calls.clear()
        assert rc.validate(model).ok
        assert calls == shapes


def test_K_Z_may_be_singular():
    m = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                      K_Z=[[0.0]])
    assert rc.validate(m).ok


def test_model_arrays_are_frozen():
    m = scalar_noise(0.5)
    with pytest.raises(ValueError):
        m.A[0, 0] = 2.0
    # each array is the model's own read-only copy; the caller's stay writable
    arrays = dict(A=np.asfortranarray([[0.5, 0.1], [0.2, 0.3]]), B=np.ones((2, 1)),
                  C=np.ones((1, 2)), N=np.ones(1), K_W=np.eye(1), mu_S1=np.zeros(2),
                  K_S1=np.eye(2))
    m = rc.NoiseModel(**arrays)
    for name, given in arrays.items():
        own = getattr(m, name)
        assert not own.flags.writeable and own.flags.c_contiguous
        assert given.flags.writeable and not np.shares_memory(own, given)
        assert np.array_equal(own, np.atleast_2d(given) if name != "mu_S1" else given)
    assert m.N.shape == (1, 1)
    H = np.ones((1, 2))
    channel = rc.Channel(H=H)
    assert not channel.H.flags.writeable and not np.shares_memory(channel.H, H)


def test_default_initial_moments_are_zero():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[1.0]])
    assert np.array_equal(m.mu_S1, np.zeros(1))
    assert np.array_equal(m.K_S1, np.zeros((1, 1)))


# ------------------------------------------------- construction contract

# one small model of each class, its fields in declaration order: a joint
# state of two, so an initial law has a shape of its own
MODEL_FIELDS = {
    rc.NoiseModel: dict(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]], C=[[1.0, 0.0]],
                        N=[[1.0]], K_W=[[2.0]], mu_S1=[1.0, -1.0],
                        K_S1=[[1.0, 0.2], [0.2, 1.0]]),
    rc.InputModel: dict(F=[[0.2, 0.0], [0.1, 0.4]], G=[[1.0], [0.0]], Gamma=[[0.5, 1.0]],
                        D=[[1.0]], K_Z=[[1.5]], mu_Xi1=[0.5, 0.0],
                        K_Xi1=[[2.0, 0.0], [0.0, 1.0]]),
    rc.Channel: dict(H=[[1.0, 0.5]], kappa=2.0),
}
MODELS = list(MODEL_FIELDS)
# (class, name) of every two-dimensional field, and of the one-dimensional initial means
MATRICES = [(cls, f.name) for cls in MODELS for f in fields(cls)
            if f.name != "kappa" and not f.name.startswith("mu_")]
MEANS = [(rc.NoiseModel, "mu_S1"), (rc.InputModel, "mu_Xi1")]


def _assert_same_fields(a, b):
    for f in fields(type(a)):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y) and np.array_equal(x, y), f.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name


@pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    given = MODEL_FIELDS[cls]
    # the constructor takes the fields, in their order, with their defaults
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [f.name for f in fields(cls)] == list(given)
    assert [p.default for p in parameters.values()] == [
        inspect.Parameter.empty if f.default is MISSING else f.default for f in fields(cls)]
    _assert_same_fields(cls(*given.values()), cls(**given))


@pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.__name__)
def test_replace_converts_a_changed_field(cls):
    model = cls(**MODEL_FIELDS[cls])
    name = fields(cls)[0].name
    changed = replace(model, **{name: [[7, 8]] if cls is rc.Channel else 3})
    own = getattr(changed, name)
    assert own.dtype == np.float64 and not own.flags.writeable
    assert np.array_equal(own, [[7.0, 8.0]] if cls is rc.Channel else [[3.0]])
    for f in fields(cls)[1:]:
        kept, before = getattr(changed, f.name), getattr(model, f.name)
        assert np.array_equal(kept, before)
        if isinstance(kept, np.ndarray):
            assert not kept.flags.writeable and not np.shares_memory(kept, before)
    if cls is rc.Channel:
        kappa = replace(model, kappa=3).kappa
        assert kappa == 3.0 and type(kappa) is float


@pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.__name__)
def test_models_are_frozen(cls):
    model = cls(**MODEL_FIELDS[cls])
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(model, f.name, getattr(model, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(model, f.name)
    with pytest.raises(FrozenInstanceError):
        model.other = 1.0


# (given, the matrix it becomes); the ndarrays are the caller's, to be copied
INPUTS = {
    "float": (2.5, [[2.5]]),
    "numpy_float": (np.float64(2.5), [[2.5]]),
    "int": (3, [[3.0]]),
    "bool": (True, [[1.0]]),
    "list": ([[1, 2], [3, 4]], [[1.0, 2.0], [3.0, 4.0]]),
    "row": (np.array([1.0, 2.0]), [[1.0, 2.0]]),
    "int_array": (np.array([[1, 2]]), [[1.0, 2.0]]),
    "bool_array": (np.array([[True, False]]), [[1.0, 0.0]]),
    "float32_array": (np.array([[0.5]], dtype=np.float32), [[0.5]]),
    "fortran": (np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.0], [3.0, 4.0]]),
    "column_view": (np.arange(6.0).reshape(3, 2)[:, 1:], [[1.0], [3.0], [5.0]]),
}


def _assert_own_copy(own, given, expected, kind):
    assert own.dtype == np.float64 and own.flags.c_contiguous and not own.flags.writeable, kind
    assert own.shape == np.shape(expected) and np.array_equal(own, expected), kind
    if isinstance(given, np.ndarray):
        assert given.flags.writeable and not np.shares_memory(own, given), kind


@pytest.mark.parametrize("cls, name", MATRICES, ids=lambda x: getattr(x, "__name__", x))
def test_each_matrix_field_is_a_fresh_read_only_float64_copy(cls, name):
    for kind, (given, expected) in INPUTS.items():
        model = cls(**{**MODEL_FIELDS[cls], name: given})
        _assert_own_copy(getattr(model, name), given, expected, kind)


VECTOR_INPUTS = {"float": (1.5, [1.5]), "int": (2, [2.0]), "bool": (False, [0.0]),
                 "list": ([1, 2], [1.0, 2.0]), "bool_array": (np.array([True, False]), [1.0, 0.0]),
                 "strided": (np.arange(4.0)[::2], [0.0, 2.0])}


@pytest.mark.parametrize("cls, name", MEANS, ids=lambda x: getattr(x, "__name__", x))
def test_each_initial_mean_is_a_fresh_read_only_float64_vector(cls, name):
    for kind, (given, expected) in VECTOR_INPUTS.items():
        model = cls(**{**MODEL_FIELDS[cls], name: given})
        _assert_own_copy(getattr(model, name), given, expected, kind)


@pytest.mark.parametrize("factory, n", [
    (lambda: rc.NoiseModel(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), N=1.0,
                           K_W=1.0), 2),
    (lambda: rc.memoryless_noise([[1.0]]), 0),
    (lambda: rc.InputModel(F=np.eye(3), G=np.ones((3, 1)), Gamma=np.ones((1, 3)), D=1.0,
                           K_Z=1.0), 3),
    (lambda: rc.iid_input([[1.0]]), 0),
], ids=["noise", "memoryless_noise", "input", "iid_input"])
def test_an_absent_initial_law_is_read_only_zeros(factory, n):
    model, other = factory(), factory()
    names = [f.name for f in fields(model)][-2:]
    for name, shape in zip(names, [(n,), (n, n)]):
        own = getattr(model, name)
        assert own.shape == shape and own.dtype == np.float64 and not own.any()
        assert own.flags.c_contiguous and not own.flags.writeable
        assert own is not getattr(other, name)


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], np.zeros((1, 1, 1)), [[[1.0]]]],
                         ids=["ragged", "three_dimensional", "nested_list"])
@pytest.mark.parametrize("cls, name", MATRICES, ids=lambda x: getattr(x, "__name__", x))
def test_each_matrix_field_names_a_bad_shape(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} is not rectangular$"):
        cls(**{**MODEL_FIELDS[cls], name: value})


@pytest.mark.parametrize("value, message", [
    ([[0.0]], "{} must be one-dimensional"),
    (np.zeros((2, 1)), "{} must be one-dimensional"),
    ([[0.0], [0.0, 1.0]], "{} is not rectangular"),
], ids=["nested_list", "column", "ragged"])
@pytest.mark.parametrize("cls, name", MEANS, ids=lambda x: getattr(x, "__name__", x))
def test_each_initial_mean_names_a_bad_shape(cls, name, value, message):
    with pytest.raises(ValueError, match=f"^{message.format(name)}$"):
        cls(**{**MODEL_FIELDS[cls], name: value})


def test_model_reprs_list_their_fields():
    assert repr(rc.NoiseModel(A=0.5, B=1, C=True, N=[2.0], K_W=[[1.0]])) == (
        "NoiseModel(A=array([[0.5]]), B=array([[1.]]), C=array([[1.]]), N=array([[2.]]), "
        "K_W=array([[1.]]), mu_S1=array([0.]), K_S1=array([[0.]]))")
    assert repr(rc.iid_input(2.0)) == (
        "InputModel(F=array([], shape=(0, 0), dtype=float64), "
        "G=array([], shape=(0, 1), dtype=float64), "
        "Gamma=array([], shape=(1, 0), dtype=float64), D=array([[1.]]), K_Z=array([[2.]]), "
        "mu_Xi1=array([], dtype=float64), K_Xi1=array([], shape=(0, 0), dtype=float64))")
    assert repr(rc.Channel(H=[[1.0, 0.5]], kappa=2)) == (
        "Channel(H=array([[1. , 0.5]]), kappa=2.0)")


COMPLEX = {
    "array": np.array([[1.0 + 2.0j]]),
    "real_valued_array": np.array([[1.0 + 0.0j]]),
    "zero_dimensional": np.array(1.0 + 2.0j),
    "python_scalar": 1.0 + 2.0j,
    "numpy_scalar": np.complex64(1.0 + 2.0j),
    "list": [[1.0, 2.0j]],
    "list_of_numpy_scalars": [[np.complex128(1.0 + 2.0j)]],
}


@pytest.mark.parametrize("kind", COMPLEX)
def test_complex_entries_are_refused_by_name(kind):
    # a float64 conversion would keep only the real part, which validate cannot see
    for cls, name in MATRICES + MEANS:
        with pytest.raises(ValueError, match=f"^{name} has complex entries$"):
            cls(**{**MODEL_FIELDS[cls], name: COMPLEX[kind]})


@pytest.mark.parametrize("call, name", [
    (rc.memoryless_noise, "K_V"),
    (rc.iid_input, "K_Z"),
    (rc.psd_sqrt, "M"),
    (lambda x: rc.lyap_solve(x, [[1.0]], [[1.0]]), "F"),
    (lambda x: rc.lyap_solve([[0.5]], [[1.0]], x), "K_Z"),
], ids=["memoryless_noise", "iid_input", "psd_sqrt", "lyap_solve_F", "lyap_solve_K_Z"])
def test_the_shared_converter_refuses_complex_entries(call, name):
    for value in (COMPLEX["array"], COMPLEX["python_scalar"]):
        with pytest.raises(ValueError, match=f"^{name} has complex entries$"):
            call(value)


# ------------------------------------------------------- augmented assembly


def test_augmented_blocks_scalar():
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[0.7]], D=[[1.0]],
                        K_Z=[[2.0]])
    noise = rc.NoiseModel(A=[[1.2]], B=[[1.0]], C=[[1.0]], N=[[1.0]],
                          K_W=[[3.0]])
    aug = rc.build_augmented(noise, inp, unit_channel())
    assert np.allclose(aug.Ahat, [[0.5, 0.0], [0.0, 1.2]])
    assert np.allclose(aug.Chat, [[0.7, 1.0]])
    assert np.allclose(aug.Dhat, [[1.0, 1.0]])
    assert np.allclose(aug.Khat, np.diag([2.0, 3.0]))
    assert aug.m == 2


def test_build_augmented_returns_the_joint_system():
    aug = rc.build_augmented(scalar_noise(0.5), unit_iid_input(), unit_channel())
    assert isinstance(aug, rc.JointSystem)


def test_augmented_initial_covariance_is_block_diagonal():
    noise = scalar_noise(0.5, k_s1=0.25)
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[1.0]], K_Xi1=[[4.0]])
    aug = rc.build_augmented(noise, inp, unit_channel())
    assert np.allclose(aug.K_Theta1, np.diag([4.0, 0.25]))


def test_H_dimension_mismatch_message():
    with pytest.raises(ValueError, match="H has 2 columns but input n_x = 1"):
        rc.build_augmented(scalar_noise(0.5), unit_iid_input(),
                           rc.Channel(H=[[1.0, 0.0]], kappa=1.0))


def test_H_row_mismatch_message():
    with pytest.raises(ValueError, match="^H has 2 rows but noise n_y = 1$"):
        rc.build_augmented(scalar_noise(0.5), unit_iid_input(),
                           rc.Channel(H=[[1.0], [1.0]], kappa=1.0))


# ------------------------------------------------------- quadruple forms


def test_noise_quadruple_measurement_covariance():
    quad = rc.to_quadruple(scalar_noise(0.5))
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[1.0]])
    assert np.allclose(quad.Qhat, [[1.0]])
    assert np.allclose(quad.Shat, [[1.0]])


def test_noise_quadruple_is_the_joint_system_with_no_input(rng):
    noise, _ = random_models(rng, n_s=3, n_y=2)
    quad = rc.to_quadruple(noise)
    assert isinstance(quad, rc.JointSystem)
    assert (quad.n_xi, quad.n_z, quad.m, quad.q) == (0, 0, 3, 2)
    B, N, K_W = noise.B, noise.N, noise.K_W
    assert np.allclose(quad.Qhat, B @ K_W @ B.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(quad.Shat, B @ K_W @ N.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(quad.Rhat, N @ K_W @ N.T, rtol=1e-12, atol=1e-12)
    assert np.array_equal(quad.K_Theta1, noise.K_S1)
    assert np.array_equal(quad.mu_Theta1, noise.mu_S1)


def test_noise_problem_is_a_joint_system_over_the_noise_slots(rng):
    noise, inp = random_models(rng, n_s=2, n_xi=2)
    system = rc.build_augmented(noise, inp, unit_channel())
    nq = system.noise_quad
    assert type(nq) is rc.JointSystem
    assert (nq.n_xi, nq.n_z, nq.m, nq.q) == (0, 0, 2, 1)
    assert nq.noise_quad is nq
    own = rc.to_quadruple(noise)
    assert own.noise_quad is own
    for slot in ("Ahat", "Bhat", "Chat", "Dhat", "Khat", "Qhat", "Shat", "Rhat",
                 "K_Theta1", "mu_Theta1"):
        assert np.array_equal(getattr(nq, slot), getattr(own, slot)), slot
    # a new noise model is written once, into the joint slots the views share
    drifted = replace(noise, A=0.5 * noise.A)
    system._update(drifted, inp)
    assert np.shares_memory(nq.Ahat, system.Ahat)
    assert np.array_equal(nq.Ahat, drifted.A)
    assert np.array_equal(system.Ahat[2:, 2:], drifted.A)
    assert nq.noise is drifted


def formula_slots(noise, inp, H):
    """The joint slots of one pair from their defining formulas."""
    Bhat, Khat = block_diag(inp.G, noise.B), block_diag(inp.K_Z, noise.K_W)
    Dhat = np.hstack([H @ inp.D, noise.N])
    return {"Ahat": block_diag(inp.F, noise.A), "Bhat": Bhat, "Khat": Khat, "Dhat": Dhat,
            "Chat": np.hstack([H @ inp.Gamma, noise.C]), "Qhat": Bhat @ Khat @ Bhat.T,
            "Shat": Bhat @ Khat @ Dhat.T, "Rhat": Dhat @ Khat @ Dhat.T}


# what the Riccati engine reads; the rest of the realization is formed from the models
ENGINE_SLOTS = ("Ahat", "Chat", "Qhat", "Shat", "Rhat")
MODEL_FORMED = ("Bhat", "Dhat", "Khat", "mu_Theta1", "K_Theta1")


@pytest.mark.parametrize("stacked", [False, True], ids=["pair", "stack"])
def test_slots_match_their_formulas(stacked):
    # a pair written by update, or a stack of pairs written in one pass whose
    # row i is pair i; either way the noise-only problem is a view of it
    rng = np.random.default_rng(12)
    pairs = [random_models(rng, n_s=2, n_xi=3, n_y=2, n_z=2) for _ in range(3)]
    # then the input alone changes, then the noise alone
    pairs += [(pairs[2][0], pairs[1][1]), (pairs[0][0], pairs[1][1])]
    channel = rc.Channel(H=rng.normal(size=(2, 2)), kappa=1.0)
    built = rc.build_augmented(*pairs[0], channel)
    system = built._stacked(pairs) if stacked else built
    nq, no_input = system.noise_quad, rc.iid_input(np.zeros((0, 0)), n_x=0)
    for quad in (built, built.noise_quad, system, nq):
        assert not set(MODEL_FORMED) & set(vars(quad))
    for i, (noise, inp) in enumerate(pairs):
        if not stacked:
            system._update(noise, inp)
        for quad, want in ((system, formula_slots(noise, inp, channel.H)),
                           (nq, formula_slots(noise, no_input, np.zeros((2, 0))))):
            for name, slot in want.items():
                if stacked and name not in ENGINE_SLOTS:
                    continue
                got = getattr(quad, name)[i] if stacked else getattr(quad, name)
                np.testing.assert_allclose(got, slot, rtol=1e-12, atol=1e-12, err_msg=name)
        if stacked:
            for name, _, _ in rc.InputModel._ARRAYS:
                assert np.array_equal(getattr(system.input, name)[i], getattr(inp, name))
    for name in ENGINE_SLOTS[:-1]:
        assert np.shares_memory(getattr(nq, name), getattr(system, name)), name


def test_noise_quadruple_validates_the_noise():
    singular = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[0.0]], K_W=[[1.0]])
    with pytest.raises(ValueError, match="noise model invalid: R not positive definite"):
        rc.to_quadruple(singular)
    with pytest.raises(TypeError, match="cannot build a quadruple from InputModel"):
        rc.to_quadruple(unit_iid_input())


def test_noise_quadruple_validates_only_the_noise(monkeypatch):
    calls = []
    validate = rc.models.validate
    monkeypatch.setattr(rc.models, "validate", lambda m: calls.append(m) or validate(m))
    noise = scalar_noise(0.5)
    rc.to_quadruple(noise)
    assert calls == [noise]


def test_augmented_quadruple_measurement_covariance():
    quad = rc.build_augmented(scalar_noise(0.5), unit_iid_input(),
                              unit_channel())
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[2.0]])


def test_degenerate_input_keeps_R():
    inp = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                        K_Z=[[0.0]])
    quad = rc.build_augmented(scalar_noise(0.5), inp, unit_channel())
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[1.0]])


def test_memoryless_noise_factory():
    m = rc.memoryless_noise([[2.0]])
    assert m.n_s == 0
    assert np.allclose(m.R, [[2.0]])
    assert rc.validate(m).ok


@pytest.mark.parametrize("factory, name, slot", [(rc.memoryless_noise, "K_V", "K_W"),
                                                  (rc.iid_input, "K_Z", "K_Z")])
def test_factories_copy_the_covariance_once(factory, name, slot):
    # the model keeps two n x n arrays (the covariance and N or D) and is handed one
    # identity; a copy of the covariance made only to read its size would be a fourth
    K = np.eye(300) * 2.0
    factory(K)
    tracemalloc.start()
    model = factory(K)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3.5 * K.nbytes
    own = getattr(model, slot)
    assert np.array_equal(own, K) and not np.shares_memory(own, K) and not own.flags.writeable
    for bad in ([[1.0, 2.0], [3.0]], np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match=f"^{name} is not rectangular$"):
            factory(bad)


def test_a_stack_holds_each_distinct_model_once(monkeypatch):
    # a drifting chunk: eight noises that share one input, whose arrays are
    # stacked once and then indexed to the eight pairs
    inp = unit_iid_input()
    pairs = [(scalar_noise(0.5 + 2.0 ** -t), inp) for t in range(1, 9)]
    system = rc.build_augmented(*pairs[0], unit_channel())
    lengths, array = [], np.array

    def counted(arrays, *args, **kwargs):
        # each declared array is stacked by one np.array over a list of the distinct models'
        if isinstance(arrays, list):
            lengths.append(len(arrays))
        return array(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "array", counted)
    stacked = system._stacked(pairs)
    monkeypatch.undo()
    assert lengths == [8] * len(rc.NoiseModel._ARRAYS) + [1] * len(rc.InputModel._ARRAYS)
    for name, _, _ in rc.InputModel._ARRAYS:
        assert np.array_equal(getattr(stacked.input, name), np.stack([getattr(inp, name)] * 8))


def test_iid_input_factory_shapes():
    m = rc.iid_input(np.eye(2))
    assert m.n_xi == 0
    assert m.n_z == 2
    assert np.allclose(m.D, np.eye(2))
    assert rc.validate(m).ok
