"""Property-based differential tests of the state kernels against the dense
oracles in ``oracles.py``: Pauli-sum application, dense matrices, |->^n,
one-qubit gates and exact grouped string measurement, on random inputs of
1-10 qubits; Pauli-sum application against the sign-vector arithmetic, bit
for bit, and exact string values on nested Z supports of both n_y parities,
on states with exact zeros; exact string values under three groupings of one
sum, bit for bit; the exact <H> from string values against H|psi>; sampled string measurement, on plans of 1-64 groups in blocks of
any size, and block basis rotation against the gate-by-gate loop, bit for
bit, with a call's groups drawn in turn from numpy's one SeedSequence stream
for its seed and context; the sampled probability against numpy's binomial
on that stream; pinned-node
landscape reconstruction against a dense scan; a multi-angle
``apply_exp_generator`` call against one scalar call per angle, bit for bit; exact planned screening
against unplanned exact screening on random chains, and its values
refreshed after frozen appends against a fresh read; sampled screening
against itself on the pool in another order;
compute-uncompute against the explicit inverse-replay circuit; overlap
landscapes from the string-value overlaps a, c, d and node norms from the
string-value Gram matrix against dense images and exponentials, for
involutory and tripotent pools; transition string values <bra|P|ket> against
dense matrix elements, on real and complex states; first-fit
qubit-wise grouping and plan validation against member-wise letter checks;
term-table algebra against ``PauliSum`` bit for bit, and the planned
screening set-up against the scalar coefficient observables; and the
one-sum molecular mapping against a running total."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ggavqe import (
    Ansatz,
    ExpectationBackend,
    FermionIntegrals,
    GeneralSpinChainSpec,
    InitialState,
    Pool,
    PauliString,
    PauliSum,
    build_general_chain,
    map_molecular_hamiltonian,
    minimal_hardware_efficient_pool,
    overlap_compute_uncompute,
    qeb_pool,
    qubit_hardware_efficient_pool,
    reconstruct,
    replay,
)
from ggavqe import measurement
from ggavqe.drivers import _EnergyObjective, _OverlapObjective
from ggavqe.measurement import (
    MeasurementGroup,
    MeasurementPlan,
    _exact_string_values,
    _first_fit,
    greedy_qubitwise_plan,
    rotate_to_bases,
    screening_plan,
)
from ggavqe.landscape import coefficient_observables
from ggavqe.pauli import TermTable, commutator, commutes
from ggavqe.simulator import (
    INVOLUTORY,
    TRIPOTENT,
    Generator,
    StateVector,
    apply_exp_generator,
    apply_one_qubit_gate,
    apply_pauli_sum,
    exp_combination,
    expectation,
    fidelity,
    gram_norm,
    to_dense_matrix,
    uniform_minus_state,
)

from oracles import coefficient_observables as oracle_observables
from oracles import (
    compute_uncompute_p0,
    dense_expm_hermitian,
    dense_string_from_label,
    dense_sum,
    first_fit_groups,
    gram_matrix,
    landscape_scan,
    letters_agree,
    molecular_running_total,
    pauli_sum_by_sign_vectors,
    random_pauli_sum,
    random_state,
    rotate_to_basis,
    running_sum_value,
    sampled_probability,
    sampled_string_values,
    union_letters,
)

# Derandomized so the suite draws the same examples on every run.
CHECKS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
ATOL = 1e-12

coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# Seeds of one to six 32-bit words, so numpy's entropy pool is padded and
# also overflows; contexts carry words that the 32-bit mask truncates.
seeds = st.integers(0, 2**160)
contexts = st.lists(st.integers(0, 2**40), min_size=1, max_size=6).map(tuple)


@st.composite
def strings(draw, n_qubits):
    """A Pauli word as random X/Z bitmasks; bits set in both give Y letters."""
    full = (1 << n_qubits) - 1
    return PauliString(
        n_qubits, draw(st.integers(0, full)), draw(st.integers(0, full))
    )


@st.composite
def sums_and_states(draw, max_qubits=10):
    n = draw(st.integers(1, max_qubits))
    terms = draw(st.lists(st.tuples(strings(n), coefficients), min_size=1, max_size=6))
    h = PauliSum(n, terms)
    seed = draw(st.integers(0, 2**32 - 1))
    return h, random_state(n, np.random.default_rng(seed))


@given(sums_and_states())
@CHECKS
def test_apply_pauli_sum_matches_dense(case):
    h, psi = case
    out = apply_pauli_sum(StateVector(psi), h).amplitudes
    np.testing.assert_allclose(out, dense_sum(h) @ psi, rtol=0, atol=ATOL)


@given(sums_and_states())
@CHECKS
def test_to_dense_matrix_matches_dense(case):
    h, _ = case
    np.testing.assert_allclose(to_dense_matrix(h), dense_sum(h), rtol=0, atol=ATOL)


@given(st.integers(1, 10))
@CHECKS
def test_uniform_minus_is_kron_of_minus_states(n):
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    expected = np.array([1.0 + 0.0j])
    for _ in range(n):
        expected = np.kron(expected, minus)
    np.testing.assert_allclose(uniform_minus_state(n).amplitudes, expected, rtol=0, atol=ATOL)


@given(sums_and_states())
@CHECKS
def test_exact_measure_strings_match_dense_expectations(case):
    h, psi = case
    # The sum's strings, grouped qubit-wise, are measured after basis rotation.
    plan = greedy_qubitwise_plan(PauliSum(h.n_qubits, [(ps, 1.0) for ps in h.strings()]))
    values = ExpectationBackend("exact").measure_strings(StateVector(psi), plan)
    assert set(plan.index) == {ps for ps in h.strings() if not ps.is_identity()}
    assert len(values) == len(plan.index)
    for ps, i in plan.index.items():
        dense = dense_string_from_label(h.n_qubits, ps.label())
        assert abs(values[i] - np.vdot(psi, dense @ psi).real) <= ATOL


signed_zeros = st.builds(
    complex, st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.sampled_from([0.0, -0.0, 0.5, -1.0])
)


@st.composite
def states_with_zeros(draw, n):
    """A random state with a share of its amplitudes, or the whole half of
    one qubit, set to exact zeros of either sign in each part."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_state(n, rng)
    zero = rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    if draw(st.booleans()):
        zero |= (np.arange(1 << n) >> draw(st.integers(0, n - 1)) & 1).astype(bool)
    signs = rng.choice([0.0, -0.0], size=(2, int(zero.sum())))
    psi[zero] = signs[0] + 1j * signs[1]
    return psi


@given(sums_and_states(max_qubits=8), st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_apply_pauli_sum_keeps_the_sign_vector_bits(case, data):
    h, _ = case
    n = h.n_qubits
    # Complex coefficients, some with exact zero parts, over Y letters.
    h = PauliSum(n, [(ps, data.draw(st.one_of(coefficients, signed_zeros))) for ps in h.strings()])
    psi = data.draw(states_with_zeros(n))
    out = apply_pauli_sum(StateVector(psi), h).amplitudes
    assert np.array_equal(out.view(np.uint64), pauli_sum_by_sign_vectors(psi, h).view(np.uint64))


@st.composite
def nested_buckets(draw):
    """Strings in one to three X-mask buckets.  Each bucket's Z supports
    nest inside its widest one, which holds the bucket's highest X qubit t;
    each string comes with its twin of Z bit t flipped, so one bucket has
    both parities of n_y.  Plus a state with exact zeros."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    strings = set()
    for _ in range(draw(st.integers(1, 3))):
        x, widest = draw(st.integers(0, full)), draw(st.integers(0, full))
        t = 1 << (x.bit_length() - 1) if x else 0
        widest |= t
        nested = [widest & draw(st.integers(0, full)) for _ in range(draw(st.integers(0, 4)))]
        for z in [widest, *nested]:
            strings |= {PauliString(n, x, z), PauliString(n, x, z ^ t)}
    strings = sorted(strings - {PauliString.identity(n)}, key=PauliString.sort_key) or [
        PauliString(n, 0, 1)
    ]
    return draw(st.permutations(strings)), draw(states_with_zeros(n))


@given(nested_buckets())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_exact_string_values_on_nested_supports_match_dense(case):
    strings, psi = case
    n = strings[0].n_qubits
    plan = MeasurementPlan(n, tuple(MeasurementGroup(ps, (ps,)) for ps in strings))
    values = ExpectationBackend("exact").measure_strings(StateVector(psi), plan)
    for ps, i in plan.index.items():
        dense = dense_string_from_label(n, ps.label())
        assert abs(values[i] - np.vdot(psi, dense @ psi).real) <= ATOL, ps.label()


@st.composite
def hermitian_sums_and_states(draw):
    """A hermitian sum on 1-8 qubits, with Y letters wherever the masks
    overlap and an identity term, plus a state with exact zeros.  The state
    is normalized, as the library's states are: the identity reads 1."""
    n = draw(st.integers(1, 8))
    real = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(strings(n), real), min_size=1, max_size=12))
    h = PauliSum(n, terms + [(PauliString.identity(n), draw(real))])
    psi = draw(states_with_zeros(n))
    norm = np.linalg.norm(psi)
    assume(norm > 0.0)
    return h, StateVector(psi / norm)


@given(hermitian_sums_and_states())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_exact_value_matches_simulator_expectation(case):
    h, state = case
    backend = ExpectationBackend("exact")
    assert abs(backend.exact_value(state, h) - expectation(state, h)) <= ATOL
    assert backend.expectation(state, h) == backend.exact_value(state, h)


@st.composite
def shared_mask_sums_and_states(draw):
    """A hermitian sum on 1-8 qubits whose strings share one to three X
    masks, with Y letters wherever the masks overlap and an identity term,
    plus a normalized state with exact zeros."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    real = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    words = st.builds(PauliString, st.just(n), st.sampled_from(masks), st.integers(0, full))
    terms = draw(st.lists(st.tuples(words, real), min_size=1, max_size=12))
    h = PauliSum(n, terms + [(PauliString.identity(n), draw(real))])
    psi = draw(states_with_zeros(n))
    norm = np.linalg.norm(psi)
    assume(norm > 0.0)
    return h, StateVector(psi / norm)


@given(st.one_of(hermitian_sums_and_states(), shared_mask_sums_and_states()), st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_exact_string_values_do_not_depend_on_grouping(case, data):
    """Every string gets the same float64 bits from the amplitudes under
    canonical-order first-fit, the sorted-insertion screening plan and a
    shuffled insertion order: a value depends only on which strings share
    its X mask, not on their groups or order."""
    h, state = case
    n = h.n_qubits
    order = [ps for ps in h.strings() if not ps.is_identity()]
    assume(order)
    plans = [_first_fit(n, order), screening_plan(n, [h]),
             _first_fit(n, data.draw(st.permutations(order)))]
    bits = [_exact_string_values(state, plan)[[plan.index[ps] for ps in order]].view(np.uint64)
            for plan in plans]
    for other in bits[1:]:
        assert np.array_equal(other, bits[0])


@st.composite
def ops_and_states(draw):
    """One to four hermitian sums on one register, each with an identity
    term half the time and Y letters wherever the masks overlap, plus a
    state."""
    n = draw(st.integers(1, 6))
    real = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    identity = PauliString.identity(n)
    ops = [
        PauliSum(n, draw(st.lists(st.tuples(strings(n), real), max_size=6))
                 + ([(identity, draw(real))] if draw(st.booleans()) else []))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return ops, StateVector(random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))


def term_bits(s):
    """Every term of a sum as (z, x, real bits, imaginary bits)."""
    return [(ps.z, ps.x, c.real.hex(), c.imag.hex()) for ps, c in s]


def table_sums(table):
    """Each owner's terms of a table as a ``PauliSum``."""
    terms = [[] for _ in range(table.n_owners)]
    columns = (getattr(table, f).tolist() for f in ("owner", "x", "z", "re", "im"))
    for o, x, z, re, im in zip(*columns):
        terms[o].append((PauliString(table.n_qubits, x, z), complex(re, im)))
    return [PauliSum(table.n_qubits, t) for t in terms]


@st.composite
def table_terms(draw, n):
    """A term that collides often (masks on qubits 0-1 half the time), with a
    coefficient that is general, a unit that cancels exactly, or near 1e-7,
    so that products fall on both sides of the 1e-14 drop tolerance."""
    full = (1 << (n if draw(st.booleans()) else min(n, 2))) - 1
    ps = PauliString(n, draw(st.integers(0, full)), draw(st.integers(0, full)))
    coeff = draw(st.one_of(
        coefficients,
        st.sampled_from([1.0, -1.0, 0.5, -0.5, 1j, -1j, 0.5 + 0.5j]),
        st.builds(lambda m, u: m * u, st.floats(0.98e-7, 1.02e-7),
                  st.sampled_from([1, -1, 1j, -1j])),
    ))
    return ps, coeff


@st.composite
def term_tables(draw):
    """Two lists of sums, one per owner, some without terms, on 1-8 qubits."""
    n, owners = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    return n, [[PauliSum(n, draw(st.lists(table_terms(n), max_size=5))) for _ in range(owners)]
               for _ in range(2)]


@given(term_tables(), st.sampled_from([1j, 2.0, -1.0, 0.5 - 0.25j, 1e-7]))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_term_table_keeps_the_pauli_sum_bits(case, scalar):
    """Owner by owner, the table's products (matched and with a shared
    operand on either side), commutators, scalar multiples, sums and
    differences have the bits of the ``PauliSum`` operators."""
    n, (a, b) = case
    ta, tb = TermTable.stack(n, a), TermTable.stack(n, b)
    shared_a, shared_b = ta.take([0]), tb.take([0])
    checks = [
        (ta @ tb, [x @ y for x, y in zip(a, b)]),
        (ta @ shared_b, [x @ b[0] for x in a]),
        (shared_a @ tb, [a[0] @ y for y in b]),
        (ta.commutator(tb), [commutator(x, y) for x, y in zip(a, b)]),
        (shared_a.commutator(tb), [commutator(a[0], y) for y in b]),
        (scalar * ta, [scalar * x for x in a]),
        (ta + tb, [x + y for x, y in zip(a, b)]),
        (ta - tb, [x - y for x, y in zip(a, b)]),
    ]
    for table, sums in checks:
        assert table.n_owners == len(sums)
        assert [term_bits(s) for s in table_sums(table)] == [term_bits(s) for s in sums]


@given(term_tables())
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_term_table_raises_on_a_nan_coefficient(case):
    """A NaN coefficient raises, in the table as in ``PauliSum``, unless no
    owner has a term to carry it."""
    n, (a, _) = case
    table = TermTable.stack(n, a)
    if len(table.x) == 0:
        assert table_sums(table * float("nan")) == [x * float("nan") for x in a]
        return
    with pytest.raises(ValueError, match="not a number"):
        table * float("nan")
    with pytest.raises(ValueError, match="not a number"):
        next(x for x in a if len(x)) * float("nan")
    re = table.re.copy()
    re[-1] = np.nan
    with pytest.raises(ValueError, match="not a number"):
        TermTable.merged(n, table.n_owners, table.owner, table.x, table.z, re, table.im)


@pytest.mark.parametrize("make_pool", [minimal_hardware_efficient_pool,
                                       qubit_hardware_efficient_pool, qeb_pool])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_planned_setup_matches_the_scalar_oracle(make_pool, n):
    """The pool pass gives the plan groups and the linear-map triplets
    (rows, columns, weight bits) of the scalar observables, generator by
    generator, on a random general chain."""
    h = build_general_chain(GeneralSpinChainSpec(n, *(
        tuple(np.random.default_rng(n).normal(size=size)) for size in (n, n, n - 1, n - 1, n - 1)
    )))
    pool = make_pool(n)
    table, keys = coefficient_observables(h, pool)
    ops = [h]
    for gen, gen_keys in zip(pool, keys):
        obs = oracle_observables(h, gen)
        assert gen_keys == tuple(key for key in obs if key != "h")
        ops += [obs[key] for key in gen_keys]
    plan = screening_plan(n, table)
    assert plan.groups == screening_plan(n, ops).groups
    rows, cols, weights = plan.triplets(table)
    want_rows = np.repeat(np.arange(len(ops)), [len(op) for op in ops])
    assert np.array_equal(rows, want_rows)
    assert cols.tolist() == [plan.index.get(ps, -1) for op in ops for ps in op.strings()]
    assert weights.tobytes() == np.array([c.real for op in ops for _, c in op]).tobytes()


def test_planned_objective_builds_its_observables_in_one_pass():
    """A planned objective takes the pool's observables from one call and
    multiplies no string one at a time."""
    n = 5
    h = build_general_chain(GeneralSpinChainSpec(n, *(
        tuple(np.random.default_rng(3).normal(size=size)) for size in (n, n, n - 1, n - 1, n - 1)
    )))
    calls = []

    def counted(*args):
        calls.append(args)
        return coefficient_observables(*args)

    for pool in (qeb_pool(n), minimal_hardware_efficient_pool(n)):
        calls.clear()
        with patch("ggavqe.landscape.coefficient_observables", counted), \
                patch("ggavqe.pauli.multiply", side_effect=AssertionError("scalar product")):
            objective = _EnergyObjective(h, pool, ExpectationBackend("exact"), True)
            objective.screen(StateVector(random_state(n, np.random.default_rng(0))), 1)
        assert len(calls) == 1


@given(ops_and_states(), st.integers(1, 5000), seeds)
@CHECKS
def test_linear_map_matches_running_sum(case, shots, seed):
    """The plan's map gives every op the bits of adding its terms one at a
    time, on exact and sampled string values, over the screening plan; an
    op without terms reads 0.0."""
    ops, state = case
    n = state.n_qubits
    ops.append(1j * commutator(ops[0], ops[0]))  # no terms
    plan = screening_plan(n, ops)
    value_of = plan.linear_map(ops)
    for backend in (ExpectationBackend("exact"),
                    ExpectationBackend("sampled", shots=shots, seed=seed)):
        values = backend.measure_strings(state, plan, context=(1,))
        assert value_of(values).tolist() == [running_sum_value(op, plan, values) for op in ops]
        assert value_of(values)[-1] == 0.0


@given(ops_and_states(), st.data())
@CHECKS
def test_linear_map_names_an_unmeasured_string(case, data):
    ops, state = case
    n = state.n_qubits
    extra = data.draw(strings(n).filter(lambda ps: not ps.is_identity()))
    plan = screening_plan(n, [PauliSum(n, [(ps, 1.0) for op in ops for ps in op.strings()
                                           if ps != extra])])
    with pytest.raises(ValueError, match=f"plan does not cover .*'{extra.label()}'"):
        plan.linear_map(ops + [PauliSum(n, [(extra, 0.5)])])


@given(st.integers(1, 10), st.data())
@CHECKS
def test_one_qubit_gate_matches_dense(n, data):
    qubit = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    psi = random_state(n, rng)
    # Qubit q sits at Kronecker position n-1-q (qubit 0 least significant).
    dense = np.kron(np.kron(np.eye(1 << (n - 1 - qubit)), gate), np.eye(1 << qubit))
    out = apply_one_qubit_gate(StateVector(psi), gate, qubit).amplitudes
    np.testing.assert_allclose(out, dense @ psi, rtol=0, atol=ATOL)


@given(
    sums_and_states(),
    st.integers(1, 5000),
    seeds,
    st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
    st.integers(1, 3),
)
@CHECKS
def test_sampled_measure_strings_match_gate_by_gate_loop(case, shots, seed, context, per_block):
    h, psi = case
    plan = greedy_qubitwise_plan(PauliSum(h.n_qubits, [(ps, 1.0) for ps in h.strings()]))
    backend = ExpectationBackend("sampled", shots=shots, seed=seed)
    # Blocks of one to three groups, so several blocks run and draw in turn
    # from the call's one stream at every register size.
    with patch.object(measurement, "_BLOCK_AMPLITUDES", per_block << h.n_qubits):
        values = backend.measure_strings(StateVector(psi), plan, context=tuple(context))
    # Equal as lists: every float bit for bit, not within a tolerance.
    assert values.tolist() == sampled_string_values(
        StateVector(psi), plan, shots, seed, tuple(context)
    )


@given(st.integers(1, 6), st.integers(1, 64), st.integers(1, 64), st.integers(1, 5000),
       seeds, contexts, st.data())
@CHECKS
def test_sampled_groups_draw_in_turn_from_one_stream(n, count, per_block, shots, seed,
                                                     context, data):
    """Plans of 1-64 one-member groups, rotated in blocks of 1-64 groups,
    equal the oracle's group-after-group draws bit for bit."""
    words = data.draw(st.lists(strings(n), min_size=count, max_size=count))
    plan = MeasurementPlan(n, tuple(MeasurementGroup(w, (w,)) for w in words))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = StateVector(random_state(n, rng))
    backend = ExpectationBackend("sampled", shots=shots, seed=seed)
    with patch.object(measurement, "_BLOCK_AMPLITUDES", per_block << n):
        values = backend.measure_strings(state, plan, context=context)
    assert values.tolist() == sampled_string_values(state, plan, shots, seed, context)


@given(st.floats(0.0, 1.0), st.integers(1, 5000), seeds, contexts)
@CHECKS
def test_sampled_probability_matches_numpy_binomial(p, shots, seed, context):
    backend = ExpectationBackend("sampled", shots=shots, seed=seed)
    assert backend.estimate_probability(p, context=context) == (
        sampled_probability(p, shots, seed, context)
    )


@given(st.integers(1, 10), st.data())
@CHECKS
def test_block_rotation_matches_sequential_gates(n, data):
    words = data.draw(st.lists(strings(n), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = StateVector(random_state(n, rng))
    rotated = rotate_to_bases(state, words)
    for row, word in zip(rotated, words):
        assert np.array_equal(row, rotate_to_basis(state, word).amplitudes)


POOLS = (minimal_hardware_efficient_pool, qubit_hardware_efficient_pool, qeb_pool)


@given(st.integers(2, 5), st.sampled_from(POOLS), st.data())
@CHECKS
def test_pinned_node_reconstruction_matches_dense_scan(n, make_pool, data):
    """The exact pinned-node model equals the landscape over the whole
    circle, for involutory and tripotent (QEB) generators alike."""
    pool = make_pool(n)
    gen = pool[data.draw(st.integers(0, len(pool) - 1))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = random_pauli_sum(n, 2 * n + 2, rng)
    psi = random_state(n, rng)
    model = reconstruct(ExpectationBackend("exact"), h, gen, StateVector(psi))
    thetas = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    direct = landscape_scan(dense_sum(h), gen.angle_scale * dense_sum(gen.body), psi, thetas)
    np.testing.assert_allclose(model.evaluate(thetas), direct, rtol=0, atol=1e-9)


@given(st.integers(1, 8), st.booleans(), st.booleans(), st.floats(0.1, 4.0), st.data())
@CHECKS
def test_multi_angle_exponential_equals_scalar_calls(n, tripotent, real, scale, data):
    """One ``apply_exp_generator`` call over several angles yields, bit for
    bit and dtype for dtype, the states of one scalar call per angle: on
    real and complex states, for an involutory body P and a tripotent body
    (P + PQ)/2 with Q commuting with P, at angle scales other than 1."""
    p = data.draw(strings(n))
    body = PauliSum(n, [(p, 1.0)])
    if tripotent:
        q = data.draw(strings(n))
        assume(commutes(p, q))
        body = (body + body @ PauliSum(n, [(q, 1.0)])) * 0.5
    assume(scale != 1.0)
    gen = Generator(0, "g", body, TRIPOTENT if tripotent else INVOLUTORY, scale)
    vec = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    state = StateVector(vec.real / np.linalg.norm(vec.real) if real else vec)
    thetas = data.draw(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=1, max_size=5))
    rotated = list(apply_exp_generator(state, gen, thetas))
    assert len(rotated) == len(thetas)
    for theta, out in zip(thetas, rotated):
        ref = apply_exp_generator(state, gen, theta).amplitudes
        assert out.amplitudes.dtype == ref.dtype
        assert np.array_equal(out.amplitudes, ref)



COUPLINGS = ("hx", "hz", "jx", "jy", "jz")
couplings = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains_and_states(draw, ising, pools=(minimal_hardware_efficient_pool,), max_qubits=8):
    """A chain with random per-site/per-bond couplings, any of them absent
    (an Ising chain carries only hx and jz), one of ``pools`` on it, and a
    state reached from |->^n by a few random steps of that pool."""
    n = draw(st.integers(3, max_qubits))
    allowed = ("hx", "jz") if ising else COUPLINGS
    present = draw(st.sets(st.sampled_from(allowed), min_size=1))
    values = {
        name: tuple(
            draw(couplings) if name in present else 0.0
            for _ in range(n if name.startswith("h") else n - 1)
        )
        for name in COUPLINGS
    }
    h = build_general_chain(GeneralSpinChainSpec(n, **values))
    pool = draw(st.sampled_from(pools))(n)
    state = uniform_minus_state(n)
    for _ in range(draw(st.integers(0, 3))):
        gen = pool[draw(st.integers(0, len(pool) - 1))]
        state = apply_exp_generator(state, gen, draw(st.floats(-np.pi, np.pi)))
    return h, pool, state


def _assert_planned_screening_matches_unplanned(case):
    h, pool, state = case
    backend = ExpectationBackend("exact")
    e0_plan, planned = _EnergyObjective(h, pool, backend, True).screen(state, 1)
    e0, unplanned = _EnergyObjective(h, pool, backend, False).screen(state, 1)
    assert abs(e0_plan - e0) <= ATOL
    for a, b in zip(planned, unplanned, strict=True):
        assert a.kind == b.kind
        for name in ("e0", "g", "b"):
            assert abs(getattr(a, name) - getattr(b, name)) <= ATOL, name


@given(chains_and_states(ising=True))
@CHECKS
def test_exact_ising_plan_screening_matches_unplanned(case):
    _assert_planned_screening_matches_unplanned(case)


@given(chains_and_states(ising=False))
@CHECKS
def test_exact_general_chain_plan_screening_matches_unplanned(case):
    _assert_planned_screening_matches_unplanned(case)


@given(
    st.sampled_from([(minimal_hardware_efficient_pool, 8), (qeb_pool, 5)]).flatmap(
        lambda pool: chains_and_states(ising=False, pools=pool[:1], max_qubits=pool[1])
    ),
    st.data(),
)
@CHECKS
def test_incremental_plan_values_match_a_fresh_read(case, data):
    """After 0-6 frozen appends, made one or two per screen, the values the
    objective refreshed (only the members that fail to commute with an
    appended body) equal every member read afresh from the state."""
    h, pool, state = case
    objective = _EnergyObjective(h, pool, ExpectationBackend("exact"), True)
    objective.screen(state, 1)
    appends = data.draw(st.integers(0, 6))
    iteration = 1
    while appends:
        batch = data.draw(st.integers(1, min(2, appends)))
        appends -= batch
        appended = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(batch)]
        for gen in appended:
            state = apply_exp_generator(state, gen, data.draw(st.floats(-np.pi, np.pi)))
        iteration += 1
        objective.screen(state, iteration, appended)
        fresh = measurement._exact_string_values(state, objective.plan)
        np.testing.assert_allclose(objective._strings, fresh, rtol=0, atol=ATOL)


@given(
    chains_and_states(
        ising=False, pools=(minimal_hardware_efficient_pool, qeb_pool), max_qubits=5
    ),
    st.booleans(),
    st.integers(1, 2000),
    seeds,
    st.data(),
)
@CHECKS
def test_sampled_screening_does_not_depend_on_pool_order(case, use_plan, shots, seed, data):
    """Every draw is keyed by its context, not by when it is made: the pool
    screened in another order gives each generator id the same landscape."""
    h, pool, state = case
    permuted = Pool(pool.name, pool.n_qubits, tuple(data.draw(st.permutations(pool.generators))))

    def screen(pool):
        backend = ExpectationBackend("sampled", shots=shots, seed=seed)
        e0, models = _EnergyObjective(h, pool, backend, use_plan).screen(state, 1)
        return e0, {gen.gid: model for gen, model in zip(pool, models)}, backend.accounting

    assert screen(permuted) == screen(pool)


@st.composite
def targets_and_states(draw):
    """A target ansatz of 0-6 random steps of a minimal or QEB pool on a
    basis, |->^n or custom initial state, and a state that shares a prefix
    of those steps and then departs by up to two random steps."""
    n = draw(st.integers(2, 8))
    pool = draw(st.sampled_from((minimal_hardware_efficient_pool, qeb_pool)))(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("basis", "uniform-minus", "custom")))
    occupations = "".join(draw(st.sampled_from("01")) for _ in range(n))
    initial = InitialState(
        kind,
        occupations=occupations if kind == "basis" else None,
        vector=random_state(n, rng) if kind == "custom" else None,
    )

    def random_steps(count):
        return tuple(
            (int(rng.integers(len(pool))), float(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)
        )

    steps = random_steps(draw(st.integers(0, 6)))
    shared = steps[: draw(st.integers(0, len(steps)))]
    gens = pool.by_id()
    state = replay(Ansatz(n, initial, shared + random_steps(draw(st.integers(0, 2)))), gens)
    return Ansatz(n, initial, steps), state, gens


@given(targets_and_states())
@CHECKS
def test_compute_uncompute_matches_inverse_replay(case):
    target, state, gens = case
    p0 = compute_uncompute_p0(target, state, gens)
    estimate = overlap_compute_uncompute(
        ExpectationBackend("exact"), fidelity(replay(target, gens), state)
    )
    assert abs(estimate - p0) <= ATOL


@given(targets_and_states(), st.integers(1, 5000), st.integers(0, 2**32 - 1))
@CHECKS
def test_sampled_compute_uncompute_draws_from_the_fidelity(case, shots, seed):
    """Bit for bit the draw of one probability circuit at the fidelity."""
    target, state, gens = case
    target_state = replay(target, gens)
    context = (3, 1, 2, 0)
    backend = ExpectationBackend("sampled", shots=shots, seed=seed)
    reference = ExpectationBackend("sampled", shots=shots, seed=seed)
    assert overlap_compute_uncompute(backend, fidelity(target_state, state), context=context) == (
        reference.estimate_probability(fidelity(target_state, state), context=context)
    )
    assert backend.accounting == reference.accounting


@st.composite
def overlap_cases(draw, max_qubits=5):
    """A minimal (involutory) or QEB (tripotent) pool, a random unit state
    and a random unit target on 2-``max_qubits`` qubits."""
    n = draw(st.integers(2, max_qubits))
    pool = draw(st.sampled_from((minimal_hardware_efficient_pool, qeb_pool)))(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pool, StateVector(random_state(n, rng)), StateVector(random_state(n, rng))


def dense_node(gen, state, theta):
    """expm(-i t B) |state> with t = angle_scale * theta, by dense algebra."""
    t = gen.angle_scale * theta
    return dense_expm_hermitian(dense_sum(gen.body), -1j * t) @ state.amplitudes


@given(overlap_cases(), st.floats(0.5, 2.0), st.floats(-2 * np.pi, 2 * np.pi), st.data())
@CHECKS
def test_overlap_coefficients_match_dense_exponential(case, scale, theta, data):
    """The overlaps a, c, d and the Gram matrix that overlap screening reads
    from string values equal those of the dense images G^k phi; F(t) from
    them equals |<tau|expm(-i t B) phi>|^2, and the Gram norm equals the
    dense node's norm (phi scaled off the unit sphere)."""
    pool, state, target = case
    position = data.draw(st.integers(0, len(pool) - 1))
    gen = pool[position]
    phi = StateVector(scale * state.amplitudes)
    objective = _OverlapObjective(target, pool, ExpectationBackend("exact"), "compute_uncompute")
    _, inputs = objective.landscape_inputs(phi)
    overlaps, gram = inputs[position]
    g = -1j * dense_sum(gen.body)
    images = [phi.amplitudes, g @ phi.amplitudes, g @ g @ phi.amplitudes][:len(overlaps)]
    dense_overlaps = [np.vdot(target.amplitudes, v) for v in images]
    np.testing.assert_allclose(overlaps, dense_overlaps, rtol=0, atol=ATOL)
    np.testing.assert_allclose(gram, gram_matrix(images), rtol=0, atol=ATOL)
    t = gen.angle_scale * theta
    f = abs(exp_combination(gen.kind, t, overlaps)) ** 2
    node = dense_node(gen, phi, theta)
    assert abs(f - abs(np.vdot(target.amplitudes, node)) ** 2) <= ATOL
    assert abs(gram_norm(gen.kind, t, gram) - np.linalg.norm(node)) <= ATOL


@given(st.integers(1, 8), st.booleans(), st.booleans(), st.floats(0.5, 2.0), st.data())
@CHECKS
def test_transition_values_match_dense(n, real_bra, real_ket, scale, data):
    """<bra|P|ket> from one product per X mask equals the dense matrix
    element, on real (float64) and complex states, Y letters included, with
    the ket scaled off the unit sphere."""
    members = data.draw(st.lists(strings(n), min_size=1, max_size=12, unique=True))
    plan = screening_plan(n, [PauliSum(n, [(ps, 1.0) for ps in members])])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def draw_state(real):
        vec = random_state(n, rng)
        return vec.real / np.linalg.norm(vec.real) if real else vec

    bra = StateVector(draw_state(real_bra))
    ket = StateVector(scale * draw_state(real_ket))
    values = measurement._transition_values(bra, ket, plan)
    expected = [
        np.vdot(bra.amplitudes, dense_string_from_label(n, ps.label()) @ ket.amplitudes)
        for group in plan.groups for ps in group.members
    ]
    np.testing.assert_allclose(values, expected, rtol=0, atol=ATOL)


@given(overlap_cases(max_qubits=4), st.floats(-np.pi, np.pi))
@CHECKS
def test_overlap_screening_matches_dense_landscape(case, theta):
    """Every screened overlap landscape, exact mode, against dense nodes."""
    pool, state, target = case
    objective = _OverlapObjective(target, pool, ExpectationBackend("exact"), "compute_uncompute")
    f0, models = objective.screen(state, 1)
    assert abs(f0 - fidelity(target, state)) <= ATOL
    for gen, model in zip(pool, models, strict=True):
        exact = abs(np.vdot(target.amplitudes, dense_node(gen, state, theta))) ** 2
        assert abs(model.evaluate(theta) - exact) <= ATOL


@st.composite
def sparse_strings(draw, n_qubits):
    """A non-identity word with identity-heavy letters, so that groups of
    several members form even on ten qubits."""
    letters = draw(st.lists(st.sampled_from("IIIIXYZ"), min_size=n_qubits, max_size=n_qubits))
    ops = [(q, letter) for q, letter in enumerate(letters) if letter != "I"]
    return PauliString.from_ops(n_qubits, ops or [(0, "Y")])


@st.composite
def string_lists(draw):
    n = draw(st.integers(1, 10))
    return n, draw(st.lists(sparse_strings(n), max_size=40, unique=True))


@given(string_lists())
@settings(CHECKS, max_examples=200)
def test_first_fit_matches_member_wise_grouping(case):
    """Same groups, members and order as the member-wise rule, in canonical
    and X-heavy order, with each word the union of its members' letters."""
    n, strs = case
    for key in (PauliString.sort_key, lambda ps: (-ps.x.bit_count(), ps.sort_key())):
        ordered = sorted(strs, key=key)
        plan = _first_fit(n, ordered)
        assert [list(group.members) for group in plan.groups] == first_fit_groups(ordered)
        for group in plan.groups:
            assert [group.basis.letter(q) for q in range(n)] == union_letters(n, group.members)
        plan.validate()


@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(sparse_strings(n), st.lists(sparse_strings(n), min_size=1, max_size=6))
))
@settings(CHECKS, max_examples=200)
def test_validate_rejects_exactly_the_members_off_their_word(case):
    """A member passes when it agrees with the word wherever the member acts;
    then the members also agree pairwise."""
    word, members = case
    plan = MeasurementPlan(word.n_qubits, (MeasurementGroup(word, tuple(dict.fromkeys(members))),))
    on_word = all(
        ps.letter(q) in ("I", word.letter(q))
        for ps in members for q in range(word.n_qubits)
    )
    if on_word:
        plan.validate()
        assert all(letters_agree(a, b) for a in members for b in members)
    else:
        with pytest.raises(ValueError, match="incompatible"):
            plan.validate()


@st.composite
def symmetric_integrals(draw):
    """Real integrals of 4-6 spin orbitals with h_pq = h_qp and h_pqrs = h_srqp,
    the symmetry that makes the mapped operator hermitian."""
    n = draw(st.integers(4, 6))
    index = st.integers(0, n - 1)
    value = st.floats(-2.0, 2.0, allow_nan=False)
    one, two = {}, {}
    for p, q, v in draw(st.lists(st.tuples(index, index, value), max_size=12)):
        one[(p, q)] = one[(q, p)] = v
    for p, q, r, s, v in draw(st.lists(st.tuples(index, index, index, index, value), max_size=30)):
        two[(p, q, r, s)] = two[(s, r, q, p)] = v
    return FermionIntegrals(n, 0, one, two)


@given(symmetric_integrals())
@settings(CHECKS, max_examples=100)
def test_molecular_mapping_matches_running_total(ints):
    """One sum over every product equals adding the products one at a time."""
    assert map_molecular_hamiltonian(ints) == molecular_running_total(ints)
