import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sparsestab
from sparsestab import (
    CapabilityError,
    Permutation,
    SparsityPattern,
    apply_permutation,
    chain_generic_matrix,
    classify,
    leading_principal_minors,
    oracle_search,
    synthesize_stable_witness,
    transpose_pattern,
    verify_certificate,
)
import sparsestab.graphs as graphs
import sparsestab.numerics as numerics
import sparsestab.verdict as verdict_module
import sparsestab.witness as witness_module
from sparsestab.errors import NumericalError, ValidationError
from sparsestab.atlas import config_hash, enumerate_patterns
from sparsestab.graphs import CHAIN_N_CAP, check_necessary, check_scc_sink, find_nested_chain
from sparsestab.jsonio import certificate_from_dict, certificate_to_dict, verdict_from_dict, verdict_to_dict
from sparsestab.patterns import canonical_form, key_to_pattern
from sparsestab.numerics import HURWITZ_TOLERANCE, ordering_conjugation, spectral_abscissa
from sparsestab.verdict import (
    NO_HAMILTONIAN_K,
    ORACLE_FOUND,
    PROVED_STABLE,
    PROVED_UNSTABLE,
    UNKNOWN,
    EngineConfig,
    OracleResult,
    StabilityVerdict,
    certificate_failures,
    derive_seed,
)
from sparsestab.witness import WitnessCertificate

from conftest import FIG2_LEFT, FIG2_RIGHT, FIG3, SIGMA_ALPHA, SIGMA_BETA, failed_geev

SMALL = EngineConfig(oracle_restarts=8, oracle_steps=120)

# the 3x3 stability gap: every size has a cycle cover but no nested chain
GAP3 = key_to_pattern(3, 118)

# a 4x4 gap pattern whose Routh array degenerates identically: the
# necessary checks pass but the space contains no Hurwitz matrix
GAP4_UNSTABLE = key_to_pattern(4, 4780)

# an n=8 pattern whose whole graph has cycle covers of every size; its
# block {2,3,4,5,6} has none of size 3
GAP8_BLOCKWISE = SparsityPattern.from_pairs(
    8,
    [
        divmod(ij, 10)
        for ij in (11, 24, 25, 27, 31, 32, 44, 45, 46, 47, 55, 56, 57, 63, 77, 81, 82, 83, 85, 86, 88)
    ],
)

# an n=8 chain pattern with loopless vertices, not its orbit's canonical
# representative
CHAIN8 = SparsityPattern.from_pairs(
    8,
    [divmod(ij, 10) for ij in (12, 13, 16, 17, 22, 34, 35, 36, 38, 41, 43, 45, 58, 64, 68, 73, 81, 86, 87, 88)],
)

# two blocks {1,2,3,4} and {5,6,7,8}, each a 4-cycle with one self-loop:
# each block covers sizes 1 and 4 only, the whole pattern 1, 2, 4, 5 and 8
TWO_LOOPED_CYCLES = SparsityPattern.from_pairs(
    8,
    [(1, 1), (1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 5), (5, 6), (6, 7), (7, 8), (8, 5)],
)


class TestClassify:
    def test_fig2_left(self):
        v = classify(FIG2_LEFT, SMALL)
        assert (v.tag, v.reason, v.k) == ("ProvedUnstable", "NoHamiltonianK", 2)

    def test_fig2_right(self):
        v = classify(FIG2_RIGHT, SMALL)
        assert (v.tag, v.reason) == ("ProvedStable", "ChainFound")
        assert v.certificate.ordering == (1, 2, 3)
        assert spectral_abscissa(v.certificate.stabilized_matrix()) < -1e-9

    def test_sigma_patterns(self):
        va = classify(SIGMA_ALPHA, SMALL)
        assert va.tag == "ProvedStable" and va.certificate.ordering == (1, 2, 3, 4, 5)
        vb = classify(SIGMA_BETA, SMALL)
        assert (vb.tag, vb.reason, vb.k) == ("ProvedUnstable", "NoHamiltonianK", 4)

    def test_fig3_scc_reason(self):
        v = classify(FIG3, SMALL)
        assert (v.tag, v.reason) == ("ProvedUnstable", "SccWithoutSink")
        assert v.violating == frozenset({1, 2, 3, 4})

    def test_no_sink_reason(self):
        p = SparsityPattern.from_pairs(2, [(1, 2), (2, 1)])
        v = classify(p, SMALL)
        assert (v.tag, v.reason) == ("ProvedUnstable", "NoSink")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sink_reason_is_no_sink_exactly_without_a_free_diagonal_entry(self, n):
        for key in range(1 << (n * n)):
            p = key_to_pattern(n, key)
            no_loop = all((i, i) not in p.free for i in range(1, n + 1))
            assert (verdict_module._sink_reason(p) == "NoSink") == no_loop, key

    @pytest.mark.parametrize(
        "p, reason", [(FIG3, "SccWithoutSink"), (FIG2_RIGHT, "ChainFound")]
    )
    def test_classify_and_verify_share_one_graph_pass(self, p, reason):
        # the sink check, the chain search and verification read one memo
        graphs._scc.cache_clear()
        v = classify(p, SMALL)
        assert v.reason == reason
        assert verify_certificate(v, p)
        info = graphs._scc.cache_info()
        assert (info.misses, info.maxsize) == (1, 1)
        assert info.hits > 0

    def test_gap_pattern_resolved_by_oracle(self):
        v = classify(GAP3, SMALL)
        assert (v.tag, v.reason) == ("ProvedStable", "OracleFound")
        assert spectral_abscissa(v.oracle.matrix) < -1e-9
        assert verify_certificate(v, GAP3)

    def test_unstable_gap_pattern_stays_unknown(self):
        v = classify(GAP4_UNSTABLE, SMALL)
        assert (v.tag, v.reason) == ("Unknown", "Exhausted")
        assert v.oracle is not None
        assert verify_certificate(v, GAP4_UNSTABLE)

    def test_blockwise_cover_proof(self):
        start = time.perf_counter()
        v = classify(GAP8_BLOCKWISE)
        assert time.perf_counter() - start < 0.1
        assert (v.tag, v.reason, v.k) == ("ProvedUnstable", "NoHamiltonianK", 3)
        assert verify_certificate(v, GAP8_BLOCKWISE)

    def test_deterministic_given_seed(self):
        a = classify(GAP3, SMALL, seed=9)
        b = classify(GAP3, SMALL, seed=9)
        assert a.tag == b.tag and a.reason == b.reason
        assert np.array_equal(a.oracle.matrix, b.oracle.matrix)

    def test_verdict_tag_invariant_on_orbit(self):
        rng = random.Random(61)
        for p in (GAP3, FIG2_RIGHT, FIG2_LEFT):
            base = classify(p, SMALL).tag
            for _ in range(4):
                assert classify(relabeled(rng, p), SMALL).tag == base

    def test_chain_verdicts_on_relabelings(self):
        # the chain stage works on the input as labeled and seeds its
        # witness from the input's key, so every relabeling gets its own
        # certificate, which must verify and be reproducible
        rng = random.Random(62)
        chains = []
        for n in (5, 6, 7, 8):
            found = 0
            while found < 3:
                p = SparsityPattern.from_pairs(
                    n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.3]
                )
                if find_nested_chain(p) is not None:
                    chains.append(p)
                    found += 1
        for p in chains:
            for _ in range(4):
                q = relabeled(rng, p)
                v = classify(q, SMALL)
                assert (v.tag, v.reason) == ("ProvedStable", "ChainFound")
                assert verify_certificate(v, q)
                again = classify(q, SMALL)
                assert json.dumps(verdict_to_dict(again)) == json.dumps(verdict_to_dict(v))


def relabeled(rng: random.Random, p: SparsityPattern) -> SparsityPattern:
    """A random relabeling of p, transposed with probability one half."""
    order = list(range(1, p.n + 1))
    rng.shuffle(order)
    q = apply_permutation(p, Permutation(tuple(order)))
    return transpose_pattern(q) if rng.random() < 0.5 else q


def _stage_order_patterns():
    for n in (1, 2, 3):
        yield from (key_to_pattern(n, key) for key in range(1 << (n * n)))
    yield from (p for p, _ in enumerate_patterns(4))


class TestStageOrder:
    """classify runs the cover check only when no chain is found."""

    def test_chain_implies_cover_check_passes_and_verdicts_match_cover_first(self):
        # every raw key at n <= 3 and every n = 4 orbit representative
        checked = 0
        for p in _stage_order_patterns():
            k = check_necessary(p)
            if find_nested_chain(p) is not None:
                assert k is None, p
            if check_scc_sink(p) or k is None:
                continue  # both orders run the same stages on these
            v = classify(p, SMALL)
            assert (v.tag, v.reason, v.k) == (PROVED_UNSTABLE, NO_HAMILTONIAN_K, k), p
            checked += 1
        assert checked > 0

    def test_cover_check_decides_a_block_beyond_the_chain_cap(self):
        # one looped cycle through CHAIN_N_CAP + 1 vertices has no 2-vertex cover
        n = CHAIN_N_CAP + 1
        p = SparsityPattern(n, frozenset({(1, 1)} | {(i, i % n + 1) for i in range(1, n + 1)}))
        with pytest.raises(CapabilityError):
            find_nested_chain(p)
        v = classify(p, SMALL)
        assert (v.tag, v.reason, v.k) == (PROVED_UNSTABLE, NO_HAMILTONIAN_K, 2)
        assert verify_certificate(v, p)

    def test_block_beyond_the_chain_cap_passing_the_cover_check_raises(self):
        with pytest.raises(CapabilityError):
            classify(SparsityPattern.full(CHAIN_N_CAP + 1), SMALL)

    def test_cover_check_runs_once_beyond_the_chain_cap(self, monkeypatch):
        # a 25-cycle with one self-loop: one block over the cap, no 2-vertex cover
        calls = []
        monkeypatch.setattr(
            verdict_module, "check_necessary", lambda p: calls.append(p) or check_necessary(p)
        )
        p = SparsityPattern(25, frozenset({(1, 1)} | {(i, i % 25 + 1) for i in range(1, 26)}))
        v = classify(p, SMALL)
        assert (v.tag, v.reason, v.k) == (PROVED_UNSTABLE, NO_HAMILTONIAN_K, 2)
        assert calls == [p]


class TestChainCheckedOnce:
    """A chain is checked against its pattern where an outside caller hands
    one in, not where classify hands synthesis the search's own chain."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def counting(p, chain):
            calls.append(chain)
            return graphs.verify_chain(p, chain)

        for module in (witness_module, verdict_module):
            monkeypatch.setattr(module, "verify_chain", counting)
        return calls

    def test_classify_and_verify_check_the_chain_once(self, checks):
        v = classify(SIGMA_ALPHA, SMALL)
        assert v.reason == "ChainFound" and verify_certificate(v, SIGMA_ALPHA)
        assert len(checks) == 1

    def test_a_handed_in_chain_is_checked(self, checks):
        chain = find_nested_chain(FIG2_RIGHT)
        copy = replace(chain)  # equal, but not the object the search returned
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=1, chain=copy)
        assert checks == [copy] and verify_certificate(cert)
        synthesize_stable_witness(FIG2_RIGHT, seed=1, chain=chain)
        assert checks == [copy, copy]  # the search's own chain, on the pattern it searched

    def test_a_chain_of_another_pattern_is_rejected(self, checks):
        chain = find_nested_chain(SIGMA_ALPHA)
        with pytest.raises(ValueError, match="does not verify"):
            synthesize_stable_witness(SparsityPattern.diagonal(5), seed=1, chain=chain)
        with pytest.raises(ValueError, match="does not verify"):
            chain_generic_matrix(SparsityPattern.diagonal(5), chain, seed=1)
        assert checks == [chain, chain]


class TestHashesWithoutOpenSSL:
    def test_import_loads_no_hashlib_backend(self):
        src = os.path.dirname(os.path.dirname(sparsestab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, sparsestab; print('_hashlib' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        assert out.stdout.strip() == "False"

    def test_seed_and_config_hash_equal_hashlib_values(self):
        for seed, parts in [(0, (10, 12345, "witness")), (7, (4, 4780, "oracle")), (-3, ())]:
            text = ":".join([str(seed)] + [str(x) for x in parts])
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            assert derive_seed(seed, *parts) == int.from_bytes(digest, "big")
        for config in (EngineConfig(), SMALL):
            payload = json.dumps(vars(config), sort_keys=True, default=str)
            assert config_hash(config) == hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()


class TestCanonicalOnlyForOracle:
    @pytest.mark.parametrize(
        "p,reason,calls",
        [
            (SparsityPattern.from_pairs(2, [(1, 2), (2, 1)]), "NoSink", 0),
            (FIG3, "SccWithoutSink", 0),
            (FIG2_LEFT, "NoHamiltonianK", 0),
            (FIG2_RIGHT, "ChainFound", 0),
            (SIGMA_ALPHA, "ChainFound", 0),
            (CHAIN8, "ChainFound", 0),
            (GAP3, "OracleFound", 1),
            (GAP4_UNSTABLE, "Exhausted", 1),
        ],
        ids=["no_sink", "scc_without_sink", "cover", "chain3", "chain5", "chain8", "oracle_found", "unknown"],
    )
    def test_canonical_form_calls(self, monkeypatch, p, reason, calls):
        seen = []
        monkeypatch.setattr(verdict_module, "canonical_form", lambda q: seen.append(q) or canonical_form(q))
        assert classify(p, SMALL).reason == reason
        assert seen == [p] * calls


class TestEngineConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("oracle_restarts", -3),
            ("oracle_restarts", 2.5),
            ("oracle_restarts", True),
            ("oracle_steps", 0),
            ("oracle_steps", 80.0),
        ],
    )
    def test_nonpositive_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    def test_fields(self):
        assert list(vars(EngineConfig())) == ["oracle_restarts", "oracle_steps"]


class TestOracle:
    def test_diagonal_pattern_found(self):
        result = oracle_search(SparsityPattern.diagonal(2), SMALL)
        assert result.found and result.best_abscissa < -1e-9
        # on a find the best abscissa is the found matrix's own
        assert result.best_abscissa == spectral_abscissa(result.matrix)

    def test_provably_unstable_never_succeeds(self):
        result = oracle_search(FIG2_LEFT, SMALL)
        assert not result.found

    def test_oracle_only_mode_on_stable_pattern(self):
        result = oracle_search(FIG2_RIGHT, SMALL)
        assert result.found
        assert np.max(np.linalg.eigvals(result.matrix).real) < -1e-9

    def test_empty_pattern(self):
        result = oracle_search(SparsityPattern.empty(2), SMALL)
        assert not result.found and result.best_abscissa == 0.0

    def test_pinned_first_start_evaluated_once(self, monkeypatch):
        calls = []
        geev = numerics._geev
        monkeypatch.setattr(numerics, "_geev", lambda a, **kw: calls.append(1) or geev(a, **kw))
        result = oracle_search(CHAIN8, EngineConfig(oracle_restarts=1))
        assert (result.found, result.restarts_used, result.best_abscissa) == (False, 1, 0.0)
        assert len(calls) == 1

    def test_non_convergence_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "_geev", failed_geev)
        with pytest.raises(NumericalError, match="did not converge"):
            oracle_search(FIG2_RIGHT, SMALL)

    def test_failed_trial_is_a_numerical_error(self, monkeypatch):
        """A NaN in either half of a step pair stops the search."""
        geev = numerics._geev
        for half in range(2):

            def fail_on_pairs(stack, signature):
                out = geev(stack, signature=signature)
                if len(stack) == 2:
                    out[half] = complex("nan")
                return out

            monkeypatch.setattr(numerics, "_geev", fail_on_pairs)
            with pytest.raises(NumericalError, match="did not converge"):
                oracle_search(FIG2_RIGHT, SMALL)


def reference_supported(matrix, p):
    """No nonzero (NaN included) outside p's free entries, by a scalar loop."""
    n = p.n
    if matrix.shape != (n, n):
        return False
    return all(
        (i, j) in p.free or not matrix[i - 1, j - 1] != 0.0
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


class TestMatrixSupported:
    @pytest.mark.parametrize("p", [FIG2_RIGHT, SparsityPattern.empty(3), SparsityPattern.full(3)])
    def test_edge_cases_match_the_scalar_loop(self, p):
        n = p.n
        outside = [(i - 1, j - 1) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) not in p.free]
        cases = [np.zeros((n, n)), np.zeros((n + 1, n + 1)), np.zeros((n, n + 1)), np.zeros(n), np.zeros(())]
        for value in (-0.0, float("nan"), 1e-300, float("inf")):
            for at in outside[:1] + outside[-1:]:
                m = np.zeros((n, n))
                m[at] = value
                cases.append(m)
        m = np.zeros((n, n))
        for i, j in p.free:
            m[i - 1, j - 1] = float("nan")
        cases.append(m)
        expected = []
        for m in cases:
            assert verdict_module._matrix_supported(m, p) == reference_supported(m, p)
            expected.append(reference_supported(m, p))
        assert expected[:5] == [True, False, False, False, False]
        assert expected[-1]  # NaN on the free entries is the Hurwitz test's business
        if outside:
            assert expected[5:9] == [True, True, False, False]  # -0.0 twice, then NaN

    def test_random_matrices_match_the_scalar_loop(self):
        rng = random.Random(83)
        values = [0.0, -0.0, 1.0, -2.5, float("nan"), float("inf")]
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            p = SparsityPattern(
                n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.5)
            )
            m = np.array([[rng.choice(values) if rng.random() < 0.2 else 0.0 for _ in range(n)] for _ in range(n)])
            outcomes.add(verdict_module._matrix_supported(m, p))
            assert verdict_module._matrix_supported(m, p) == reference_supported(m, p)
        assert outcomes == {True, False}


class TestVerifyCertificate:
    def test_round_trip(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=1)
        assert verify_certificate(cert)
        assert certificate_failures(cert) == []

    def test_tampered_support_detected(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=2)
        witness = cert.witness.copy()
        witness[1, 1] = 3.0  # (2,2) is not free
        bad = WitnessCertificate(
            pattern=cert.pattern,
            ordering=cert.ordering,
            prefix_cycles=cert.prefix_cycles,
            witness=witness,
            stabilizer=cert.stabilizer,
        )
        failures = certificate_failures(bad)
        assert any("outside the free set" in f for f in failures)
        assert not verify_certificate(bad)

    def test_sign_flipped_stabilizer_detected(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=3)
        bad = WitnessCertificate(
            pattern=cert.pattern,
            ordering=cert.ordering,
            prefix_cycles=cert.prefix_cycles,
            witness=cert.witness,
            stabilizer=np.abs(cert.stabilizer),
        )
        failures = certificate_failures(bad)
        assert any("not Hurwitz" in f for f in failures)

    def test_zero_leading_minor_detected(self):
        # a zero on the first ordered vertex's free diagonal entry keeps
        # the support and makes the first ordered leading minor vanish
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=4)
        v = cert.ordering[0] - 1
        witness = cert.witness.copy()
        witness[v, v] = 0.0
        failures = certificate_failures(replace(cert, witness=witness))
        assert "a leading principal minor of the ordered witness is zero" in failures
        assert not any("outside the free set" in f for f in failures)

    def test_dyadic_zero_leading_minor_detected(self):
        # no entry is an integer, and the 2x2 minor 0.25 - 0.25 is exactly zero
        cert = synthesize_stable_witness(SparsityPattern.full(2), seed=4)
        witness = np.array([[0.5, 0.25], [1.0, 0.5]])
        failures = certificate_failures(replace(cert, witness=witness))
        assert "a leading principal minor of the ordered witness is zero" in failures

    def test_non_integral_witness_agrees_with_rational_path(self):
        # the verifier converts float entries to ints and Fractions; a
        # Fraction for every entry is the reference conversion
        cert = synthesize_stable_witness(SparsityPattern.full(4), seed=6)
        rng = random.Random(11)
        values = [0.0, 0.5, -0.5, 0.25, -1.0, 1.5, 3.0, -0.125, 1e-3, 2.0**60]
        outcomes = set()
        for _ in range(300):
            witness = np.array([[rng.choice(values) for _ in range(4)] for _ in range(4)])
            ordering = tuple(rng.sample(range(1, 5), 4))
            bad = replace(cert, witness=witness, ordering=ordering)
            flagged = "a leading principal minor of the ordered witness is zero" in certificate_failures(bad)
            exact = [[Fraction(x) for x in row] for row in witness.tolist()]
            expected = 0 in leading_principal_minors(ordering_conjugation(exact, ordering))
            assert flagged == expected
            outcomes.add(flagged)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("ordering", [(1, 1, 2), (0, 2, 3), (4, 2, 3), (1, 2)])
    def test_ordering_not_a_permutation_raises(self, ordering):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=4)
        with pytest.raises(ValidationError):
            certificate_failures(replace(cert, ordering=ordering))

    @pytest.mark.parametrize("convert", [float, lambda v: True if v == 1 else v], ids=["float", "bool"])
    @pytest.mark.parametrize("field", ["ordering", "prefix_cycles"])
    def test_chain_evidence_must_be_ints(self, field, convert):
        # 2.0 and True compare equal to the vertices they stand for
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=4)
        if field == "ordering":
            bad = replace(cert, ordering=tuple(map(convert, cert.ordering)))
        else:
            cycles = tuple(tuple(tuple(map(convert, c)) for c in cs) for cs in cert.prefix_cycles)
            bad = replace(cert, prefix_cycles=cycles)
        with pytest.raises(ValidationError):
            certificate_failures(bad)

    @pytest.mark.parametrize("second", [((1,), (1, 2)), ((1, 2), (1, 2))], ids=["vertex_twice", "cycle_twice"])
    def test_cover_reusing_a_vertex_detected(self, second):
        # the pattern's chain (1, 2) with a second cover whose cycles read
        # into a dict would give the bijection 1 -> 2 -> 1
        p = SparsityPattern(2, frozenset({(1, 1), (1, 2), (2, 1)}))
        cert = synthesize_stable_witness(p, seed=4)
        assert cert.ordering == (1, 2) and certificate_failures(cert) == []
        bad = replace(cert, prefix_cycles=(((1,),), second))
        assert certificate_failures(bad) == ["prefix cycle decompositions do not verify against the pattern"]
        assert not verify_certificate(bad)

    def test_zero_stabilizer_entry_detected(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=4)
        stabilizer = cert.stabilizer.copy()
        stabilizer[0] = 0.0
        failures = certificate_failures(replace(cert, stabilizer=stabilizer))
        assert "stabilizer has a zero entry" in failures

    @pytest.mark.parametrize("array", ["witness", "stabilizer"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_raises(self, array, value):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=5)
        entries = getattr(cert, array).copy()
        entries.flat[0] = value
        with pytest.raises(ValidationError):
            certificate_failures(replace(cert, **{array: entries}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_oracle_matrix_raises(self, value):
        v = classify(GAP3, SMALL)
        i, j = min(GAP3.free)
        matrix = v.oracle.matrix.copy()
        matrix[i - 1, j - 1] = value
        with pytest.raises(ValidationError):
            verify_certificate(replace(v, oracle=replace(v.oracle, matrix=matrix)), GAP3)

    def test_stabilized_product_beyond_float_range_fails(self):
        # both arrays are finite; their product is not, and that is a
        # failed claim rather than malformed input
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=5)
        big = replace(cert, witness=cert.witness * 1e200, stabilizer=cert.stabilizer * 1e200)
        assert certificate_failures(big) == ["stabilized matrix has entries beyond float range"]
        assert not verify_certificate(big)

    def test_bool_k_does_not_verify(self):
        # the 2-cycle has no 1-cycle cover, so k=1 is its exact evidence;
        # True == 1, but a bool is not a size
        p = SparsityPattern.from_pairs(2, [(1, 2), (2, 1)])
        v = StabilityVerdict(tag=PROVED_UNSTABLE, reason=NO_HAMILTONIAN_K, k=1)
        assert verify_certificate(v, p)
        assert not verify_certificate(replace(v, k=True), p)
        assert not verify_certificate(replace(v, k=1.0), p)

    @pytest.mark.parametrize(
        "d",
        [
            {"tag": PROVED_UNSTABLE, "reason": NO_HAMILTONIAN_K, "k": True},
            {"tag": PROVED_UNSTABLE, "reason": NO_HAMILTONIAN_K, "k": 1.0},
            {"tag": PROVED_UNSTABLE, "reason": "SccWithoutSink", "violating": [True]},
            {"tag": PROVED_UNSTABLE, "reason": "SccWithoutSink", "violating": [1.0]},
            {"tag": PROVED_UNSTABLE, "reason": "SccWithoutSink", "violating": "1"},
        ],
    )
    def test_non_integer_instability_evidence_rejected(self, d):
        with pytest.raises(ValidationError):
            verdict_from_dict(d)

    @pytest.mark.parametrize(
        "d, field",
        [
            ({"tag": PROVED_STABLE}, "verdict"),
            ({"tag": UNKNOWN, "reason": "Exhausted", "oracle_stats": []}, "verdict.oracle_stats"),
            ({"tag": PROVED_STABLE, "reason": "ChainFound", "certificate": []}, "verdict.certificate"),
            ({"tag": 1, "reason": []}, "verdict.tag"),
            (
                {
                    "tag": PROVED_STABLE,
                    "reason": ORACLE_FOUND,
                    "oracle": {"matrix": [[0.0, 1.0], [2.0]]},
                    "oracle_stats": {"restarts": 1, "best_abscissa": -1.0},
                },
                "verdict.oracle.matrix",
            ),
        ],
        ids=[
            "no_reason",
            "oracle_stats_a_list",
            "certificate_a_list",
            "tag_and_reason_not_strings",
            "oracle_matrix_ragged",
        ],
    )
    def test_malformed_verdict_dict_raises_validation_error(self, d, field):
        # not a bare KeyError, TypeError or numpy's ValueError, and the
        # message names the field
        with pytest.raises(ValidationError, match=rf"^{re.escape(field)} "):
            verdict_from_dict(d)

    @pytest.mark.parametrize("case", ["prefix_cycles", "everything", "witness_ragged"])
    def test_malformed_certificate_dict_raises_validation_error(self, case):
        d = certificate_to_dict(synthesize_stable_witness(FIG2_RIGHT, seed=5))
        if case == "everything":
            d, field = [], "certificate"
        elif case == "witness_ragged":
            d["witness"], field = [[0.0, 1.0], [2.0]], "certificate.witness"
        else:
            del d[case]
            field = "certificate"
        with pytest.raises(ValidationError, match=rf"^{re.escape(field)} "):
            certificate_from_dict(d)

    def test_decoding_error_names_the_field_path(self):
        d = verdict_to_dict(classify(SparsityPattern.full(3)))
        d["certificate"]["prefix_cycles"][2][0][1] = 2.0
        with pytest.raises(ValidationError, match=r"verdict\.certificate\.prefix_cycles\[2\]\[0\]\[1\] "):
            verdict_from_dict(d)

    def test_malformed_raises(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=5)
        bad = WitnessCertificate(
            pattern=cert.pattern,
            ordering=cert.ordering,
            prefix_cycles=cert.prefix_cycles,
            witness=np.zeros((2, 2)),
            stabilizer=cert.stabilizer,
        )
        with pytest.raises(ValidationError):
            certificate_failures(bad)

    def test_verdict_level_verification(self):
        v = classify(FIG2_RIGHT, SMALL)
        assert verify_certificate(v)
        u = classify(FIG2_LEFT, SMALL)
        assert verify_certificate(u, FIG2_LEFT)
        with pytest.raises(ValidationError):
            verify_certificate(u)  # instability re-check needs the pattern

    def test_oracle_verification_needs_the_pattern(self):
        v = classify(GAP3, SMALL)
        assert v.reason == "OracleFound" and verify_certificate(v, GAP3)
        with pytest.raises(ValidationError, match="needs the pattern"):
            verify_certificate(v)

    @pytest.mark.parametrize(
        "reason,violating",
        [
            ("NoSink", {1, 2, 3, 4}),  # FIG3 has a self-loop at 5
            ("SccWithoutSink", {5}),
            ("SccWithoutSink", {1, 2, 3}),
            ("SccWithoutSink", None),
        ],
    )
    def test_sink_verdict_must_name_its_evidence(self, reason, violating):
        genuine = classify(FIG3, SMALL)
        assert verify_certificate(genuine, FIG3)
        forged = replace(genuine, reason=reason, violating=violating and frozenset(violating))
        assert not verify_certificate(forged, FIG3)

    @pytest.mark.parametrize(
        "pattern,reason",
        [
            *((SparsityPattern.full(3), reason) for reason in ("OracleFound", "NoSink", "Exhausted", 7)),
            (GAP3, "ChainFound"),  # an oracle matrix, not a certificate
            (GAP3, "Exhausted"),
            (GAP4_UNSTABLE, "ChainFound"),  # an Unknown says Exhausted
            (GAP4_UNSTABLE, "OracleFound"),
        ],
        ids=[
            "chain-as-OracleFound",
            "chain-as-NoSink",
            "chain-as-Exhausted",
            "chain-as-7",
            "oracle-as-ChainFound",
            "oracle-as-Exhausted",
            "unknown-as-ChainFound",
            "unknown-as-OracleFound",
        ],
    )
    def test_stable_verdict_must_name_its_evidence(self, pattern, reason):
        genuine = classify(pattern, SMALL)
        assert verify_certificate(genuine, pattern)
        assert not verify_certificate(replace(genuine, reason=reason), pattern)

    @pytest.mark.parametrize("k", [0, 4, "2"])
    def test_hamiltonian_size_out_of_range_fails(self, k):
        v = classify(FIG2_LEFT, SMALL)
        assert not verify_certificate(replace(v, k=k), FIG2_LEFT)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_hamiltonian_size_must_fail_in_a_block(self, k):
        # only the 5-block {2,..,6} misses a cover, and only of size 3;
        # 6, 7 and 8 exceed every block
        v = classify(GAP8_BLOCKWISE)
        assert verify_certificate(replace(v, k=k), GAP8_BLOCKWISE) == (k == 3)

    @pytest.mark.parametrize("k", [2, 3, 6, 7])
    def test_hamiltonian_size_beyond_every_block_fails(self, k):
        # the whole pattern has no cover of size 3, 6 or 7, but 6 and 7
        # exceed both blocks
        v = classify(TWO_LOOPED_CYCLES)
        assert (v.tag, v.reason, v.k) == ("ProvedUnstable", "NoHamiltonianK", 2)
        assert verify_certificate(replace(v, k=k), TWO_LOOPED_CYCLES) == (k in (2, 3))

    def test_block_without_its_full_cover(self):
        # the star {1,2,3} centred on a looped 1 covers sizes 1 and 2, not
        # 3; beside a looped 4 the whole pattern misses only size 4
        p = SparsityPattern.from_pairs(4, [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (3, 4), (4, 4)])
        v = classify(p)
        assert (v.tag, v.reason, v.k) == ("ProvedUnstable", "NoHamiltonianK", 3)
        assert verify_certificate(v, p)
        assert not verify_certificate(replace(v, k=4), p)

    def test_certificate_for_another_pattern_fails(self):
        v = classify(FIG2_RIGHT, SMALL)
        assert verify_certificate(v, FIG2_RIGHT)
        assert not verify_certificate(v, SparsityPattern.full(3))


def reference_oracle(p, config, seed, exits):
    """oracle_search as it ran before the descent stepped one matrix in
    place: every evaluation rebuilds the matrix from a coordinate vector.
    Appends how each restart ended to ``exits``: "found", "budget" (out of
    evaluations), "floor" (step below 1e-6) or "empty" (no free entry)."""
    positions = p.sorted_free()
    m = len(positions)
    n = p.n
    rng = random.Random(seed)
    tol = HURWITZ_TOLERANCE

    def build(x):
        M = np.zeros((n, n))
        for val, (i, j) in zip(x, positions):
            M[i - 1, j - 1] = val
        return M

    if m == 0:
        exits.append("empty")
        return OracleResult(None, 0, 0.0)

    best_abscissa = np.inf
    for restart in range(config.oracle_restarts):
        if restart == 0:
            x = np.array([-1.0 if i == j else 0.0 for (i, j) in positions])
        elif restart == 1:
            x = np.array(
                [-1.0 if i == j else rng.uniform(-0.3, 0.3) for (i, j) in positions]
            )
        else:
            x = np.array([rng.uniform(-1.0, 1.0) for _ in range(m)])
        current = float(np.max(np.linalg.eigvals(build(x)).real))
        evals = 1
        step = 0.35
        exit = "budget"
        while evals < config.oracle_steps:
            if current < -tol:
                break
            improved = False
            for coord in range(m):
                for delta in (step, -step):
                    if evals >= config.oracle_steps:
                        break
                    x[coord] += delta
                    cand = float(np.max(np.linalg.eigvals(build(x)).real))
                    evals += 1
                    if cand < current:
                        current = cand
                        improved = True
                        break
                    x[coord] -= delta
                else:
                    continue
                if current < -tol:
                    break
            if current < -tol:
                break
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    exit = "floor"
                    break
        exits.append("found" if current < -tol else exit)
        best_abscissa = min(best_abscissa, current)
        if current < -tol:
            M = build(x)
            abscissa = spectral_abscissa(M)
            if abscissa < -tol:
                return OracleResult(M, restart + 1, abscissa)
    return OracleResult(None, config.oracle_restarts, float(best_abscissa))


def assert_same_result(got, want):
    """Bitwise equality of two oracle results."""
    assert (got.found, got.restarts_used) == (want.found, want.restarts_used)
    assert float(got.best_abscissa).hex() == float(want.best_abscissa).hex()
    if want.found:
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()


def seeded_patterns(count: int, seed: int) -> list[SparsityPattern]:
    """``count`` random patterns at n = 4..6, each entry free with a drawn density."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((4, 5, 6))
        density = rng.uniform(0.15, 0.6)
        out.append(
            SparsityPattern.from_pairs(
                n,
                [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density],
            )
        )
    return out


ORACLE_CORPUS = [key_to_pattern(n, key) for n in (1, 2, 3) for key in range(2 ** (n * n))]
ORACLE_CORPUS += seeded_patterns(90, seed=5)


class TestOracleMatchesReference:
    def test_bitwise_equal(self):
        """Whole results agree on every pattern with n <= 3 and on seeded
        patterns at n = 4..6, under budgets that end restarts each way."""
        exits = []
        finds_at = []
        budget_misses = 0
        for restarts, steps in ((8, 8), (3, 50)):
            config = EngineConfig(oracle_restarts=restarts, oracle_steps=steps)
            for index, p in enumerate(ORACLE_CORPUS):
                before = len(exits)
                want = reference_oracle(p, config, index, exits)
                assert_same_result(oracle_search(p, config, seed=index), want)
                if want.found:
                    finds_at.append(want.restarts_used)
                elif "budget" in exits[before:]:
                    budget_misses += 1
        # the corpus ends restarts every way (counts at writing: 142, 319,
        # 10, 747, 42 and 8)
        assert finds_at.count(1) >= 100
        assert finds_at.count(2) >= 200
        assert sum(r >= 3 for r in finds_at) >= 8
        assert budget_misses >= 500
        assert exits.count("floor") >= 30
        assert exits.count("empty") >= 6

    def test_first_start_alone(self, monkeypatch):
        """Restart 0 alone at the default budget, on every corpus pattern,
        against the reference's whole descent: a full free diagonal starts
        at -I and is found at once, any other start never leaves abscissa 0.
        The descent evaluates the start once, and a find is not evaluated
        again."""
        config = EngineConfig(oracle_restarts=1, oracle_steps=400)
        geev = numerics._geev
        calls = []
        monkeypatch.setattr(numerics, "_geev", lambda a, **kw: calls.append(1) or geev(a, **kw))
        exits = []
        for index, p in enumerate(ORACLE_CORPUS):
            want = reference_oracle(p, config, index, exits)
            calls.clear()
            got = oracle_search(p, config, seed=index)
            assert_same_result(got, want)
            assert len(calls) == (1 if p.free else 0)
        # counts at writing: 71 found, 513 floor, 32 budget, 4 empty
        assert exits.count("found") >= 60 and exits.count("floor") >= 400
        assert exits.count("budget") >= 20 and exits.count("empty") >= 3

    def test_stacks_are_finite(self, monkeypatch):
        """The kernel's precondition holds: every stack the search passes it
        is finite, with entries within 1 + 0.35 * oracle_steps of zero."""
        config = EngineConfig(oracle_restarts=3, oracle_steps=50)
        geev = numerics._geev
        largest = []

        def checked(stack, signature):
            assert np.isfinite(stack).all()
            largest.append(np.abs(stack).max())
            return geev(stack, signature=signature)

        monkeypatch.setattr(numerics, "_geev", checked)
        for index, p in enumerate(ORACLE_CORPUS):
            oracle_search(p, config, seed=index)
        assert largest and max(largest) <= 1 + 0.35 * config.oracle_steps


# decide-small's heaviest oracle target: 26 restarts, 10 391 evaluations
HEAVY8_KEY = 72691543438696492


class TestStackedDescent:
    """The descent evaluates both directions of a coordinate step in one
    (2, n, n) call and must still walk the reference's search path."""

    def test_budget_ends_after_the_plus_half(self):
        """With two evaluations a restart ends right after the +step half of
        its first pair: a rejected +step is restored, and its -step value
        is never counted."""
        config = EngineConfig(oracle_restarts=4, oracle_steps=2)
        exits = []
        for index, p in enumerate(ORACLE_CORPUS):
            want = reference_oracle(p, config, index, exits)
            assert_same_result(oracle_search(p, config, seed=index), want)
        # counts at writing: 1922 budget, 165 found
        assert exits.count("budget") >= 1500 and exits.count("found") >= 100

    def test_heaviest_decide_small_target(self):
        p = key_to_pattern(8, HEAVY8_KEY)
        seed = derive_seed(0, 8, HEAVY8_KEY, "oracle")
        want = reference_oracle(p, EngineConfig(), seed, [])
        assert want.found and want.restarts_used == 26
        assert_same_result(oracle_search(p, EngineConfig(), seed), want)

    @pytest.mark.parametrize(
        "p, config",
        [
            (GAP3, SMALL),
            (GAP4_UNSTABLE, SMALL),
            (FIG2_RIGHT, SMALL),
            (key_to_pattern(8, HEAVY8_KEY), EngineConfig(oracle_restarts=6)),
        ],
    )
    def test_one_call_per_step_pair(self, monkeypatch, p, config):
        """Each restart's start is one (1, n, n) call and every later call
        one (2, n, n) stack, so the calls are fewer than the matrices that
        the one-matrix-per-call reference evaluates.  The reference runs
        restart 0 to the end of its descent, where the search stops it after
        its start, so its calls there count as one evaluation.  The
        reference calls np.linalg.eigvals, and the search and the
        reference's final spectral_abscissa call the kernel."""
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
        geev = numerics._geev
        monkeypatch.setattr(numerics, "_geev", lambda a, **kw: shapes.append(np.shape(a)) or geev(a, **kw))

        class CallsAtRestartEnd(list):
            def append(self, how):
                super().append(len(shapes))

        ends = CallsAtRestartEnd()
        want = reference_oracle(p, config, 0, ends)
        # the reference evaluates a find once more, after its restart ends
        evaluated = len(shapes) - want.found - (ends[0] - 1)
        shapes.clear()
        got = oracle_search(p, config, seed=0)
        assert_same_result(got, want)
        n = p.n
        starts = shapes.count((1, n, n))
        pairs = shapes.count((2, n, n))
        assert shapes[0] == (1, n, n) and starts + pairs == len(shapes)
        assert starts == got.restarts_used
        assert pairs <= evaluated - starts <= 2 * pairs
        assert len(shapes) < evaluated
