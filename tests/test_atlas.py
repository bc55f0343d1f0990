import collections
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from sparsestab import (
    CapabilityError,
    SparsityPattern,
    ValidationError,
    canonical_form,
    classify,
    classify_atlas,
    enumerate_patterns,
    load_atlas,
    query_atlas,
    validate_structure_theorem,
    verify_certificate,
)
import sparsestab.atlas as atlas_module
import sparsestab.jsonio as jsonio_module
import sparsestab.patterns as patterns_module
import sparsestab.verdict as verdict_module
from sparsestab.atlas import config_hash
from sparsestab.cli import dispatch
from sparsestab.jsonio import verdict_from_dict, verdict_to_dict
from sparsestab.patterns import _orbit_keys, key_orbit, key_to_pattern, pattern_to_key
from sparsestab.verdict import (
    CHAIN_FOUND,
    INHERITED,
    ORACLE_FOUND,
    PROVED_STABLE,
    PROVED_UNSTABLE,
    EngineConfig,
    Reference,
    StabilityVerdict,
)
from sparsestab.witness import WitnessCertificate


class TestEnumerate:
    def test_n1_two_patterns(self):
        reps = list(enumerate_patterns(1))
        assert len(reps) == 2
        assert {p.free for p, _ in reps} == {frozenset(), frozenset({(1, 1)})}

    def test_n2_orbit_sizes_cover_raw_count(self):
        reps = list(enumerate_patterns(2))
        assert sum(size for _, size in reps) == 16

    def test_n3_covers_512(self):
        reps = list(enumerate_patterns(3))
        assert sum(size for _, size in reps) == 512

    def test_representatives_are_canonical_and_distinct(self):
        reps = list(enumerate_patterns(3))
        keys = [pattern_to_key(p) for p, _ in reps]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for p, size in reps[:20]:
            info = canonical_form(p)
            assert info.canonical == p and info.orbit_size == size

    def test_filter_applies(self):
        reps = list(enumerate_patterns(2, filter=lambda p: p.dimension == 2))
        assert all(p.dimension == 2 for p, _ in reps)
        assert reps

    def test_n5_unfiltered_rejected(self):
        with pytest.raises(CapabilityError):
            list(enumerate_patterns(5))

    def test_n6_rejected(self):
        with pytest.raises(CapabilityError):
            list(enumerate_patterns(6))


class TestOrbitTable:
    @pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 97)])
    def test_min_and_argmin_of_orbit_keys(self, n, stride):
        # the table keeps the minimum only; no build reads the argmin
        table = atlas_module._orbit_table(n)
        for raw in range(0, 1 << (n * n), stride):
            assert table.canon[raw] == _orbit_keys(n, raw).min(), raw

    @pytest.mark.parametrize("n, count", [(1, 2), (2, 9), (3, 74), (4, 1740)])
    def test_representatives_cover_every_key(self, n, count):
        table = atlas_module._orbit_table(n)
        assert len(table.reps) == count
        assert sum(size for _, size in table.reps) == 1 << (n * n)
        assert [key for key, _ in table.reps] == sorted(set(table.canon))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_children_have_lower_canonical_keys(self, n):
        # the build decides in key order, so each child must come first
        table = atlas_module._orbit_table(n)
        for key, _ in table.reps:
            for b in range(n * n):
                if key >> b & 1:
                    assert table.canon[key ^ 1 << b] < key, (key, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_diagonal_is_its_own_orbit(self, n):
        # validate_structure_theorem looks its record up by its own key,
        # without an orbit lookup
        free = SparsityPattern.full(n).free - SparsityPattern.diagonal(n).free
        key = pattern_to_key(SparsityPattern(n, free))
        assert key_orbit(n, key) == {key}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_table_per_size(self, n):
        # memoised, so every caller shares one table, which none can change
        table = atlas_module._orbit_table(n)
        assert atlas_module._orbit_table(n) is table
        assert all(type(column) is tuple for column in table)
        assert atlas_module._orbit_table.cache_info().maxsize == atlas_module.FULL_ENUMERATION_CAP
        atlas_module._orbit_table.cache_clear()
        assert atlas_module._orbit_table(n) == table

    def test_n3_build_decodes_each_representative_once(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(atlas_module, name, wrapper)

        counting("key_to_pattern", atlas_module.key_to_pattern)
        counting("_orbit_table", atlas_module._orbit_table)
        classify_atlas(3)
        assert calls == {"key_to_pattern": 74, "_orbit_table": 1}

    def test_n3_load_and_validate_compute_each_key_once(self, tmp_path, monkeypatch):
        # one key per record, found as its pattern is decoded, and the
        # zero-diagonal pattern's: a record keeps its key, and a
        # reference's child is found from it
        path = tmp_path / "n3.jsonl"
        classify_atlas(3, path=path)
        calls = []
        decoded = []

        def counting(p):
            calls.append(p)
            return pattern_to_key(p)

        def decoding(d):
            decoded.append(d)
            return decode(d)

        decode = jsonio_module._decode_json_pattern
        monkeypatch.setattr(atlas_module, "pattern_to_key", counting)
        monkeypatch.setattr(jsonio_module, "_decode_json_pattern", decoding)
        _, records = load_atlas(path)
        validate_structure_theorem(records, 3)
        references = sum(is_inherited(r) for r in records)
        assert (len(records), references) == (74, 25)
        assert (len(decoded), len(calls)) == (len(records), 1)


class TestClassifyAtlas:
    def test_n2_stable_set(self, atlas2):
        stable_raw = sum(r.orbit_size for r in atlas2 if r.verdict.tag == PROVED_STABLE)
        assert stable_raw == 6

    def test_n2_zero_diagonal_is_maximal(self, atlas2):
        p = SparsityPattern.from_pairs(2, [(1, 2), (2, 1)])
        key = min(key_orbit(2, pattern_to_key(p)))
        rec = next(r for r in atlas2 if r.key == key)
        assert rec.verdict.tag == PROVED_UNSTABLE and rec.maximal_unstable

    def test_n3_diagonal_is_minimal_stable(self, atlas3):
        key = min(key_orbit(3, pattern_to_key(SparsityPattern.diagonal(3))))
        rec = next(r for r in atlas3 if r.key == key)
        assert rec.verdict.tag == PROVED_STABLE
        assert rec.minimal_stable and rec.dimension == 3

    def test_monotone_over_full_hasse_diagram(self, atlas3):
        # no stable pattern below an unstable one, checked on all raw edges
        tag_of_key = {r.key: r.verdict.tag for r in atlas3}

        def tag(raw):
            return tag_of_key[min(key_orbit(3, raw))]

        for raw in range(1 << 9):
            if tag(raw) != PROVED_STABLE:
                continue
            for b in range(9):
                if not raw >> b & 1:
                    assert tag(raw | (1 << b)) != PROVED_UNSTABLE

    def test_instability_closed_under_removing_entries(self, atlas2, atlas3, atlas4_timed):
        # a Hurwitz matrix on a pattern lies in every superset's space, so
        # no pattern one entry below an unstable or Unknown one is stable
        for records, n in ((atlas2, 2), (atlas3, 3), (atlas4_timed[0], 4)):
            tag_of_key = {r.key: r.verdict.tag for r in records}
            checked = 0
            for rec in records:
                if rec.verdict.tag == PROVED_STABLE:
                    continue
                for entry in rec.pattern.free:
                    below = pattern_to_key(SparsityPattern(n, rec.pattern.free - {entry}))
                    assert tag_of_key[min(key_orbit(n, below))] != PROVED_STABLE, (rec.key, entry)
                    checked += 1
            assert checked > 0

    def test_orbit_members_share_verdict_tag(self, atlas3):
        rng = random.Random(67)
        cfg = EngineConfig(oracle_restarts=8, oracle_steps=120)
        for rec in rng.sample(atlas3, 12):
            orbit = sorted(key_orbit(3, rec.key))
            for raw in rng.sample(orbit, min(3, len(orbit))):
                assert classify(key_to_pattern(3, raw), cfg).tag == rec.verdict.tag

    def test_records_match_fresh_classification(self, atlas2, atlas3):
        # a reference keeps the tag that classify gives, and every other
        # record its (tag, reason)
        for records in (classify_atlas(1), atlas2, atlas3):
            for rec in records:
                v = classify(rec.pattern)
                assert v.tag == rec.verdict.tag, rec.key
                if not is_inherited(rec):
                    assert (v.tag, v.reason) == (rec.verdict.tag, rec.verdict.reason), rec.key

    def test_n4_records_verify(self, atlas4_timed):
        records = atlas4_timed[0]
        assert all(verify_certificate(rec.verdict, rec.pattern) for rec in records)
        # the stable records with a stable child are references; the
        # minimally stable ones hold the 36 proofs
        reasons = collections.Counter((rec.verdict.tag, rec.verdict.reason) for rec in records)
        assert reasons == {
            (PROVED_STABLE, INHERITED): 847,
            (PROVED_STABLE, CHAIN_FOUND): 20,
            (PROVED_STABLE, ORACLE_FOUND): 16,
            (PROVED_UNSTABLE, "NoHamiltonianK"): 56,
            (PROVED_UNSTABLE, "NoSink"): 144,
            (PROVED_UNSTABLE, "SccWithoutSink"): 655,
            ("Unknown", "Exhausted"): 2,
        }
        by_key = {rec.key: rec for rec in records}
        for rec in filter(is_inherited, records):
            child = canonical_form(SparsityPattern(4, rec.pattern.free - {rec.verdict.evidence.entry}))
            assert rec.verdict.evidence.child is by_key[pattern_to_key(child.canonical)].verdict
        # an Unknown is recorded at the budget its header states, the caller's
        unknown = [rec for rec in records if rec.verdict.tag == "Unknown"]
        assert [verdict_to_dict(rec.verdict) for rec in unknown] == [
            verdict_to_dict(classify(rec.pattern, EngineConfig(), 0)) for rec in unknown
        ]


def is_inherited(rec) -> bool:
    return rec.verdict.reason == INHERITED


def reference(entry, child) -> StabilityVerdict:
    return StabilityVerdict(INHERITED, Reference(entry, child))


def leaf(verdict) -> StabilityVerdict:
    """The proof a chain of references reaches."""
    while verdict.reason == INHERITED:
        verdict = verdict.evidence.child
    return verdict


def write_records(path, n, request, fixture):
    """The records of a shared atlas fixture, written as classify_atlas
    writes them."""
    records = request.getfixturevalue(fixture)
    records = records[0] if fixture == "atlas4_timed" else records
    lines = [atlas_module._header(n, 0, EngineConfig())]
    lines += [atlas_module._record_to_dict(rec) for rec in records]
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))
    return path


# GAP3 has no nested chain, and the oracle proves it stable.  At n = 3 every
# pattern with one more entry has a chain, so only n = 4 atlases refer to
# OracleFound records, and the tests below refer to GAP3's by hand.
GAP3 = SparsityPattern.from_pairs(3, [(1, 3), (2, 1), (2, 2), (3, 1), (3, 2)])


class TestInheritance:
    """A stable representative with a stable child (one entry removed)
    refers to that child's verdict instead of being classified."""

    def test_inherited_records_name_the_removed_entry(self, atlas3):
        by_key = {rec.key: rec for rec in atlas3}
        inherited = [rec for rec in atlas3 if is_inherited(rec)]
        assert len(inherited) == 25
        for rec in inherited:
            v = rec.verdict
            assert not rec.minimal_stable and v.evidence.entry in rec.pattern.free
            assert type(v.evidence) is Reference and v.diagnostics == ()
            child = canonical_form(SparsityPattern(3, rec.pattern.free - {v.evidence.entry})).canonical
            assert v.evidence.child is by_key[pattern_to_key(child)].verdict
            assert verify_certificate(v, rec.pattern)

    def test_references_to_transposed_and_relabeled_children_verify(self, atlas3, atlas4_timed):
        # references whose child is a transposed image of its
        # representative, and ones whose child is relabeled, both verify
        transposed, relabeled = set(), set()
        for records, n in ((atlas3, 3), (atlas4_timed[0], 4)):
            for rec in filter(is_inherited, records):
                info = canonical_form(SparsityPattern(n, rec.pattern.free - {rec.verdict.evidence.entry}))
                assert verify_certificate(rec.verdict, rec.pattern), rec.key
                if info.transposed:
                    transposed.add((n, rec.key))
                if list(info.relabeling.mapping) != sorted(info.relabeling.mapping):
                    relabeled.add((n, rec.key))
        assert transposed and relabeled

    def test_failed_leaf_hurwitz_test_fails_every_reference(self, atlas3, monkeypatch):
        # a reference is checked down to the float Hurwitz test of the
        # proof it reaches, so that test failing fails every reference
        monkeypatch.setattr(verdict_module, "is_hurwitz", lambda abscissa: False)
        inherited = [rec for rec in atlas3 if is_inherited(rec)]
        assert len(inherited) == 25
        for rec in inherited:
            assert not verify_certificate(rec.verdict, rec.pattern), rec.key

    def test_reference_to_each_image_of_an_oracle_proof_verifies(self):
        # every image of GAP3 under relabeling and transpose, as a child of
        # each pattern with one more entry: a reference to GAP3's own
        # verdict verifies on each parent
        n = 3
        assert canonical_form(GAP3).canonical == GAP3
        child = classify(GAP3)
        assert child.reason == ORACLE_FOUND
        images = set()
        for perm in itertools.permutations(range(1, n + 1)):
            for transposed in (False, True):
                raw_child = SparsityPattern(
                    n,
                    frozenset(
                        (perm[j - 1], perm[i - 1]) if transposed else (perm[i - 1], perm[j - 1])
                        for i, j in GAP3.free
                    ),
                )
                raw = pattern_to_key(raw_child)
                images.add(raw)
                for entry in sorted(set(SparsityPattern.full(n).free) - raw_child.free):
                    parent = SparsityPattern(n, raw_child.free | {entry})
                    assert verify_certificate(reference(entry, child), parent), (perm, transposed, entry)
        assert len(images) == 6

    def test_failed_oracle_hurwitz_test_fails_the_reference(self, monkeypatch):
        # the reference verifies until the oracle matrix's Hurwitz test fails
        parent = SparsityPattern(3, GAP3.free | {(1, 1)})
        v = reference((1, 1), classify(GAP3))
        assert verify_certificate(v, parent)
        monkeypatch.setattr(verdict_module, "is_hurwitz", lambda abscissa: False)
        assert not verify_certificate(v, parent)

    def test_proofs_sit_on_the_boundary(self, atlas2, atlas3, atlas4_timed):
        # a stable record refers to a child exactly when it is not minimally
        # stable, and every minimally stable one holds its own proof
        for records in (atlas2, atlas3, atlas4_timed[0]):
            stable = [rec for rec in records if rec.verdict.tag == PROVED_STABLE]
            assert any(map(is_inherited, stable))
            for rec in stable:
                assert is_inherited(rec) == (not rec.minimal_stable), rec.key
                if rec.minimal_stable:
                    assert rec.verdict.reason in (CHAIN_FOUND, ORACLE_FOUND), rec.key

    def test_unlinked_reference_cannot_be_verified(self, atlas3_path):
        # query_atlas and verdict_from_dict decode a reference without its
        # child, so it names no evidence to check
        records = query_atlas(atlas3_path, {"verdict": "stable", "minimal_stable": False})
        assert len(records) == 25 and all(rec.verdict.evidence.child is None for rec in records)
        for rec in records:
            with pytest.raises(ValidationError, match="no child"):
                verify_certificate(rec.verdict, rec.pattern)
            decoded = verdict_from_dict(verdict_to_dict(rec.verdict))
            assert decoded == rec.verdict
            with pytest.raises(ValidationError, match="no child"):
                verify_certificate(decoded, rec.pattern)

    @pytest.mark.parametrize("fixture, n", [("atlas2", 2), ("atlas3", 3), ("atlas4_timed", 4)])
    def test_load_links_each_reference_to_its_child_record(self, tmp_path, request, fixture, n):
        _, loaded = load_atlas(write_records(tmp_path / "atlas.jsonl", n, request, fixture))
        by_key = {rec.key: rec for rec in loaded}
        references = [rec for rec in loaded if is_inherited(rec)]
        assert references
        for rec in references:
            child = canonical_form(SparsityPattern(n, rec.pattern.free - {rec.verdict.evidence.entry}))
            assert rec.verdict.evidence.child is by_key[pattern_to_key(child.canonical)].verdict, rec.key

    def test_verify_records_verifies_each_proof_once(self, tmp_path, request, monkeypatch):
        # the 847 references reach the 20 chain proofs through chains of
        # references; each (verdict, pattern) pair is verified once
        _, loaded = load_atlas(write_records(tmp_path / "n4.jsonl", 4, request, "atlas4_timed"))
        calls = collections.Counter()

        def counting(name):
            fn = getattr(verdict_module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(verdict_module, name, wrapper)

        counting("certificate_failures")
        counting("canonical_form")
        assert atlas_module.verify_records(loaded, 4) == []
        assert calls == {"certificate_failures": 20, "canonical_form": 847}
        # a lone verify_certificate still verifies a reference to a
        # reference down to its proof
        calls.clear()
        rec = next(
            rec for rec in loaded
            if is_inherited(rec)
            and rec.verdict.evidence.child.reason == INHERITED
            and type(leaf(rec.verdict).evidence) is WitnessCertificate
        )
        assert verify_certificate(rec.verdict, rec.pattern)
        assert calls["certificate_failures"] == 1 and calls["canonical_form"] >= 2

    def test_verify_records_fails_every_record_a_failed_proof_reaches(self, atlas3, monkeypatch):
        # read from the memo, a failed proof still fails every reference
        monkeypatch.setattr(verdict_module, "is_hurwitz", lambda abscissa: False)
        failing = atlas_module.verify_records(atlas3, 3)
        assert failing == [rec.key for rec in atlas3 if rec.verdict.tag == PROVED_STABLE]

    def test_verify_records_reads_a_result_on_its_own_pattern(self, atlas3):
        # a reference moved to a key of its orbit where its entry is not
        # free fails there, yet the references reaching it verify it on its
        # canonical pattern, so they pass
        referred = {id(rec.verdict.evidence.child) for rec in atlas3 if is_inherited(rec)}
        rec = next(r for r in atlas3 if is_inherited(r) and id(r.verdict) in referred)
        moved = next(
            key for key in sorted(key_orbit(3, rec.key))
            if rec.verdict.evidence.entry not in key_to_pattern(3, key).free
        )
        records = [
            dataclasses.replace(r, pattern=key_to_pattern(3, moved)) if r is rec else r
            for r in atlas3
        ]
        assert atlas_module.verify_records(records, 3) == [moved]

    def test_builds_leave_no_reference_cycles(self):
        # a cycle keeps a build's memo, or a chain search's 2^|B| table,
        # alive until the cyclic collector runs
        classify_atlas(2)
        gc.collect()
        gc.disable()
        try:
            classify_atlas(3)
            assert gc.collect() == 0
            assert classify(SparsityPattern.full(4)).reason == CHAIN_FOUND
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "n2.jsonl"
        records = classify_atlas(2, path=path)
        header, loaded = load_atlas(path)
        assert header["n"] == 2 and header["tool_version"]
        assert [r.key for r in loaded] == [r.key for r in records]
        assert [r.verdict.tag for r in loaded] == [r.verdict.tag for r in records]
        assert [r.minimal_stable for r in loaded] == [r.minimal_stable for r in records]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loaded_records_keep_their_evidence(self, tmp_path, n):
        path = tmp_path / f"n{n}.jsonl"
        records = classify_atlas(n, path=path)
        lines = path.read_text().splitlines()[1:]
        _, loaded = load_atlas(path)
        assert len(loaded) == len(records) == len(lines)
        for rec, line in zip(loaded, lines):
            stored = json.loads(line)
            assert verdict_to_dict(rec.verdict, rec.pattern) == stored["verdict"]
            assert json.dumps(atlas_module._record_to_dict(rec), sort_keys=True) == line
            assert verify_certificate(rec.verdict, rec.pattern)
        assert any(type(rec.verdict.evidence) is WitnessCertificate for rec in loaded)

    @pytest.mark.parametrize(
        "n, size, digest",
        [
            pytest.param(
                2, 2044, "fa740c27f174a453b3f5c9ec2a3e51c50d747a8cb9f04ad1dc418c8fe0e33651", id="2"
            ),
            pytest.param(
                3, 16608, "4aedd9e74733415c1549718e7bc50416261ef798d0e1f483550b56586e94d704", id="3"
            ),
            pytest.param(
                4, 416838, "f5dca0fac950e03b2ad3ba4c375301d30be65616247682c9190d5c5358afb818", id="4"
            ),
        ],
    )
    def test_file_bytes_pinned(self, tmp_path, request, n, size, digest):
        # any change to a verdict, a certificate float or the record layout
        # changes these; a change that means to must re-pin them
        if n == 4:
            # the shared atlas4_timed build, encoded as classify_atlas writes it
            records, _ = request.getfixturevalue("atlas4_timed")
            header = atlas_module._header(4, 0, EngineConfig())
            lines = [header] + [atlas_module._record_to_dict(rec) for rec in records]
            data = "".join(json.dumps(d, sort_keys=True) + "\n" for d in lines).encode()
        else:
            path = tmp_path / f"n{n}.jsonl"
            classify_atlas(n, path=path)
            data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        classify_atlas(2, path=a, seed=3)
        classify_atlas(2, path=b, seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_replaced_by_fresh_build(self, tmp_path):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        classify_atlas(2, path=full)
        lines = full.read_text().splitlines(keepends=True)
        part.write_text("".join(lines[:4]))  # header + 3 records
        classify_atlas(2, path=part)
        assert part.read_bytes() == full.read_bytes()

    def test_file_with_torn_line_replaced_by_fresh_build(self, tmp_path):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        classify_atlas(2, path=full)
        lines = full.read_bytes().splitlines(keepends=True)
        part.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        with pytest.raises(ValidationError):
            load_atlas(part)
        classify_atlas(2, path=part)
        assert part.read_bytes() == full.read_bytes()

    def test_file_of_other_parameters_replaced_by_fresh_build(self, tmp_path):
        # a file built with other parameters is not reused: the re-run
        # replaces it with a fresh build's bytes
        path, fresh = tmp_path / "n2.jsonl", tmp_path / "fresh.jsonl"
        classify_atlas(2, path=path, seed=0)
        classify_atlas(2, path=path, seed=1)
        classify_atlas(2, path=fresh, seed=1)
        assert path.read_bytes() == fresh.read_bytes()
        assert load_atlas(path)[0]["seed"] == 1

    def test_config_hash_depends_on_fields(self):
        assert config_hash(EngineConfig()) != config_hash(EngineConfig(oracle_restarts=2))

    def test_one_classification_per_representative(self, monkeypatch):
        # once for each representative without a stable child, never for
        # one that refers to its child
        calls = []

        def counting(p, config, seed):
            calls.append((pattern_to_key(p), config.oracle_restarts))
            return classify(p, config, seed)

        monkeypatch.setattr(atlas_module, "classify", counting)
        records = classify_atlas(3)
        assert sorted(key for key, _ in calls) == [r.key for r in records if not is_inherited(r)]
        assert len(calls) == 49
        assert {restarts for _, restarts in calls} == {EngineConfig().oracle_restarts}

    @pytest.mark.parametrize("n, count", [(3, 49), (4, 893)])
    def test_classifications_run_in_key_order(self, monkeypatch, n, count):
        calls = []

        def counting(p, config, seed):
            calls.append(pattern_to_key(p))
            return classify(p, config, seed)

        monkeypatch.setattr(atlas_module, "classify", counting)
        classify_atlas(n)
        assert len(calls) == count
        assert calls == sorted(calls)

    def test_partial_file_classified_as_a_fresh_build(self, tmp_path, monkeypatch):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        records = classify_atlas(3, path=full)
        part.write_text("".join(full.read_text().splitlines(keepends=True)[:21]))
        calls = []

        def counting(p, config, seed):
            calls.append(pattern_to_key(p))
            return classify(p, config, seed)

        monkeypatch.setattr(atlas_module, "classify", counting)
        classify_atlas(3, path=part)
        # the file's records are not reused: the same 49 calls as a fresh build
        assert sorted(calls) == [r.key for r in records if not is_inherited(r)]
        assert len(calls) == 49
        assert part.read_bytes() == full.read_bytes()

    def test_file_cut_at_every_line_replaced_by_fresh_build(self, tmp_path):
        # classify never reads the file, so whatever prefix of a full build
        # the path holds, it is replaced with the full build's bytes
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        classify_atlas(3, path=full)
        data = full.read_bytes()
        lines = data.splitlines(keepends=True)
        assert len(lines) == 75
        for k in range(1, len(lines) + 1):
            part.write_bytes(b"".join(lines[:k]))
            classify_atlas(3, path=part)
            assert part.read_bytes() == data, k

    def test_stale_oracle_stats_are_rebuilt(self, tmp_path):
        # a record whose header matches but whose evidence a fresh build
        # would not write (here an older budget's restarts) is not kept
        path = tmp_path / "n3.jsonl"
        classify_atlas(3, path=path)
        data = path.read_bytes()
        header, *lines = data.decode().splitlines()
        at = next(i for i, line in enumerate(lines) if '"OracleFound"' in line)
        rec = json.loads(lines[at])
        rec["verdict"]["oracle_stats"]["restarts"] *= 10
        lines[at] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join([header, *lines]) + "\n")
        assert path.read_bytes() != data
        classify_atlas(3, path=path)
        assert path.read_bytes() == data

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "n2.jsonl"
        classify_atlas(2, path=path)
        data = path.read_bytes()

        def failing(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(atlas_module.os, "replace", failing)
        with pytest.raises(OSError, match="replace failed"):
            classify_atlas(2, path=path, seed=1)
        assert path.read_bytes() == data
        assert [f.name for f in tmp_path.iterdir()] == ["n2.jsonl"]

    def test_build_never_reads_the_file(self, tmp_path, monkeypatch):
        path, fresh = tmp_path / "n2.jsonl", tmp_path / "fresh.jsonl"
        classify_atlas(2, path=path)
        classify_atlas(2, path=fresh)

        def failing(*args, **kwargs):
            raise AssertionError("the build read the atlas file")

        monkeypatch.setattr(atlas_module, "_read_atlas", failing)
        classify_atlas(2, path=path)
        assert path.read_bytes() == fresh.read_bytes()

    def test_header_is_checked(self, tmp_path):
        full = tmp_path / "full.jsonl"
        classify_atlas(2, path=full)
        header, *rest = full.read_text().splitlines(keepends=True)
        good = json.loads(header)
        for bad in (
            "not a header",
            [],
            {**good, "n": True},
            {**good, "n": 2.0},
            {**good, "seed": "0"},
            {**good, "tool_version": 5},
            {k: v for k, v in good.items() if k != "config_hash"},
            {**good, "n": 0},
            {**good, "n": 5},
            {**good, "n": 3},  # over the n=2 records
        ):
            path = tmp_path / "bad.jsonl"
            path.write_text(json.dumps(bad) + "\n" + "".join(rest))
            with pytest.raises(ValidationError, match="header"):
                load_atlas(path)
            with pytest.raises(ValidationError, match="header"):
                query_atlas(path, {})
        # the header's n is checked even when no record is decoded
        for n in (0, 5):
            path.write_text(json.dumps({**good, "n": n}) + "\n" + "".join(rest))
            with pytest.raises(ValidationError, match="header n="):
                query_atlas(path, {"min_dim": 5})

    @pytest.mark.parametrize("n", [-1, 0, 5])
    def test_size_outside_enumeration_rejected(self, n):
        with pytest.raises(CapabilityError):
            classify_atlas(n)
        with pytest.raises(CapabilityError):
            list(enumerate_patterns(n))
        with pytest.raises(CapabilityError):
            enumerate_patterns(n)  # at the call, not at the first next()

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_size_that_is_not_an_int_rejected(self, n):
        with pytest.raises(ValueError, match="must be an int"):
            classify_atlas(n)
        with pytest.raises(ValueError, match="must be an int"):
            list(enumerate_patterns(n))
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_patterns(n)


def read_with(reader, path):
    """What ``reader`` makes of the atlas file at ``path``: the keys of the
    records that load_atlas or an empty query_atlas returns, or the exit
    code and output of ``atlas validate -n 2``."""
    if reader == "load":
        return [rec.key for rec in load_atlas(path)[1]]
    if reader == "query":
        return [rec.key for rec in query_atlas(path, {})]
    out = io.StringIO()
    return dispatch(["atlas", "validate", "-n", "2", "--atlas", str(path)], out=out), out.getvalue()


READERS = ["load", "query", "validate"]


class TestLines:
    """Which lines an atlas file may hold, for load_atlas, query_atlas and
    atlas validate alike: one json value per line, json whitespace around
    it, and blank lines anywhere."""

    @pytest.fixture(scope="class")
    def n2(self, tmp_path_factory):
        """The n=2 file's lines, and what each reader makes of the file."""
        path = tmp_path_factory.mktemp("atlas") / "n2.jsonl"
        classify_atlas(2, path=path)
        return path.read_text().split("\n")[:-1], {r: read_with(r, path) for r in READERS}

    def assert_rejected(self, reader, path):
        if reader == "validate":
            assert read_with(reader, path) == (12, "")
        else:
            with pytest.raises(ValidationError, match="malformed atlas file"):
                read_with(reader, path)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("glue", ["", " ", "\t"])
    def test_two_values_on_one_line_rejected(self, tmp_path, n2, reader, at, glue):
        lines, _ = n2
        lines = list(lines)
        lines[at : at + 2] = [lines[at] + glue + lines[at + 1]]
        path = tmp_path / "two.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.assert_rejected(reader, path)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("at", [0, 3])
    def test_value_split_across_two_lines_rejected(self, tmp_path, n2, reader, at):
        lines, _ = n2
        lines = list(lines)
        lines[at] = lines[at].replace(", ", ",\n", 1)
        path = tmp_path / "split.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.assert_rejected(reader, path)

    @pytest.mark.parametrize("reader", READERS)
    def test_blank_lines_skipped(self, tmp_path, n2, reader):
        lines, expected = n2
        blank = ["", " ", "\t \t", "\f", "\u2028"]  # str.strip() leaves nothing of each
        spaced = [x for i, line in enumerate(lines) for x in (blank[i % len(blank)], line)]
        path = tmp_path / "blank.jsonl"
        path.write_text("\n".join(spaced + blank) + "\n")
        assert read_with(reader, path) == expected[reader]

    @pytest.mark.parametrize("reader", READERS)
    def test_crlf_and_trailing_spaces_accepted(self, tmp_path, n2, reader):
        lines, expected = n2
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("".join(f"{line}  \t\r\n" for line in lines).encode())
        assert read_with(reader, path) == expected[reader]

    @pytest.mark.parametrize("reader", READERS)
    def test_raw_line_separators_inside_a_string_read(self, tmp_path, n2, reader):
        # json lets U+2028, U+2029 and U+0085 stand raw in a string, and
        # json.dumps writes them so with ensure_ascii=False; only "\n" ends
        # a line
        lines, expected = n2
        note = "a\u2028b\u2029c\x85d"
        rec = json.loads(lines[1])
        rec["verdict"]["diagnostics"] = [note]
        path = tmp_path / "raw.jsonl"
        text = "\n".join([lines[0], json.dumps(rec, ensure_ascii=False)] + lines[2:]) + "\n"
        path.write_text(text, encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert read_with(reader, path) == expected[reader]
        if reader == "load":
            assert load_atlas(path)[1][0].verdict.diagnostics == (note,)
        if reader == "query":
            assert query_atlas(path, {"verdict": "unstable"})[0].verdict.diagnostics == (note,)


    def test_one_scan_per_line_matches_json_loads(self, n2):
        # the value json.loads gives, or its error, on lines cut, joined and
        # padded at random
        lines, _ = n2
        rng = random.Random(31)
        pads = [" ", "\t", "\r", "\n", "\f", "\u2028", "\ufeff", "x", ",", "1", "[]", '"', "NaN"]
        outcomes = collections.Counter()
        for _ in range(2000):
            line = rng.choice(lines)
            if rng.random() < 0.3:
                line = line[: rng.randint(0, len(line))]
            if rng.random() < 0.3:
                line += rng.choice(["", " "]) + rng.choice(lines)
            line = "".join(rng.choices(pads, k=rng.choice([0, 0, 1, 2]))) + line
            line += "".join(rng.choices(pads, k=rng.choice([0, 0, 1, 2])))
            try:
                expected = json.dumps(json.loads(line))
            except ValueError as exc:
                expected = repr(exc)
            try:
                got = json.dumps(atlas_module._parse_line(line))
            except ValueError as exc:
                got = repr(exc)
            assert got == expected, line
            outcomes[got.startswith("JSONDecodeError")] += 1
        assert min(outcomes.values()) > 200


DATA = Path(__file__).parent / "data"


def assert_keys_and_links(records, n):
    """Each record's key is its pattern's, and each reference links the
    verdict of the record at the canonical key of its pattern less its
    entry, as found from patterns alone."""
    by_key = {pattern_to_key(rec.pattern): rec for rec in records}
    for rec in records:
        assert rec.key == pattern_to_key(rec.pattern)
        if is_inherited(rec):
            below = SparsityPattern(n, rec.pattern.free - {rec.verdict.evidence.entry})
            child = by_key[pattern_to_key(canonical_form(below).canonical)]
            assert rec.verdict.evidence.child is child.verdict, rec.key


class TestKeysAndLinks:
    """A record's key is found with its pattern, and a reference's child by
    key; both agree with what the patterns give."""

    @pytest.mark.parametrize("fixture, n", [("atlas2", 2), ("atlas3", 3), ("atlas4_timed", 4)])
    def test_builds_and_their_files(self, tmp_path, request, fixture, n):
        built = request.getfixturevalue(fixture)
        built = built[0] if fixture == "atlas4_timed" else built
        _, loaded = load_atlas(write_records(tmp_path / "atlas.jsonl", n, request, fixture))
        assert sum(map(is_inherited, loaded)) > 0
        for records in (built, loaded):
            assert_keys_and_links(records, n)
        assert [rec.key for rec in loaded] == [rec.key for rec in built]

    @pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.jsonl")))
    def test_committed_files(self, name):
        # files of 0.6.0 and older hold no reference; their keys still count
        header, records = load_atlas(DATA / name)
        assert records
        assert_keys_and_links(records, header["n"])

    @pytest.mark.parametrize("entry", [None, [0, 1], [3, 4], [5, 5], [-1, 2]])
    def test_entry_that_is_not_free_links_no_child(self, tmp_path, atlas3_path, entry):
        # the first reference, its entry moved off its pattern: a free
        # entry's bit is cleared from the key, and these have no bit there
        lines = atlas3_path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"Inherited"' in line)
        d = json.loads(lines[at])
        p = jsonio_module.pattern_from_dict(d)
        if entry is None:  # the last entry the pattern lacks
            entry = list(max(set(SparsityPattern.full(3).free) - p.free))
        d["verdict"]["entry"] = entry
        lines[at] = json.dumps(d, sort_keys=True)
        path = tmp_path / "moved.jsonl"
        path.write_text("\n".join(lines) + "\n")
        _, loaded = load_atlas(path)
        rec = loaded[at - 1]
        assert rec.pattern == p and rec.verdict.evidence.entry == tuple(entry)
        assert rec.verdict.evidence.child is None
        assert not verify_certificate(rec.verdict, rec.pattern)
        assert rec.key in atlas_module.verify_records(loaded, 3)

    def test_one_parse_per_line_and_one_key_per_record(self, atlas3_path, monkeypatch):
        # each line is scanned once, with no json.loads call, and each
        # record's key is found as its pattern is decoded; no pattern is
        # checked by the constructor, and no key derived again
        calls = collections.Counter()

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(atlas_module, "_scan")
        counting(json, "loads")
        counting(jsonio_module, "_decode_json_pattern")
        counting(atlas_module, "pattern_to_key")
        counting(patterns_module, "pattern_to_key")
        counting(SparsityPattern, "__post_init__")
        lines = [line for line in atlas3_path.read_text().split("\n") if line]
        _, records = load_atlas(atlas3_path)
        assert calls == {"_scan": len(lines), "_decode_json_pattern": len(records)}
        assert [rec.key for rec in records] == [pattern_to_key(rec.pattern) for rec in records]
        # a query decodes only its matches
        calls.clear()
        matches = query_atlas(atlas3_path, {"verdict": "unstable", "maximal_unstable": True})
        assert calls == {"_scan": len(lines), "_decode_json_pattern": len(matches)}

    def test_a_query_reads_no_orbit_table(self, atlas3_path, monkeypatch):
        # a query links no reference to its child, so it needs no orbit
        # table, which takes a while to build at n = 4
        def fail(n):
            raise AssertionError(f"query_atlas read the orbit table of n={n}")

        monkeypatch.setattr(atlas_module, "_orbit_table", fail)
        assert len(query_atlas(atlas3_path, {})) == 74
        assert query_atlas(atlas3_path, {"verdict": "stable", "minimal_stable": True})

    def test_one_encoder_for_every_line(self, tmp_path, monkeypatch):
        # the build writes through jsonio.verdict_to_dict, once per record,
        # and makes no encoder per line
        calls = collections.Counter()
        for module, name in ((json.encoder, "c_make_encoder"), (jsonio_module, "verdict_to_dict")):
            fn = getattr(module, name)

            def wrapper(*args, name=name, fn=fn, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        records = classify_atlas(2, path=tmp_path / "n2.jsonl")
        # one encoder: json.dumps's in config_hash, for the header
        assert calls == {"verdict_to_dict": len(records), "c_make_encoder": 1}


@pytest.fixture(scope="module")
def atlas3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("atlas") / "n3.jsonl"
    classify_atlas(3, path=path)
    return path


class TestQuery:
    def test_maximally_unstable_includes_zero_diagonal(self, atlas3_path):
        out = query_atlas(atlas3_path, {"verdict": "unstable", "maximal_unstable": True})
        zero_diag = SparsityPattern(
            3, frozenset((i, j) for i in range(1, 4) for j in range(1, 4) if i != j)
        )
        key = min(key_orbit(3, pattern_to_key(zero_diag)))
        assert key in [r.key for r in out]

    def test_min_dim_nine_is_full_pattern(self, atlas3_path):
        out = query_atlas(atlas3_path, {"min_dim": 9})
        assert len(out) == 1
        assert out[0].pattern == SparsityPattern.full(3)
        assert out[0].verdict.tag == PROVED_STABLE

    def test_empty_query_returns_everything(self, atlas3_path, atlas3):
        out = query_atlas(atlas3_path, {})
        assert len(out) == len(atlas3)

    def test_unknown_field_rejected(self, atlas3_path):
        with pytest.raises(ValidationError):
            query_atlas(atlas3_path, {"sparkle": 1})

    @pytest.mark.parametrize(
        "field, value", [("min_dim", "3"), ("max_codim", None), ("min_dim", True), ("max_codim", 2.0)]
    )
    def test_dimension_bound_must_be_an_int(self, atlas3_path, field, value):
        with pytest.raises(ValidationError, match=f"query field {field} must be an int"):
            query_atlas(atlas3_path, {field: value})

    @pytest.mark.parametrize("query, matches", [({"min_dim": 5}, 37), ({"max_codim": 3}, 21)])
    def test_a_dimension_filter_decodes_each_pattern_once(self, atlas3_path, monkeypatch, query, matches):
        # every record's pattern is decoded to filter on it, and a match
        # keeps the pattern it was filtered on
        calls = []
        decode = jsonio_module._decode_json_pattern
        monkeypatch.setattr(jsonio_module, "_decode_json_pattern", lambda d: calls.append(d) or decode(d))
        assert len(query_atlas(atlas3_path, query)) == matches
        assert len(calls) == 74

    def test_a_dimension_filter_checks_every_pattern(self, atlas3_path, tmp_path):
        # a malformed pattern on a record that the filter would drop
        lines = atlas3_path.read_text().splitlines()
        rec = json.loads(lines[1])
        assert len(rec["free"]) < 9
        lines[1] = json.dumps({**rec, "free": [[0, 1]]})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert len(query_atlas(atlas3_path, {"min_dim": 9})) == 1
        with pytest.raises(ValidationError, match="malformed atlas file"):
            query_atlas(path, {"min_dim": 9})
        assert len(query_atlas(path, {"minimal_stable": True, "verdict": "stable"})) > 0

    @pytest.mark.parametrize(
        "query",
        [
            {"min_dim": 5},
            {"min_dim": 0},
            {"max_codim": 3},
            {"max_codim": 9},
            {"verdict": "stable"},
            {"verdict": "ProvedUnstable"},
            {"verdict": "UNKNOWN"},
            {"minimal_stable": True},
            {"minimal_stable": False},
            {"maximal_unstable": True},
            {"maximal_unstable": False},
            {"min_dim": 4, "max_codim": 4},
            {"verdict": "stable", "minimal_stable": True},
            {"min_dim": 3, "verdict": "unstable", "maximal_unstable": True},
            {"min_dim": 2, "max_codim": 6, "verdict": "stable", "minimal_stable": False},
        ],
    )
    def test_query_equals_filtering_the_loaded_atlas(self, atlas3_path, query):
        tags = {"stable": PROVED_STABLE, "provedunstable": PROVED_UNSTABLE, "unknown": "Unknown"}
        _, records = load_atlas(atlas3_path)
        expected = [
            r
            for r in records
            if r.dimension >= query.get("min_dim", 0)
            and r.codimension <= query.get("max_codim", 9)
            and r.verdict.tag == tags.get(query.get("verdict", "").lower(), r.verdict.tag)
            and r.minimal_stable == query.get("minimal_stable", r.minimal_stable)
            and r.maximal_unstable == query.get("maximal_unstable", r.maximal_unstable)
        ]
        out = query_atlas(atlas3_path, query)
        assert [atlas_module._record_to_dict(r) for r in out] == [
            atlas_module._record_to_dict(r) for r in sorted(expected, key=lambda r: r.key)
        ]


class TestValidate:
    def test_n1_checks_pass(self):
        records = classify_atlas(1)
        report = validate_structure_theorem(records, 1)
        assert report.all_passed, report.summary()

    def test_n2_checks_pass(self, atlas2):
        report = validate_structure_theorem(atlas2, 2)
        assert report.all_passed, report.summary()
        assert report.unknown_count == 0

    def test_n3_checks_pass(self, atlas3):
        report = validate_structure_theorem(atlas3, 3)
        assert report.all_passed, report.summary()

    def test_incomplete_atlas_rejected(self, atlas2):
        with pytest.raises(ValidationError):
            validate_structure_theorem(atlas2[:-1], 2)

    def test_repeated_key_rejected(self, atlas3):
        # {(3,3)} (key 1) in place of {(2,3),(3,2)} (key 10): both orbits
        # have size 3, so the sizes still cover all 512 patterns
        one = next(r for r in atlas3 if r.key == 1)
        records = [one if r.key == 10 else r for r in atlas3]
        assert sum(r.orbit_size for r in records) == 512
        with pytest.raises(ValidationError, match=r"repeats record keys \[1\]"):
            validate_structure_theorem(records, 3)

    @pytest.mark.parametrize("n", [0, 5])
    def test_size_outside_enumeration_rejected(self, atlas2, n):
        with pytest.raises(CapabilityError):
            validate_structure_theorem(atlas2, n)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_size_that_is_not_an_int_rejected(self, atlas2, n):
        with pytest.raises(ValueError, match="must be an int"):
            validate_structure_theorem(atlas2, n)

    def test_report_summary_mentions_all_checks(self, atlas2):
        text = validate_structure_theorem(atlas2, 2).summary()
        for label in ("a:", "b:", "c:", "d:", "e:"):
            assert label in text
