import hashlib
import json
import random

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
from sparsestab.atlas import config_hash
from sparsestab.jsonio import verdict_to_dict
from sparsestab.patterns import key_orbit, key_to_pattern, pattern_to_key
from sparsestab.verdict import PROVED_STABLE, PROVED_UNSTABLE, EngineConfig


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

    def test_records_match_fresh_classification(self, atlas3):
        rng = random.Random(71)
        for rec in rng.sample(atlas3, 8):
            v = classify(rec.pattern)
            assert v.tag == rec.verdict.tag and v.reason == rec.verdict.reason


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
            assert verdict_to_dict(rec.verdict) == stored["verdict"]
            assert json.dumps(atlas_module._record_to_dict(rec), sort_keys=True) == line
            assert verify_certificate(rec.verdict, rec.pattern)
        assert any(rec.verdict.certificate is not None for rec in loaded)

    @pytest.mark.parametrize(
        "n, size, digest",
        [
            (2, 2594, "cbbcea48efca5e6258218b1294768263d5f47f76c024146cbf1c8dbc6ddb19e2"),
            (3, 24939, "5c88091d630cab864e9e794886507cb2f9dcbc7ef3ab7ad9546338e0d848d947"),
        ],
    )
    def test_file_bytes_pinned(self, tmp_path, n, size, digest):
        # any change to a verdict, a certificate float or the record layout
        # changes these; a change that means to must re-pin them
        path = tmp_path / f"n{n}.jsonl"
        classify_atlas(n, path=path)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        classify_atlas(2, path=a, seed=3)
        classify_atlas(2, path=b, seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_resume_after_truncation(self, tmp_path):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        classify_atlas(2, path=full)
        lines = full.read_text().splitlines(keepends=True)
        part.write_text("".join(lines[:4]))  # header + 3 records
        classify_atlas(2, path=part)
        assert part.read_bytes() == full.read_bytes()

    def test_resume_after_torn_line(self, tmp_path):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        classify_atlas(2, path=full)
        lines = full.read_bytes().splitlines(keepends=True)
        part.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        with pytest.raises(ValidationError):
            load_atlas(part)
        classify_atlas(2, path=part)
        assert part.read_bytes() == full.read_bytes()

    def test_mismatched_parameters_rejected(self, tmp_path):
        path = tmp_path / "n2.jsonl"
        classify_atlas(2, path=path, seed=0)
        with pytest.raises(ValidationError):
            classify_atlas(2, path=path, seed=1)

    def test_config_hash_depends_on_fields(self):
        assert config_hash(EngineConfig()) != config_hash(EngineConfig(oracle_restarts=2))

    def test_one_classification_per_representative(self, monkeypatch):
        calls = []

        def counting(p, config, seed):
            calls.append((pattern_to_key(p), config.oracle_restarts))
            return classify(p, config, seed)

        monkeypatch.setattr(atlas_module, "classify", counting)
        records = classify_atlas(3)
        assert sorted(key for key, _ in calls) == [r.key for r in records]
        assert {restarts for _, restarts in calls} == {10 * EngineConfig().oracle_restarts}

    def test_resume_classifies_only_missing_keys(self, tmp_path, monkeypatch):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        records = classify_atlas(3, path=full)
        part.write_text("".join(full.read_text().splitlines(keepends=True)[:21]))
        calls = []

        def counting(p, config, seed):
            calls.append(pattern_to_key(p))
            return classify(p, config, seed)

        monkeypatch.setattr(atlas_module, "classify", counting)
        classify_atlas(3, path=part)
        assert sorted(calls) == [r.key for r in records[20:]]
        assert part.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("n", [-1, 0, 5])
    def test_size_outside_enumeration_rejected(self, n):
        with pytest.raises(CapabilityError):
            classify_atlas(n)
        with pytest.raises(CapabilityError):
            list(enumerate_patterns(n))


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

    def test_report_summary_mentions_all_checks(self, atlas2):
        text = validate_structure_theorem(atlas2, 2).summary()
        for label in ("a:", "b:", "c:", "d:", "e:"):
            assert label in text
