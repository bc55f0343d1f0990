import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import sparsestab
import sparsestab.atlas as atlas_module
from sparsestab import jsonio, load_atlas, verify_certificate
from sparsestab.atlas import TOOL_VERSION
from sparsestab.cli import dispatch
from sparsestab.jsonio import (
    certificate_from_dict,
    certificate_to_dict,
    pattern_from_dict,
    verdict_to_dict,
)
from sparsestab.patterns import key_orbit, key_to_pattern, pattern_to_key
from sparsestab.patterns import SparsityPattern
from sparsestab.verdict import EngineConfig, classify

from conftest import FIG2_LEFT, FIG2_RIGHT, failed_geev


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def key_of(rec):
    """The canonical key of an atlas record dict, derived from its pattern."""
    return pattern_to_key(pattern_from_dict(rec))


def reaching(records, key):
    """The keys of the atlas record dicts, in key order, whose references
    reach the record at ``key``, itself included."""
    reached = []
    for rec in sorted(records, key=key_of):
        verdict = rec["verdict"]
        if key_of(rec) == key:
            reached.append(key)
        elif verdict["reason"] == "Inherited":
            p = pattern_from_dict(rec)
            child = pattern_to_key(SparsityPattern(p.n, p.free - {tuple(verdict["entry"])}))
            if min(key_orbit(p.n, child)) in reached:
                reached.append(key_of(rec))
    return reached


def write_atlas(path, header, records):
    path.write_text("\n".join([header] + [json.dumps(r) for r in records]) + "\n")


@pytest.fixture
def fig2_left_file(tmp_path):
    path = tmp_path / "fig2_left.json"
    path.write_text('{"n":3,"free":[[1,1],[1,2],[2,3],[3,1]]}')
    return str(path)


@pytest.fixture
def fig2_right_file(tmp_path):
    path = tmp_path / "fig2_right.mask"
    path.write_text("**0\n*0*\n*00\n")
    return str(path)


class TestAnalyze:
    def test_unstable_json_contract(self, fig2_left_file):
        code, text = run(["analyze", fig2_left_file, "--format", "json"])
        assert code == 1
        payload = json.loads(text)
        assert payload["tag"] == "ProvedUnstable"
        assert payload["reason"] == "NoHamiltonianK"
        assert payload["k"] == 2

    def test_stable_exit_zero(self, fig2_right_file):
        code, text = run(["analyze", fig2_right_file])
        assert code == 0
        assert "ProvedStable" in text and "[1, 2, 3]" in text

    def test_unknown_exit_two(self, tmp_path):
        # 4x4 gap pattern that no check resolves
        path = tmp_path / "gap.mask"
        path.write_text("000*\n00*0\n*0*0\n**00\n")
        code, _ = run(["analyze", str(path), "--restarts", "6", "--steps", "80"])
        assert code == 2

    def test_out_flag_writes_file(self, fig2_left_file, tmp_path):
        target = tmp_path / "verdict.json"
        code, text = run(
            ["analyze", fig2_left_file, "--format", "json", "--out", str(target)]
        )
        assert code == 1 and text == ""
        assert json.loads(target.read_text())["tag"] == "ProvedUnstable"

    def test_oracle_abscissa_printed_once(self, tmp_path):
        path = tmp_path / "gap.json"
        path.write_text('{"n": 3, "free": [[1,3],[2,1],[2,2],[3,1],[3,2]]}')
        code, text = run(["analyze", str(path)])
        assert code == 0 and "OracleFound" in text
        (line,) = [line for line in text.splitlines() if "abscissa" in line]
        value = line.rsplit(" ", 1)[1]
        assert line.startswith("oracle: ") and text.count(value) == 1


class TestWitness:
    def test_certificate_json(self, fig2_right_file):
        code, text = run(["witness", fig2_right_file, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["ordering"] == [1, 2, 3]
        cert = certificate_from_dict(payload)
        assert verify_certificate(cert)

    def test_no_chain_inconclusive(self, fig2_left_file):
        code, text = run(["witness", fig2_left_file])
        assert code == 2 and "no nested chain" in text


class TestOracleAndCanon:
    def test_oracle_finds_stable(self, fig2_right_file):
        code, text = run(["oracle", fig2_right_file, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["found"] and payload["abscissa"] < -1e-9

    def test_oracle_miss_is_inconclusive(self, fig2_left_file):
        code, text = run(
            ["oracle", fig2_left_file, "--restarts", "4", "--steps", "50"]
        )
        assert code == 2 and "proves nothing" in text

    def test_canon_reports_orbit(self, fig2_right_file):
        code, text = run(["canon", fig2_right_file, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["orbit_size"] == 12
        assert len(payload["relabeling"]) == 3


class TestIdentities:
    def test_identities_all_pass(self):
        code, text = run(["identities", "--trials", "8", "--n", "3"])
        assert code == 0
        assert text.count("failures=0") == 4

    @pytest.mark.parametrize(
        "flag,value", [("--n", "0"), ("--n", "-2"), ("--trials", "0"), ("--trials", "-1")]
    )
    def test_nonpositive_size_or_trials_is_usage_error(self, flag, value):
        # n < 1 has no matrices, and zero trials would pass vacuously
        code, text = run(["identities", flag, value])
        assert code == 10 and text == ""


class TestAtlasCommands:
    def test_enumerate(self):
        code, text = run(["atlas", "enumerate", "-n", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["raw_total"] == 16

    def test_classify_validate_query_cycle(self, tmp_path):
        path = str(tmp_path / "n2.jsonl")
        code, text = run(["atlas", "classify", "-n", "2", "--atlas", path])
        assert code == 0 and "written" in text
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", path])
        assert code == 0 and "PASS" in text and "FAIL" not in text
        code, text = run(
            [
                "atlas", "query", "--atlas", path,
                "--verdict", "unstable", "--maximal-unstable", "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(text)
        assert any(r["pattern"]["free"] == [[1, 2], [2, 1]] for r in payload)

    def test_validate_without_file_builds_in_memory(self):
        code, text = run(["atlas", "validate", "-n", "2"])
        assert code == 0 and "PASS" in text and "re-verified 9 of 9 records" in text

    def test_validate_reverifies_every_record(self, atlas2_lines, tmp_path):
        path = tmp_path / "n2.jsonl"
        path.write_text("\n".join(atlas2_lines) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 0 and "re-verified 9 of 9 records" in text
        records = [json.loads(line) for line in atlas2_lines[1:]]
        rec = next(r for r in records if "certificate" in r["verdict"])
        rec["verdict"]["certificate"]["stabilizer"][0] *= -1
        path.write_text("\n".join([atlas2_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text
        # the forged proof fails its record and the references that reach it
        assert f"failing keys: {reaching(records, key_of(rec))}" in text

    def test_validate_ignores_a_stored_spectrum(self, atlas2_lines, tmp_path):
        # a non-Hurwitz witness fails however its record claims a spectrum
        records = [json.loads(line) for line in atlas2_lines[1:]]
        rec = next(r for r in records if r["verdict"]["reason"] == "ChainFound")
        cert = rec["verdict"]["certificate"]
        cert["stabilizer"][0] *= -1
        cert.update(eigenvalues=[], abscissa=-1e6)
        path = tmp_path / "n2.jsonl"
        path.write_text("\n".join([atlas2_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 1 and f"failing keys: {reaching(records, key_of(rec))}" in text

    def test_validate_fails_a_certificate_beyond_float_range(self, atlas2_lines, tmp_path):
        # witness and stabilizer are finite, diag(stabilizer) @ witness is not
        records = [json.loads(line) for line in atlas2_lines[1:]]
        rec = next(r for r in records if r["verdict"]["reason"] == "ChainFound")
        cert = rec["verdict"]["certificate"]
        cert["witness"] = [[x * 1e200 for x in row] for row in cert["witness"]]
        cert["stabilizer"] = [x * 1e200 for x in cert["stabilizer"]]
        path = tmp_path / "n2.jsonl"
        path.write_text("\n".join([atlas2_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 1 and f"failing keys: {reaching(records, key_of(rec))}" in text

    def test_validate_checks_orbit_sizes(self, atlas2_lines, tmp_path):
        # move one pattern of coverage from one record to another, so the
        # orbit sizes still sum to 2^(n^2) but two of them are forged
        records = [json.loads(line) for line in atlas2_lines[1:]]
        small, large = records[0], next(r for r in records if r["orbit_size"] > 2)
        small["orbit_size"] += 1
        large["orbit_size"] -= 1
        path = tmp_path / "n2.jsonl"
        path.write_text("\n".join([atlas2_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text and "re-verified 7 of 9 records" in text
        assert f"failing keys: {sorted([key_of(small), key_of(large)])}" in text

    def test_repeated_key_rejected_by_validate_and_replaced_by_classify(self, atlas3_lines, tmp_path):
        # {(3,3)} (key 1) in place of {(2,3),(3,2)} (key 10): both orbits
        # have size 3, so the sizes still cover all 512 patterns
        records = [json.loads(line) for line in atlas3_lines[1:]]
        one = next(r for r in records if key_of(r) == 1)
        forged = [one if key_of(r) == 10 else r for r in records]
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join([atlas3_lines[0]] + [json.dumps(r) for r in forged]) + "\n")
        assert run(["atlas", "validate", "-n", "3", "--atlas", str(path)]) == (12, "")
        # classify never reads the file: it writes a fresh build's bytes
        assert run(["atlas", "classify", "-n", "3", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas3_lines) + "\n"

    def test_non_representative_key_fails_validate_and_replaced_by_classify(self, atlas3_lines, tmp_path):
        # key 10's record moved to key 160, {(1,2),(2,1)}: the same orbit,
        # but not its minimum
        records = [json.loads(line) for line in atlas3_lines[1:]]
        rec = next(r for r in records if key_of(r) == 10)
        rec["free"] = [[1, 2], [2, 1]]
        records.sort(key=key_of)  # in key order, so only the key itself is wrong
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join([atlas3_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text and "failing keys: [160]" in text
        assert run(["atlas", "classify", "-n", "3", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas3_lines) + "\n"

    @pytest.mark.parametrize("forge", ["every_stable_maximal", "one_minimal_flipped"])
    def test_validate_rederives_the_marks(self, atlas3_lines, tmp_path, forge):
        # the marks are checked against the file's own tags, so a forged
        # mark fails its record and no other; a mark that its record's own
        # verdict contradicts already fails to load (exit 12)
        records = [json.loads(line) for line in atlas3_lines[1:]]
        if forge == "every_stable_maximal":
            changed = [r for r in records if r["verdict"]["tag"] == "ProvedStable"]
            for r in changed:
                r["maximal_unstable"] = True
            assert len(changed) == 31
        else:
            changed = [next(r for r in records if r["minimal_stable"])]
            changed[0]["minimal_stable"] = False
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join([atlas3_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        if forge == "every_stable_maximal":
            assert (code, text) == (12, "")
        else:
            assert code == 1 and f"failing keys: {[key_of(r) for r in changed]}" in text

    @pytest.mark.parametrize(
        "flags, mark", [(["--maximal-unstable", "--verdict", "stable"], "maximal_unstable"),
                        (["--minimal-stable"], "minimal_stable")]
    )
    def test_query_rejects_a_mark_its_verdict_contradicts(self, atlas3_lines, tmp_path, flags, mark):
        # every stable record claims to be maximally unstable, or every
        # reference minimally stable: neither needs a neighbor to refute
        records = [json.loads(line) for line in atlas3_lines[1:]]
        changed = [
            r for r in records
            if r["verdict"]["tag"] == "ProvedStable"
            and (mark == "maximal_unstable" or r["verdict"]["reason"] == "Inherited")
        ]
        for r in changed:
            r[mark] = True
        assert len(changed) == (31 if mark == "maximal_unstable" else 25)
        path = tmp_path / "n3.jsonl"
        write_atlas(path, atlas3_lines[0], records)
        assert run(["atlas", "query", "--atlas", str(path), *flags]) == (12, "")
        assert run(["atlas", "validate", "-n", "3", "--atlas", str(path)])[0] != 0

    def test_stable_record_off_its_orbit_minimum_fails_only_itself(self, atlas3_lines, tmp_path):
        # stable key 95, which no reference reaches, moved to its orbit's
        # largest key: the marks read each record's tag by orbit, so its
        # neighbors still pass, maximally unstable child 79 among them
        records = [json.loads(line) for line in atlas3_lines[1:]]
        assert reaching(records, 95) == [95]
        assert next(r for r in records if key_of(r) == 79)["maximal_unstable"]
        rec = next(r for r in records if key_of(r) == 95)
        moved = max(key_orbit(3, 95))
        rec["free"] = jsonio.pattern_to_dict(key_to_pattern(3, moved))["free"]
        records.sort(key=key_of)
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join([atlas3_lines[0]] + [json.dumps(r) for r in records]) + "\n")
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text and f"failing keys: [{moved}]" in text

    def test_forged_leaf_proof_fails_every_reference_reaching_it(self, atlas3_lines, tmp_path):
        records = [json.loads(line) for line in atlas3_lines[1:]]
        rec = next(r for r in records if key_of(r) == 85)
        assert rec["minimal_stable"] and rec["verdict"]["reason"] == "ChainFound"
        rec["verdict"]["certificate"]["stabilizer"][0] *= -1
        reached = reaching(records, 85)
        assert len(reached) > 2  # references to references too
        path = tmp_path / "n3.jsonl"
        write_atlas(path, atlas3_lines[0], records)
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text and f"failing keys: {reached}" in text

    def test_prefix_cover_reusing_a_vertex_fails_validate(self, atlas3_lines, tmp_path):
        # a leaf proof whose second prefix (a, b) is covered by the cycles
        # (a,) and (a, b): vertex a in two cycles, the edges all free
        records = [json.loads(line) for line in atlas3_lines[1:]]
        rec = next(
            r for r in records
            if r["verdict"]["reason"] == "ChainFound" and len(r["verdict"]["certificate"]["prefix_cycles"][1]) == 1
        )
        cert = rec["verdict"]["certificate"]
        a, b = cert["ordering"][:2]
        assert cert["prefix_cycles"][1] == [[a, b]] and [a, a] in rec["free"]
        cert["prefix_cycles"][1] = [[a], [a, b]]
        path = tmp_path / "n3.jsonl"
        write_atlas(path, atlas3_lines[0], records)
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text
        assert f"failing keys: {reaching(records, key_of(rec))}" in text

    @pytest.mark.parametrize("forge", ["entry_not_free", "entry_out_of_range", "unstable_child"])
    def test_validate_fails_a_bad_reference(self, atlas3_lines, tmp_path, forge):
        # an Inherited record that names an entry it does not have (one off
        # the grid too), or one whose removal leaves an unstable pattern,
        # fails with the references that reach it
        records = [json.loads(line) for line in atlas3_lines[1:]]
        tags = {key_of(r): r["verdict"]["tag"] for r in records}
        for rec in records:
            if rec["verdict"]["reason"] != "Inherited":
                continue
            p = pattern_from_dict(rec)
            if forge == "entry_not_free":
                cells = sorted(SparsityPattern.full(3).free - p.free)
            elif forge == "entry_out_of_range":
                cells = [(4, 1)]
            else:
                cells = [
                    cell for cell in sorted(p.free)
                    if tags[min(key_orbit(3, pattern_to_key(SparsityPattern(3, p.free - {cell}))))]
                    == "ProvedUnstable"
                ]
            if cells:
                rec["verdict"]["entry"] = list(cells[0])
                break
        path = tmp_path / "n3.jsonl"
        write_atlas(path, atlas3_lines[0], records)
        code, text = run(["atlas", "validate", "-n", "3", "--atlas", str(path)])
        assert code == 1 and "FAIL" not in text
        assert f"failing keys: {reaching(records, key_of(rec))}" in text
        if forge == "entry_out_of_range":
            # the child is found from the pattern less the entry, never by
            # shifting a key bit by the entry's position
            assert "failing keys: [87]" in text

    def test_file_with_a_hole_replaced_by_fresh_build(self, atlas3_lines, tmp_path):
        # the sixth line deleted: classify writes a fresh build's bytes
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join(atlas3_lines[:5] + atlas3_lines[6:]) + "\n")
        assert run(["atlas", "classify", "-n", "3", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas3_lines) + "\n"
        assert run(["atlas", "validate", "-n", "3", "--atlas", str(path)])[0] == 0

    def test_records_out_of_key_order(self, atlas3_lines, tmp_path):
        # the sixth line moved to the end: validate rejects it, and
        # classify writes a fresh build in key order
        path = tmp_path / "n3.jsonl"
        path.write_text("\n".join(atlas3_lines[:5] + atlas3_lines[6:] + atlas3_lines[5:6]) + "\n")
        assert run(["atlas", "validate", "-n", "3", "--atlas", str(path)]) == (12, "")
        assert run(["atlas", "classify", "-n", "3", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas3_lines) + "\n"


DATA = Path(__file__).parent / "data"


class TestVersion020Files:
    """Files written by 0.2.0 store each certificate's and oracle matrix's
    spectrum under "eigenvalues" and "abscissa"; those keys are ignored."""

    def test_atlas_validates(self):
        path = DATA / "atlas_n2_0.2.0.jsonl"
        assert '"eigenvalues"' in path.read_text()
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 0 and "FAIL" not in text and "re-verified 9 of 9 records" in text

    def test_oracle_record_loads_and_verifies(self):
        path = DATA / "oracle_found_n3_0.2.0.jsonl"
        code, text = run(["atlas", "query", "--atlas", str(path), "--verdict", "stable"])
        assert code == 0 and text.startswith("1 matching records")
        _, (rec,) = load_atlas(path)
        assert rec.verdict.reason == "OracleFound"
        assert verify_certificate(rec.verdict, rec.pattern)

    def test_string_oracle_entry_is_malformed(self, tmp_path):
        # 0.2.0 cast a numeric string to its float, so this record verified
        header, line = (DATA / "oracle_found_n3_0.2.0.jsonl").read_text().splitlines()
        rec = json.loads(line)
        matrix = rec["verdict"]["oracle"]["matrix"]
        matrix[0][2] = str(matrix[0][2])
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([header, json.dumps(rec)]) + "\n")
        code, text = run(["atlas", "query", "--atlas", str(path)])
        assert code == 12 and text == ""

    def test_classify_does_not_resume(self, tmp_path, atlas2_lines):
        path = tmp_path / "n2.jsonl"
        shutil.copy(DATA / "atlas_n2_0.2.0.jsonl", path)
        assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas2_lines) + "\n"


class TestVersion030Files:
    """Files written by 0.3.0 store each record's key, dimension and
    codimension and each certificate's minors; those keys are ignored."""

    PATH = DATA / "atlas_n2_0.3.0.jsonl"

    def test_atlas_validates(self):
        text = self.PATH.read_text()
        assert '"minors"' in text and '"codimension"' in text
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(self.PATH)])
        assert code == 0 and "FAIL" not in text and "re-verified 9 of 9 records" in text

    def test_classify_does_not_resume(self, tmp_path, atlas2_lines):
        path = tmp_path / "n2.jsonl"
        shutil.copy(self.PATH, path)
        assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas2_lines) + "\n"


class TestVersion040Files:
    """Files written by 0.4.0 classified every representative: a stable one
    carries its own proof, not one inherited from a stable child."""

    PATH = DATA / "atlas_n2_0.4.0.jsonl"

    def test_atlas_validates(self):
        assert '"inherited' not in self.PATH.read_text()
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(self.PATH)])
        assert code == 0 and "FAIL" not in text and "re-verified 9 of 9 records" in text

    def test_atlas_queries(self):
        code, text = run(["atlas", "query", "--atlas", str(self.PATH), "--verdict", "stable"])
        assert code == 0 and text.startswith("4 matching records")

    def test_classify_does_not_resume(self, tmp_path, atlas2_lines):
        path = tmp_path / "n2.jsonl"
        shutil.copy(self.PATH, path)
        assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas2_lines) + "\n"


class TestVersion060Files:
    """Files written by 0.6.0 give each stable record with a stable child
    that child's proof, moved through the symmetry; 0.7.0 writes a
    reference to the child's record instead."""

    PATH = DATA / "atlas_n2_0.6.0.jsonl"

    def test_atlas_validates(self):
        assert '"Inherited"' not in self.PATH.read_text()
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(self.PATH)])
        assert code == 0 and "FAIL" not in text and "re-verified 9 of 9 records" in text
        _, records = load_atlas(self.PATH)
        moved = [r for r in records if r.verdict.diagnostics]
        assert [r.verdict.reason for r in moved] == ["ChainFound", "ChainFound"]
        assert all(verify_certificate(r.verdict, r.pattern) for r in moved)

    def test_atlas_queries(self):
        code, text = run(["atlas", "query", "--atlas", str(self.PATH), "--verdict", "stable"])
        assert code == 0 and text.startswith("4 matching records")

    def test_classify_does_not_resume(self, tmp_path, atlas2_lines):
        path = tmp_path / "n2.jsonl"
        shutil.copy(self.PATH, path)
        assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas2_lines) + "\n"


class TestVersion050Files:
    """Files written by 0.5.0 store each certificate's copy of its record's
    pattern; 0.6.0 checks that it is the record's own."""

    PATH = DATA / "atlas_n2_0.5.0.jsonl"

    def test_atlas_validates(self):
        assert '"pattern"' in self.PATH.read_text()
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(self.PATH)])
        assert code == 0 and "FAIL" not in text and "re-verified 9 of 9 records" in text

    def test_atlas_queries(self):
        code, text = run(["atlas", "query", "--atlas", str(self.PATH), "--verdict", "stable"])
        assert code == 0 and text.startswith("4 matching records")

    def test_classify_does_not_resume(self, tmp_path, atlas2_lines):
        path = tmp_path / "n2.jsonl"
        shutil.copy(self.PATH, path)
        assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
        assert path.read_text() == "\n".join(atlas2_lines) + "\n"

    def test_records_are_the_new_ones_with_the_certificate_pattern(self, atlas2_lines):
        # the records 0.6.0 wrote, with the certificate's pattern
        old = [json.loads(line) for line in self.PATH.read_text().splitlines()[1:]]
        for rec in old:
            rec["verdict"].get("certificate", {}).pop("pattern", None)
        newer = (DATA / "atlas_n2_0.6.0.jsonl").read_text().splitlines()[1:]
        assert old == [json.loads(line) for line in newer]

    @pytest.mark.parametrize("command", ["query", "validate"])
    def test_certificate_pattern_must_be_the_records(self, tmp_path, command):
        # a stored certificate pattern that is a pattern, but another one
        lines = self.PATH.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"certificate"' in line)
        rec = json.loads(lines[at])
        rec["verdict"]["certificate"]["pattern"]["free"].pop()
        lines[at] = json.dumps(rec)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["atlas", command, "--atlas", str(path)] + (["-n", "2"] if command == "validate" else [])
        assert run(argv) == (12, "")


def test_version_is_one_constant():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == TOOL_VERSION
    assert sparsestab.__version__ == TOOL_VERSION


@pytest.fixture(scope="module")
def atlas2_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("atlas") / "n2.jsonl"
    assert run(["atlas", "classify", "-n", "2", "--atlas", str(path)])[0] == 0
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def atlas3_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("atlas") / "n3.jsonl"
    assert run(["atlas", "classify", "-n", "3", "--atlas", str(path)])[0] == 0
    return path.read_text().splitlines()


MALFORMED_RECORDS = {
    "out_of_range_pair": lambda rec: {**rec, "free": [[9, 9]]},
    "non_object_line": lambda rec: [1, 2],
    "violating_not_a_list": lambda rec: {**rec, "verdict": {**rec["verdict"], "violating": 5}},
    "verdict_not_an_object": lambda rec: {**rec, "verdict": rec["verdict"]["tag"]},
    # the record of the pattern {(1, 1)} with an index that int() reads as 1
    **{
        f"index_{name}": lambda rec, i=i: {**rec, "free": [[i, 1]]}
        for name, i in (("float", 1.9), ("string", "1"), ("bool", True))
    },
    # instability evidence that compares equal to the right ints
    **{
        f"k_{name}": lambda rec, k=k: {
            **rec,
            "verdict": {"tag": "ProvedUnstable", "reason": "NoHamiltonianK", "k": k},
        }
        for name, k in (("bool", True), ("float", 1.0))
    },
    **{
        f"violating_{name}": lambda rec, v=v: {**rec, "verdict": {**rec["verdict"], "violating": [v]}}
        for name, v in (("bool", True), ("float", 1.0))
    },
    "minimal_stable_not_a_bool": lambda rec: {**rec, "minimal_stable": 0},
    **{
        f"diagnostics_{name}": lambda rec, d=d: {**rec, "verdict": {**rec["verdict"], "diagnostics": d}}
        for name, d in (("string", "inherited"), ("number", [1]))
    },
    "orbit_size_float": lambda rec: {**rec, "orbit_size": float(rec["orbit_size"])},
    # an Inherited verdict names its entry, a pair of ints, and no other does
    "entry_missing": lambda rec: {**rec, "verdict": {"tag": "ProvedStable", "reason": "Inherited"}},
    **{
        f"entry_{name}": lambda rec, entry=entry: {
            **rec,
            "verdict": {"tag": "ProvedStable", "reason": "Inherited", "entry": entry},
        }
        for name, entry in (
            ("one_index", [1]),
            ("three_indices", [1, 1, 1]),
            ("float", [1.0, 1]),
            ("bool", [True, 1]),
            ("string", "11"),
        )
    },
    "entry_on_a_proof": lambda rec: {**rec, "verdict": {**rec["verdict"], "entry": [1, 1]}},
    # a tag or reason outside the allowed (tag, reason) pairs
    "tag_not_a_string": lambda rec: {**rec, "verdict": {**rec["verdict"], "tag": 1}},
    "tag_unknown": lambda rec: {**rec, "verdict": {**rec["verdict"], "tag": "Bogus"}},
    "reason_not_a_string": lambda rec: {**rec, "verdict": {**rec["verdict"], "reason": 5}},
    "reason_not_of_tag": lambda rec: {
        **rec,
        "verdict": {**rec["verdict"], "tag": "Unknown", "reason": "ChainFound"},
    },
}


# json reads NaN, Infinity and 1e999 (as inf); a placeholder entry is
# replaced by such a literal in the written line
BAD_ENTRY = "bad entry"


def _certificate_entry(field, literal):
    """The record with the first entry of its certificate's ``field`` set to
    ``literal``, or to ``literal(entry)`` when it is callable."""

    def line(rec):
        cert = rec["verdict"]["certificate"]
        row = cert[field][0] if isinstance(cert[field][0], list) else cert[field]
        text = literal(row[0]) if callable(literal) else literal
        row[0] = BAD_ENTRY
        return json.dumps(rec).replace(json.dumps(BAD_ENTRY), text)

    return line


def _oracle_verdict(literal, stats=True, at="matrix"):
    """The record with an OracleFound verdict built from the witness, with
    or without oracle_stats, and ``literal`` in place of the first matrix
    entry or an oracle_stats value (``at``)."""

    def line(rec):
        cert = rec["verdict"]["certificate"]
        matrix = [[BAD_ENTRY] + cert["witness"][0][1:]] + cert["witness"][1:] if at == "matrix" else cert["witness"]
        oracle = {"matrix": matrix}
        oracle_stats = {"restarts": 1, "best_abscissa": -1.0}
        if at != "matrix":
            oracle_stats[at] = BAD_ENTRY
        verdict = {"tag": "ProvedStable", "reason": "OracleFound", "oracle": oracle}
        if stats:
            verdict["oracle_stats"] = oracle_stats
        return json.dumps({**rec, "verdict": verdict}).replace(json.dumps(BAD_ENTRY), literal)

    return line


def _certificate_pattern_float_index(rec):
    """The record with a certificate pattern, as 0.5.0 stored it, whose
    first index is written as a float."""
    free = [list(pair) for pair in rec["free"]]
    free[0][0] = float(free[0][0])
    rec["verdict"]["certificate"]["pattern"] = {"n": rec["n"], "free": free}
    return json.dumps(rec)


def _chain_evidence(field, convert):
    """The record with each vertex v of its certificate's ``field``
    (ordering or prefix_cycles) written as ``convert(v)``."""

    def line(rec):
        cert = rec["verdict"]["certificate"]
        if field == "ordering":
            cert[field] = [convert(v) for v in cert[field]]
        else:
            cert[field] = [[[convert(v) for v in c] for c in cycles] for cycles in cert[field]]
        return json.dumps(rec)

    return line


def _true_for_one(v):
    return True if v == 1 else v


MALFORMED_CERTIFICATES = {
    **{
        f"{field}_{name}": _certificate_entry(field, literal)
        for field in ("witness", "stabilizer")
        for name, literal in (("nan", "NaN"), ("infinity", "-Infinity"), ("overflow", "1e999"))
    },
    "oracle_matrix_nan": _oracle_verdict("NaN"),
    "oracle_matrix_overflow": _oracle_verdict("1e999"),
    "oracle_without_stats": _oracle_verdict("-1.0", stats=False),
    "witness_integer_overflow": _certificate_entry("witness", "1" + "0" * 400),
    # the entry's own value as a string, which a cast would accept
    "witness_string": _certificate_entry("witness", lambda x: json.dumps(str(x))),
    "stabilizer_bool": _certificate_entry("stabilizer", "true"),
    "oracle_matrix_string": _oracle_verdict('"-1.0"'),
    "certificate_pattern_float_index": _certificate_pattern_float_index,
    "oracle_restarts_string": _oracle_verdict('"x"', at="restarts"),
    "oracle_restarts_bool": _oracle_verdict("true", at="restarts"),
    "oracle_restarts_negative": _oracle_verdict("-1", at="restarts"),
    "oracle_best_abscissa_null": _oracle_verdict("null", at="best_abscissa"),
    "oracle_best_abscissa_infinity": _oracle_verdict("Infinity", at="best_abscissa"),
    # chain evidence that compares equal to the right ints
    "ordering_float": _chain_evidence("ordering", float),
    "ordering_bool": _chain_evidence("ordering", _true_for_one),
    "prefix_cycles_float": _chain_evidence("prefix_cycles", float),
    "prefix_cycles_bool": _chain_evidence("prefix_cycles", _true_for_one),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
    def test_malformed_atlas_record(self, atlas2_lines, tmp_path, case):
        records = [json.loads(line) for line in atlas2_lines[1:]]
        rec = next(r for r in records if "violating" in r["verdict"])
        bad = json.dumps(MALFORMED_RECORDS[case](rec))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([atlas2_lines[0], bad]) + "\n")
        code, _ = run(["atlas", "query", "--atlas", str(path)])
        assert code == 12

    @pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
    def test_malformed_atlas_record_fails_validate(self, atlas2_lines, tmp_path, case):
        records = [json.loads(line) for line in atlas2_lines[1:]]
        rec = next(r for r in records if "violating" in r["verdict"])
        bad = json.dumps(MALFORMED_RECORDS[case](rec))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([atlas2_lines[0], bad]) + "\n")
        assert run(["atlas", "validate", "-n", "2", "--atlas", str(path)]) == (12, "")

    def test_query_checks_the_records_it_returns(self, atlas2_lines, tmp_path):
        # a broken certificate on a stable record: a query that returns the
        # record fails, one that filters it out does not, validate fails
        lines = list(atlas2_lines)
        at = next(i for i, line in enumerate(lines) if '"certificate"' in line)
        lines[at] = _certificate_entry("witness", "NaN")(json.loads(lines[at]))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert run(["atlas", "query", "--atlas", str(path), "--verdict", "stable"])[0] == 12
        code, text = run(["atlas", "query", "--atlas", str(path), "--verdict", "unstable"])
        assert code == 0 and text.startswith("5 matching records")
        assert run(["atlas", "validate", "-n", "2", "--atlas", str(path)])[0] == 12

    @pytest.mark.parametrize(
        "flags, field, value",
        [
            (["--min-dim", "1"], "free", None),
            (["--max-codim", "4"], "n", True),
            (["--max-codim", "4"], "n", 3.0),  # compared untyped, it would drop every record
            (["--verdict", "stable"], "verdict", "ProvedStable"),
            (["--verdict", "stable"], "verdict", {"tag": ["ProvedStable"]}),
            (["--minimal-stable"], "minimal_stable", "true"),
            (["--maximal-unstable"], "maximal_unstable", None),
        ],
    )
    def test_query_checks_the_fields_it_filters_on(self, atlas2_lines, tmp_path, flags, field, value):
        # the field wrong on every record, so no filter can skip it
        records = [json.loads(line) for line in atlas2_lines[1:]]
        bad = [{**r, field: value} for r in records]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([atlas2_lines[0]] + [json.dumps(r) for r in bad]) + "\n")
        code, text = run(["atlas", "query", "--atlas", str(path), *flags])
        assert code == 12 and text == ""

    @pytest.mark.parametrize(
        "header",
        [
            '"not a header"',
            "[]",
            '{"config_hash": "065a4abbe7f4", "n": 2, "seed": 0}',
            '{"config_hash": "065a4abbe7f4", "n": "2", "seed": 0, "tool_version": "0.5.0"}',
            '{"config_hash": "065a4abbe7f4", "n": 2, "seed": false, "tool_version": "0.5.0"}',
            '{"config_hash": 1, "n": 2, "seed": 0, "tool_version": "0.5.0"}',
            '{"config_hash": "x", "n": 0, "seed": -5, "tool_version": "banana"}',
            '{"config_hash": "065a4abbe7f4", "n": 5, "seed": 0, "tool_version": "0.6.0"}',
            '{"config_hash": "065a4abbe7f4", "n": 3, "seed": 0, "tool_version": "0.6.0"}',
        ],
    )
    @pytest.mark.parametrize("command", ["query", "validate"])
    def test_malformed_header(self, atlas2_lines, tmp_path, header, command):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([header] + atlas2_lines[1:]) + "\n")
        argv = ["atlas", command, "--atlas", str(path)] + (["-n", "2"] if command == "validate" else [])
        code, text = run(argv)
        assert code == 12 and text == ""

    def test_validate_checks_the_header_size(self, atlas2_lines, tmp_path):
        # n=2 records under a header that says n=3
        header = {**json.loads(atlas2_lines[0]), "n": 3}
        path = tmp_path / "n2.jsonl"
        path.write_text("\n".join([json.dumps(header)] + atlas2_lines[1:]) + "\n")
        code, text = run(["atlas", "validate", "-n", "2", "--atlas", str(path)])
        assert code == 12 and text == ""

    def test_query_rejects_a_line_that_is_not_json(self, atlas2_lines, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(atlas2_lines + ["{not json"]) + "\n")
        code, _ = run(["atlas", "query", "--atlas", str(path), "--verdict", "unknown"])
        assert code == 12

    @pytest.mark.parametrize("command", ["query", "validate"])
    @pytest.mark.parametrize("case", list(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_record(self, atlas2_lines, tmp_path, case, command):
        # the whole atlas with one record changed, so validate gets past
        # its structure checks to the records' evidence
        lines = list(atlas2_lines)
        at = next(i for i, line in enumerate(lines) if '"certificate"' in line)
        lines[at] = MALFORMED_CERTIFICATES[case](json.loads(lines[at]))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["atlas", command, "--atlas", str(path)] + (["-n", "2"] if command == "validate" else [])
        code, text = run(argv)
        assert code == 12 and text == ""

    @pytest.mark.parametrize("ordering", [[1, 1], [0, 2], [3, 1]])
    def test_certificate_ordering_not_a_permutation(self, atlas2_lines, tmp_path, ordering):
        lines = list(atlas2_lines)
        at = next(i for i, line in enumerate(lines) if '"certificate"' in line)
        rec = json.loads(lines[at])
        rec["verdict"]["certificate"]["ordering"] = ordering
        lines[at] = json.dumps(rec)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, text = run(["atlas", "validate", "--atlas", str(path), "-n", "2"])
        assert code == 12 and text == ""

    def test_missing_file(self):
        code, _ = run(["analyze", "/definitely/not/there.mask"])
        assert code == 11

    def test_malformed_mask(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("**\n*x\n")
        code, _ = run(["analyze", str(path)])
        assert code == 12

    def test_non_utf8_pattern(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_bytes(b"\xff*\n**\n")
        code, _ = run(["analyze", str(path)])
        assert code == 12

    def test_non_utf8_atlas(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff{}\n")
        code, _ = run(["atlas", "query", "--atlas", str(path)])
        assert code == 12

    def test_json_pattern_with_booleans(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"n": true, "free": [[true, true]]}')
        code, text = run(["analyze", str(path)])
        assert code == 12 and text == ""

    @pytest.mark.parametrize("free", ["5", "null"])
    def test_json_pattern_free_not_a_list(self, tmp_path, free):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "free": %s}' % free)
        code, text = run(["analyze", str(path)])
        assert code == 12 and text == ""

    @pytest.mark.parametrize("command", ["oracle", "analyze"])
    def test_eigenvalue_failure_is_an_error_not_a_traceback(
        self, fig2_right_file, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(sparsestab.numerics, "_geev", failed_geev)
        code, text = run([command, fig2_right_file])
        assert code == 12 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalue computation failed") and "Traceback" not in err

    def test_capability_cap(self, tmp_path):
        path = tmp_path / "big.mask"
        path.write_text("\n".join("0" * 9 for _ in range(9)) + "\n")
        code, _ = run(["canon", str(path)])
        assert code == 13

    def test_usage_error(self):
        code, _ = run(["frobnicate"])
        assert code == 10

    def test_query_requires_atlas(self):
        code, _ = run(["atlas", "query"])
        assert code == 10

    # --tol is not a flag, so any value of it is a usage error
    @pytest.mark.parametrize(
        "flag,value", [("--tol", "-1"), ("--tol", "inf"), ("--restarts", "-3"), ("--steps", "0")]
    )
    def test_nonpositive_engine_setting(self, fig2_right_file, flag, value):
        code, text = run(["analyze", fig2_right_file, flag, value])
        assert code == 10 and text == ""

    @pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--restarts", "64"), ("--steps", "400")])
    @pytest.mark.parametrize("command", ["canon", "identities", "atlas enumerate", "atlas query", "witness"])
    def test_engine_setting_where_unread_is_usage_error(
        self, fig2_right_file, tmp_path, command, flag, value
    ):
        argv = {
            "witness": ["witness", fig2_right_file],
            "canon": ["canon", fig2_right_file],
            "identities": ["identities", "--trials", "1", "--n", "2"],
            "atlas enumerate": ["atlas", "enumerate", "-n", "1"],
            "atlas query": ["atlas", "query", "--atlas", str(tmp_path / "a.jsonl")],
        }[command]
        assert run(argv)[0] != 10
        code, text = run(argv + [flag, value])
        assert code == 10 and text == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "PATTERN"],
            ["oracle", "PATTERN"],
            ["atlas", "classify", "-n", "1"],
            ["atlas", "validate", "-n", "1"],
        ],
    )
    def test_engine_settings_taken_where_read(self, fig2_right_file, argv):
        argv = [fig2_right_file if a == "PATTERN" else a for a in argv]
        code, _ = run(argv + ["--restarts", "4", "--steps", "50"])
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "command", ["analyze", "witness", "oracle", "atlas classify", "atlas validate"]
    )
    def test_tolerance_flag_is_usage_error(self, fig2_right_file, command):
        # the Hurwitz guard band is a constant; even its value is refused
        argv = command.split() + (["-n", "1"] if "atlas" in command else [fig2_right_file])
        assert run(argv)[0] in (0, 2)
        code, text = run(argv + ["--tol", "1e-9"])
        assert code == 10 and text == ""

    def test_workers_flag_is_usage_error(self):
        # atlas classify runs in one process; there is no pool to size
        code, text = run(["atlas", "classify", "-n", "1", "--workers", "2"])
        assert code == 10 and text == ""

    @pytest.mark.parametrize("n", ["0", "5"])
    def test_atlas_classify_size_out_of_range(self, n):
        code, _ = run(["atlas", "classify", "-n", n])
        assert code == 13

    @pytest.mark.parametrize("n", ["-1", "0", "5"])
    def test_atlas_enumerate_size_out_of_range(self, n):
        code, text = run(["atlas", "enumerate", "-n", n])
        assert code == 13 and text == ""


# the documented key sets: evidence only, nothing derivable from it
CERTIFICATE_KEYS = {"pattern", "ordering", "prefix_cycles", "witness", "stabilizer"}
RECORD_KEYS = {"n", "free", "orbit_size", "verdict", "minimal_stable", "maximal_unstable"}


def assert_declared(d, table):
    """Every key of the encoded object ``d`` is declared in ``table`` and
    every required field is written, in nested tables too."""
    kinds = {name: getattr(kind, "kind", kind) for name, kind in table.items()}
    required = {name for name, kind in table.items() if not isinstance(kind, jsonio.optional)}
    assert set(d) <= set(kinds), f"undeclared keys {set(d) - set(kinds)}"
    assert required <= set(d), f"required keys not written {required - set(d)}"
    for name, value in d.items():
        if isinstance(kinds[name], dict):
            assert_declared(value, kinds[name])


class TestSchemas:
    def test_encoders_write_the_schema(self, atlas2, atlas3):
        small = EngineConfig(oracle_restarts=8, oracle_steps=120)
        unknown = classify(key_to_pattern(4, 4780), small)
        oracle = classify(key_to_pattern(3, 118), small)
        assert (unknown.tag, oracle.reason) == ("Unknown", "OracleFound")
        written = [(atlas_module._header(n, 0, EngineConfig()), jsonio.HEADER) for n in (2, 3)]
        written += [(atlas_module._record_to_dict(r), jsonio.RECORD) for r in atlas2 + atlas3]
        for v in [r.verdict for r in atlas2 + atlas3] + [unknown, oracle]:
            written.append((verdict_to_dict(v), jsonio.VERDICT))
            if v.certificate is not None:
                written.append((certificate_to_dict(v.certificate), jsonio.CERTIFICATE))
        for d, table in written:
            assert_declared(d, table)
            jsonio.check(json.loads(json.dumps(d)), table, "written")

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.jsonl")), ids=lambda path: path.name)
    def test_committed_files_pass_the_walker(self, path):
        header, *records = map(json.loads, path.read_text().splitlines())
        jsonio.check(header, jsonio.HEADER, "header")
        for rec in records:
            jsonio.check(rec, jsonio.RECORD, "record")

    def test_text_output_stable_under_fixed_seed(self, fig2_right_file):
        first = run(["analyze", fig2_right_file, "--seed", "7"])
        second = run(["analyze", fig2_right_file, "--seed", "7"])
        assert first == second

    def test_certificate_round_trip(self):
        from sparsestab import synthesize_stable_witness

        cert = synthesize_stable_witness(FIG2_RIGHT, seed=11)
        payload = json.loads(json.dumps(certificate_to_dict(cert)))
        back = certificate_from_dict(payload)
        assert back.ordering == cert.ordering
        assert back.prefix_cycles == cert.prefix_cycles
        assert np.array_equal(back.witness, cert.witness)
        assert np.array_equal(back.stabilizer, cert.stabilizer)
        assert verify_certificate(back)

    def test_certificate_keys(self, fig2_right_file):
        code, text = run(["witness", fig2_right_file, "--format", "json"])
        assert code == 0
        assert set(json.loads(text)) == CERTIFICATE_KEYS

    def test_atlas_record_keys(self, atlas2_lines):
        records = [json.loads(line) for line in atlas2_lines[1:]]
        assert all(set(r) == RECORD_KEYS for r in records)
        # the record states the pattern once, for itself and its certificate
        certs = [r["verdict"]["certificate"] for r in records if "certificate" in r["verdict"]]
        assert certs and all(set(c) == CERTIFICATE_KEYS - {"pattern"} for c in certs)

    def test_stated_pattern_must_be_the_certificates(self):
        # a record states its pattern for its certificate, so it must be that one
        v = classify(FIG2_RIGHT)
        assert "pattern" not in verdict_to_dict(v, FIG2_RIGHT)["certificate"]
        with pytest.raises(ValueError):
            verdict_to_dict(v, FIG2_LEFT)

    def test_verdict_dict_fields(self):
        cfg = EngineConfig(oracle_restarts=6, oracle_steps=80)
        v = classify(FIG2_LEFT, cfg)
        d = verdict_to_dict(v)
        assert d == {"tag": "ProvedUnstable", "reason": "NoHamiltonianK", "k": 2}
        s = classify(FIG2_RIGHT, cfg)
        d2 = verdict_to_dict(s)
        assert d2["tag"] == "ProvedStable" and "certificate" in d2
