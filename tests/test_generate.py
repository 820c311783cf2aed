import dataclasses
import importlib
from pathlib import Path

import pytest

from conecompress import bound_check, compress, cone_membership, generate, matrix_check
from conecompress.errors import RejectionCapError, ValidationError
from conecompress.generate import HiddenInstance
from conecompress.model import ProblemInput
from conecompress import io

from oracle import dot

DATA = Path(__file__).parent / "data"


def compress_and_check(instance):
    """Compress the public problem and assert every verdict on the output:
    well-formed, in the witness cone, in the hidden cone, within the bound."""
    public = instance.public
    x = compress(public).x
    assert len(x) == public.n and any(x) and all(v >= 0 for v in x)
    assert cone_membership(x, public.y, public.d).ok
    assert matrix_check(instance.hidden_matrix, x, public.d).ok
    assert bound_check(x, public.n, public.d).ok
    return x


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(n=4, d=2, m=3, seed=42, scale=5, max_entry=20)
        b = generate(n=4, d=2, m=3, seed=42, scale=5, max_entry=20)
        assert a == b
        c = generate(n=4, d=2, m=3, seed=43, scale=5, max_entry=20)
        assert a != c

    def test_golden_file_frozen(self):
        inst = generate(n=4, d=1, m=3, seed=0, scale=1, max_entry=30)
        text = io.dumps(io.encode_instance(inst))
        golden = (DATA / "golden_instance_n4_d1_m3_seed0.json").read_text()
        assert text == golden

    def test_construction_invariants(self):
        for seed in range(20):
            inst = generate(n=5, d=2, m=4, seed=seed, scale=7, max_entry=15)
            assert any(inst.planted) and all(v >= 0 for v in inst.planted)
            assert inst.public.y == tuple(7 * v for v in inst.planted)
            for row in inst.hidden_matrix:
                assert all(abs(v) <= 2 for v in row)
                assert dot(row, inst.planted) <= 0
                assert dot(row, inst.public.y) <= 0

    def test_single_coordinate_rows_never_positive(self):
        for seed in range(30):
            inst = generate(n=1, d=1, m=1, seed=seed)
            assert inst.hidden_matrix[0][0] in (-1, 0)

    def test_rejection_cap(self, monkeypatch):
        # conecompress.generate names the function, so patch the module itself
        module = importlib.import_module("conecompress.generate")
        monkeypatch.setattr(module, "DEFAULT_RETRY_CAP", 0)
        with pytest.raises(RejectionCapError):
            generate(n=2, d=1, m=1, seed=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="generate requires"):
            generate(n=0, d=1, m=1, seed=0)
        with pytest.raises(ValidationError, match="generate requires"):
            generate(n=1, d=1, m=1, seed=0, max_entry=0)


class TestHiddenInstanceInvariants:
    def test_tampered_witness_rejected_before_compress(self):
        inst = generate(n=4, d=1, m=3, seed=5, max_entry=12)
        y = inst.public.y
        tampered = ProblemInput(n=4, d=1, y=(y[0] - 1,) + y[1:])
        with pytest.raises(ValidationError, match="not scale \\* planted"):
            dataclasses.replace(inst, public=tampered)

    def test_inadmissible_row_rejected(self):
        inst = generate(n=3, d=1, m=2, seed=5)
        bad = inst.hidden_matrix[:-1] + ((1, 1, 1),)
        with pytest.raises(ValidationError, match="rejects the planted solution"):
            dataclasses.replace(inst, hidden_matrix=bad)

    def test_entry_outside_cap_rejected(self):
        inst = generate(n=2, d=1, m=1, seed=1)
        with pytest.raises(ValidationError, match=r"has an entry outside \[-d, d\]"):
            dataclasses.replace(inst, hidden_matrix=((-2, 0),))

    def test_end_to_end_revalidates_decoded_instances(self):
        # Decoded or hand-built, an instance passes HiddenInstance's
        # checks, which already imply every hidden row admits the public
        # witness, so the checks after compress need no instance check of their own.
        inst = generate(n=3, d=1, m=2, seed=9)
        hand_built = HiddenInstance(
            public=inst.public,
            hidden_matrix=inst.hidden_matrix,
            planted=inst.planted,
            seed=inst.seed,
            scale=inst.scale,
        )
        compress_and_check(hand_built)


class TestEndToEnd:
    def test_worked_example_with_admissible_matrix(self):
        rows = ((1, -1, 0, 0), (1, 1, -1, 0), (0, 1, 1, -1))
        y = (2, 3, 7, 29)
        assert [dot(r, y) for r in rows] == [-1, -2, -19]
        inst = HiddenInstance(
            public=ProblemInput(4, 1, y),
            hidden_matrix=rows,
            planted=y,
            seed=0,
            scale=1,
        )
        assert compress_and_check(inst) == (1, 1, 2, 8)

    def test_generated_instances_pass(self):
        for seed in range(10):
            compress_and_check(generate(n=4, d=1, m=4, seed=seed, max_entry=25))

    def test_scale_robustness(self):
        for seed in range(5):
            small = generate(n=4, d=1, m=3, seed=seed, scale=1)
            big = generate(n=4, d=1, m=3, seed=seed, scale=10**6)
            assert big.planted == small.planted
            assert compress_and_check(big) == compress_and_check(small)
