"""The package's record types: equality, hashing, text and persistence.

``InitialConditions``, ``CoefficientStream``, ``Trajectory`` and verify's
``Witness`` and ``VerificationReport`` are frozen: equal records compare
and hash equal, and no field can be assigned.  Each prints as
``Name(field=value, ...)`` and survives pickle and copy.
"""

import copy
import pickle

import pytest

from ratrec.core import CoefficientStream, InitialConditions, Rational, Trajectory
from ratrec.verify import VerificationReport, Witness


def seeds():
    return InitialConditions.of(1, -2, Rational(3, 4), 5)


def stream():
    return CoefficientStream.periodic([(1, 0), (Rational(-1, 2), 3)])


SEEDS_REPR = ("InitialConditions(x_m3=Rational(1, 1), x_m2=Rational(-2, 1), "
              "x_m1=Rational(3, 4), x_0=Rational(5, 1))")
STREAM_REPR = ("CoefficientStream(kind='periodic', pairs=((Rational(1, 1), Rational(0, 1)), "
               "(Rational(-1, 2), Rational(3, 1))))")


def witness(index=3):
    return Witness(seeds(), stream(), index, Rational(1, 2), Rational(2))


WITNESS_REPR = (f"Witness(seeds={SEEDS_REPR}, stream={STREAM_REPR}, index=3, "
                "expected=Rational(1, 2), got=Rational(2, 1))")

# each record kind: (a builder of equal copies, its field names, its repr)
FROZEN = {
    "InitialConditions": (seeds, ("x_m3", "x_m2", "x_m1", "x_0"), SEEDS_REPR),
    "CoefficientStream": (stream, ("kind", "pairs"), STREAM_REPR),
    "Trajectory": (
        lambda: Trajectory((Rational(1), Rational(2)), (Rational(3),), "zero-bracket"),
        ("values", "products", "singular"),
        "Trajectory(values=(Rational(1, 1), Rational(2, 1)), products=(Rational(3, 1),), "
        "singular='zero-bracket')"),
    "Witness": (witness, ("seeds", "stream", "index", "expected", "got"), WITNESS_REPR),
    "VerificationReport": (
        lambda: VerificationReport(5, 2, 0.25, witness()),
        ("trials_run", "trials_skipped", "max_symmetry_residual", "witness"),
        "VerificationReport(trials_run=5, trials_skipped=2, max_symmetry_residual=0.25, "
        f"witness={WITNESS_REPR})"),
}


class TestFrozenRecords:
    @pytest.mark.parametrize("name", FROZEN)
    def test_equal_records_hash_equal(self, name):
        make = FROZEN[name][0]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("name", FROZEN)
    def test_fields_cannot_be_assigned(self, name):
        make, fields, _ = FROZEN[name]
        record = make()
        for field in fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_records_differ_by_a_field(self):
        assert seeds() != InitialConditions.of(1, -2, Rational(3, 4), 6)
        assert stream() != CoefficientStream.explicit([(1, 0), (Rational(-1, 2), 3)])
        assert Trajectory((), ()) != Trajectory((), (), "zero-x-factor")
        assert witness() != witness(index=4)
        assert VerificationReport(5, 2, 0.25, None) != VerificationReport(5, 2, 0.25, witness())


class TestEveryRecord:
    @pytest.mark.parametrize("name", FROZEN)
    def test_repr(self, name):
        make, _, text = FROZEN[name]
        assert repr(make()) == text

    @pytest.mark.parametrize("name", FROZEN)
    def test_pickle_and_copy(self, name):
        record = FROZEN[name][0]()
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record


class TestCoefficientStreamChecks:
    @pytest.mark.parametrize("kind, pairs, message", [
        ("bogus", ((1, 1),), "unknown stream kind: 'bogus'"),
        ("periodic", (), "stream needs at least one"),
        ("list", (), "stream needs at least one"),
        ("constant", ((1, 1), (2, 2)), "constant stream takes exactly one pair"),
    ])
    def test_bad_stream_raises(self, kind, pairs, message):
        with pytest.raises(ValueError, match=message):
            CoefficientStream(kind, pairs)
        with pytest.raises(ValueError, match=message):
            CoefficientStream(kind=kind, pairs=pairs)

    def test_good_stream_keeps_its_fields(self):
        pairs = ((Rational(1), Rational(2)),)
        s = CoefficientStream(kind="constant", pairs=pairs)
        assert s.kind == "constant" and s.pairs is pairs and s.at(7) == pairs[0]


def test_trajectory_is_regular_by_default():
    traj = Trajectory((), ())
    assert traj.singular is None and traj.is_regular
