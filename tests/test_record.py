"""``affdim._record`` against stdlib dataclass twins: each sample class is
declared both ways from one body, as a record and as a frozen dataclass, and
every behaviour the package's records use must match."""

import dataclasses
import functools
from typing import Optional

import pytest

from affdim._record import record


def declare(decorate):
    """A sample class and one with its own ``__init__``, declared with
    ``decorate``."""

    @decorate
    class Point:
        x: float
        y: float = 0.0
        label: Optional[str] = None

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be >= 0")
            object.__setattr__(self, "x", float(self.x))

        @functools.cached_property
        def norm2(self):
            return self.x * self.x + self.y * self.y

    @decorate
    class Angle:
        theta: float

        def __init__(self, theta):  # kept, not replaced
            object.__setattr__(self, "theta", theta % 3.0)

    return Point, Angle


OURS = declare(record)
TWINS = declare(functools.partial(dataclasses.dataclass, frozen=True))
POINT, ANGLE = 0, 1


def both(kind, *args, **kwargs):
    """An instance of the sample class ``kind`` (``POINT`` or ``ANGLE``),
    ours and its dataclass twin's, built from the same arguments."""
    return OURS[kind](*args, **kwargs), TWINS[kind](*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2.5), {}), ((1,), {"label": "a"}), ((), {"x": 3, "y": -1.0}),
    ((2, 0.0, "b"), {}),
])
def test_frozen_fields_repr_eq_and_hash(args, kwargs):
    ours, twin = both(POINT, *args, **kwargs)
    assert repr(ours) == repr(twin)
    assert hash(ours) == hash(twin)
    assert (ours.x, ours.y, ours.label) == (twin.x, twin.y, twin.label)
    assert ours == OURS[POINT](*args, **kwargs) and twin == TWINS[POINT](*args, **kwargs)
    assert ours != OURS[POINT](ours.x + 1, ours.y, ours.label)
    # another class compares unequal both ways: __eq__ returns NotImplemented
    assert ours.__eq__(twin) is NotImplemented and twin.__eq__(ours) is NotImplemented
    assert ours != twin and ours != (ours.x, ours.y, ours.label)


def test_frozen_assignment_is_rejected_alike():
    for name in ("x", "norm2", "other"):
        raised = []
        for obj in both(POINT, 1.0):
            with pytest.raises(AttributeError) as err:
                setattr(obj, name, 2.0)
            raised.append(str(err.value))
        assert raised[0] == raised[1]
    for obj in both(POINT, 1.0):
        with pytest.raises(AttributeError):
            del obj.x


def test_post_init_errors_propagate_alike():
    for cls in (OURS[POINT], TWINS[POINT]):
        with pytest.raises(ValueError, match="x must be >= 0"):
            cls(-1)


def test_cached_property_on_a_frozen_record():
    ours, twin = both(POINT, 3, 4.0)
    assert ours.norm2 == twin.norm2 == 25.0
    assert ours.__dict__["norm2"] == 25.0
    assert ours == OURS[POINT](3, 4.0) and hash(ours) == hash(OURS[POINT](3, 4.0))


@pytest.mark.parametrize("kind, args, kwargs", [
    (POINT, (), {}), (POINT, (1, 2, 3, 4), {}), (POINT, (1,), {"bogus": 2}),
    (POINT, (1,), {"x": 2}), (ANGLE, (), {"theta": 1.0, "other": 2}),
])
def test_bad_arguments_raise_type_error_alike(kind, args, kwargs):
    for cls in (OURS[kind], TWINS[kind]):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_a_class_defined_init_is_kept():
    ours, twin = both(ANGLE, 4.5)
    assert ours.theta == twin.theta == 1.5
    assert repr(ours) == repr(twin) and hash(ours) == hash(twin)
    assert ours == OURS[ANGLE](1.5) and ours != OURS[ANGLE](1.0)
    with pytest.raises(AttributeError):
        ours.theta = 0.0


def test_a_bare_record_is_frozen():
    @record
    class Plain:
        n: int

    plain = Plain(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        plain.n = 2
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del plain.n
    assert plain.n == 1 and hash(plain) == hash(Plain(1))
