"""``affdim._record`` against stdlib dataclass twins: each sample class is
declared both ways from one body, and every behaviour the package's records
use must match."""

import dataclasses
import functools
from typing import Optional

import pytest

from affdim._record import asdict, field, record


def declare(decorate, make_field):
    """A frozen, a mutable and a frozen sample class with its own
    ``__init__``, declared with ``decorate``."""

    @decorate(frozen=True)
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
    class Bag:
        name: str
        items: list = make_field(default_factory=list)
        meta: dict = make_field(default_factory=dict)
        extra: object = None

    @decorate(frozen=True)
    class Angle:
        theta: float

        def __init__(self, theta):  # kept, not replaced
            object.__setattr__(self, "theta", theta % 3.0)

    return Point, Bag, Angle


def _dataclass(cls=None, *, frozen=False):
    """``dataclasses.dataclass`` taking ``record``'s two forms."""
    return dataclasses.dataclass(cls, frozen=frozen) if cls else functools.partial(
        dataclasses.dataclass, frozen=frozen)


OURS = declare(record, field)
TWINS = declare(_dataclass, dataclasses.field)


def both(kind, *args, **kwargs):
    """An instance of the sample class ``kind`` (0 frozen, 1 mutable, 2 with
    its own ``__init__``), ours and its dataclass twin's, built from the same
    arguments."""
    return OURS[kind](*args, **kwargs), TWINS[kind](*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2.5), {}), ((1,), {"label": "a"}), ((), {"x": 3, "y": -1.0}),
    ((2, 0.0, "b"), {}),
])
def test_frozen_fields_repr_eq_and_hash(args, kwargs):
    ours, twin = both(0, *args, **kwargs)
    assert repr(ours) == repr(twin)
    assert hash(ours) == hash(twin)
    assert (ours.x, ours.y, ours.label) == (twin.x, twin.y, twin.label)
    assert ours == OURS[0](*args, **kwargs) and twin == TWINS[0](*args, **kwargs)
    assert ours != OURS[0](ours.x + 1, ours.y, ours.label)
    # another class compares unequal both ways: __eq__ returns NotImplemented
    assert ours.__eq__(twin) is NotImplemented and twin.__eq__(ours) is NotImplemented
    assert ours != twin and ours != (ours.x, ours.y, ours.label)


def test_frozen_assignment_is_rejected_alike():
    for name in ("x", "norm2", "other"):
        raised = []
        for obj in both(0, 1.0):
            with pytest.raises(AttributeError) as err:
                setattr(obj, name, 2.0)
            raised.append(str(err.value))
        assert raised[0] == raised[1]
    for obj in both(0, 1.0):
        with pytest.raises(AttributeError):
            del obj.x


def test_post_init_errors_propagate_alike():
    for cls in (OURS[0], TWINS[0]):
        with pytest.raises(ValueError, match="x must be >= 0"):
            cls(-1)


def test_cached_property_on_a_frozen_record():
    ours, twin = both(0, 3, 4.0)
    assert ours.norm2 == twin.norm2 == 25.0
    assert ours.__dict__["norm2"] == 25.0
    assert ours == OURS[0](3, 4.0) and hash(ours) == hash(OURS[0](3, 4.0))


def test_mutable_records_default_factories_eq_and_no_hash():
    ours, twin = both(1, "a")
    assert repr(ours) == repr(twin)
    assert repr(ours) == "declare.<locals>.Bag(name='a', items=[], meta={}, extra=None)"
    ours.items.append(1)
    assert OURS[1]("a").items == []  # a fresh list per instance
    assert OURS[1]("a").meta is not OURS[1]("a").meta
    assert ours == OURS[1]("a", [1]) and ours != OURS[1]("a")
    ours.name = "b"  # assignment is allowed
    assert ours.name == "b"
    for obj in (ours, twin):
        with pytest.raises(TypeError):
            hash(obj)
    assert not hasattr(OURS[1], "items") and not hasattr(TWINS[1], "items")


@pytest.mark.parametrize("kind, args, kwargs", [
    (0, (), {}), (0, (1, 2, 3, 4), {}), (0, (1,), {"bogus": 2}), (0, (1,), {"x": 2}),
    (1, (), {"items": []}),
])
def test_bad_arguments_raise_type_error_alike(kind, args, kwargs):
    for cls in (OURS[kind], TWINS[kind]):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_asdict_matches_dataclasses_asdict():
    def nested(classes):
        point, bag, _ = classes
        inner = bag("in", [point(1), (point(2, 3.0), "s")], {"k": point(4)})
        return bag("out", [inner, (point(5), [1, 2])],
                   {"p": [point(7)], 6: (1, point(8))}, (inner, None))

    ours, twin = asdict(nested(OURS)), dataclasses.asdict(nested(TWINS))
    assert ours == twin
    assert type(ours["items"][1]) is tuple and type(ours["extra"]) is tuple
    assert list(ours) == list(twin) == ["name", "items", "meta", "extra"]


def test_a_class_defined_init_is_kept():
    ours, twin = both(2, 4.5)
    assert ours.theta == twin.theta == 1.5
    assert repr(ours) == repr(twin) and hash(ours) == hash(twin)
    assert ours == OURS[2](1.5) and ours != OURS[2](1.0)
    with pytest.raises(AttributeError):
        ours.theta = 0.0
