"""Records: the part of ``dataclasses`` that affdim's value classes use,
built without generating code.

Python 3.11's ``dataclass`` writes the source of about six methods per class
and runs it through ``exec``, and ``dataclasses`` imports ``inspect``: a CLI
child paid for both at start-up, for every class of every layer it executed.
:func:`record` attaches closures over the class's field names instead, and
supports what the classes use:

- fields are the class's own annotations, in order, with a class-level
  default or ``field(default_factory=...)``;
- ``__init__`` takes fields by position or name, then calls ``__post_init__``;
  a class that defines its own ``__init__`` keeps it, as with ``dataclass``
  (the hottest records do: a fixed signature binds faster than ``*args``);
- ``__eq__`` (same class only), ``__hash__`` and ``__repr__`` as
  ``dataclass`` writes them, over the field tuple;
- ``frozen=True`` rejects assignment and deletion.  ``__post_init__`` writes
  with ``object.__setattr__``, and ``functools.cached_property`` into the
  instance ``__dict__``, as on a frozen dataclass.  A mutable record is
  unhashable.
"""

from operator import attrgetter

_setattr = object.__setattr__


class field:
    """A field whose default is ``default_factory()``, new for each instance."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, *, frozen=False):
    """Make ``cls`` a record; use as ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    factories = {name: d.default_factory for name, d in defaults.items() if isinstance(d, field)}
    for name in factories:
        delattr(cls, name)
        del defaults[name]
    post_init = cls.__dict__.get("__post_init__")
    n = len(names)
    indices = range(n)
    keywords = [frozenset(names[k:]) for k in range(n + 1)]  # after k positional ones
    get = attrgetter(*names)  # a tuple of two or more fields, one field bare
    key = get if n > 1 else lambda self: (get(self),)

    def bind(args, kwargs):
        """The field values of a call that names fields or leaves some out."""
        if len(args) > n or not keywords[len(args)].issuperset(kwargs):
            raise TypeError(f"{cls.__name__}() got too many, unknown or repeated arguments")
        given = {**defaults, **kwargs}
        for name in factories:
            if name not in given:
                given[name] = factories[name]()
        try:
            return args + tuple(map(given.__getitem__, names[len(args):]))
        except KeyError as name:
            raise TypeError(f"{cls.__name__}() missing argument {name}") from None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # one object.__setattr__ per field: reading self.__dict__ instead would
        # materialise the instance dict and slow every later attribute read;
        # indexing is faster than zip here
        for i in indices:
            _setattr(self, names[i], args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__eq__, cls.__repr__ = __eq__, __repr__
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = _frozen("assign to")
        cls.__delattr__ = _frozen("delete")
    cls._record_fields = names
    return cls


def _frozen(verb):
    def refuse(self, name, *value):
        raise AttributeError(f"cannot {verb} field {name!r}")
    return refuse


def asdict(obj):
    """``dataclasses.asdict`` for records: records become dicts, and lists,
    tuples and dicts are rebuilt with their items converted.  Other values
    are shared, not deep-copied."""
    if hasattr(type(obj), "_record_fields"):
        return {name: asdict(getattr(obj, name)) for name in obj._record_fields}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(asdict, obj))
    if isinstance(obj, dict):
        return type(obj)((asdict(k), asdict(v)) for k, v in obj.items())
    return obj
