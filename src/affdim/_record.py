"""Records: affdim's frozen value classes, built without generating code.

Python 3.11's ``dataclass`` writes the source of about six methods per class
and runs it through ``exec``, and ``dataclasses`` imports ``inspect``: a CLI
child paid for both at start-up, for every class of every layer it executed.
:func:`record` attaches closures over the class's field names instead.  A
record is what a frozen ``dataclass`` makes of the same class body, and
nothing more:

- fields are the class's own annotations, in order, with a plain class-level
  default where one is given;
- ``__init__`` takes fields by position or name, then calls ``__post_init__``;
  a class that defines its own ``__init__`` keeps it, as with ``dataclass``
  (the hottest records do: a fixed signature binds faster than ``*args``);
- ``__eq__`` (same class only), ``__hash__`` and ``__repr__`` as
  ``dataclass`` writes them, over the field tuple;
- assignment and deletion are rejected.  ``__post_init__`` writes with
  ``object.__setattr__``, and ``functools.cached_property`` into the
  instance ``__dict__``, as on a frozen dataclass.
"""

from operator import attrgetter

_setattr = object.__setattr__


def record(cls):
    """Make ``cls`` a frozen record."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
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
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__, cls.__delattr__ = _frozen("assign to"), _frozen("delete")
    cls._record_fields = names
    return cls


def _frozen(verb):
    def refuse(self, name, *value):
        raise AttributeError(f"cannot {verb} field {name!r}")
    return refuse
