"""Frozen value records: the package's small data classes on one base.

A subclass of :class:`Record` lists its fields as annotations, in order,
and gives a trailing field a default as a plain class attribute::

    class CheckOutcome(Record):
        name: str
        passed: bool
        detail: str = ""

A record keeps what ``dataclass(frozen=True)`` would give it: positional
or keyword construction, with ``TypeError`` for an unknown, missing or
doubled field; a ``__post_init__`` method, if the class has one, run
after the fields are set, to validate them; ``AttributeError`` on
assignment and deletion; equality only with a record of the same class
whose fields are equal (``NotImplemented`` otherwise, so
``Range(1, 2) != Progression(1, 2)``); the hash of the field tuple; and a
``Name(field=value, ...)`` repr.  ``_replace(**changes)`` is a copy with
some fields changed, validated as a new record is.

The package does not use :mod:`dataclasses`: importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated class
has its methods generated as source text and compiled.  Every ``dyckgram``
command pays for both before it does any work.  Here nothing is
generated: the methods below serve every record, reading the fields the
class declares.  ``__init__`` stores each field with
``object.__setattr__``, as the dataclass does, rather than filling
``__dict__`` in one call: on CPython 3.11 an instance whose ``__dict__``
has been made an object loses the specialised lookups of its fields and
methods, which then take about three times as long.
"""


_setattr = object.__setattr__


class Record:
    _fields = ()
    _defaults = ()  # the values of the trailing fields that have one
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        defaults = tuple(vars(cls)[n] for n in names if n in vars(cls))
        if any(n in vars(cls) for n in names[:len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        cls._fields, cls._defaults = names, defaults

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            if kwargs or not 0 < len(names) - len(args) <= len(self._defaults):
                args = self._bind(args, kwargs)
            else:  # positional, the trailing defaults left out
                args += self._defaults[len(args) - len(names):]
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if self.__post_init__ is not None:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call, in field order; TypeError for a
        call that ``def __init__(self, <fields>)`` would refuse."""
        names, defaults = cls._fields, cls._defaults
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments"
                            f" but {len(args)} were given")
        first_default = len(names) - len(defaults)
        values, missing = list(args), []
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= first_default:
                values.append(defaults[i - first_default])
            else:
                missing.append(names[i])
        if missing or kwargs:  # what is left of kwargs is unknown or repeated
            raise TypeError(f"{cls.__name__}() takes fields {', '.join(names)}; missing"
                            f" {missing}, unknown or repeated {sorted(kwargs)}")
        return tuple(values)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def _replace(self, **changes):
        return type(self)(**{n: getattr(self, n) for n in self._fields} | changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"
