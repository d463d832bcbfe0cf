"""Discrete base types: ``int``, ``real``, ``string``, ``bool`` with bottom.

Section 3.2.1 defines the carrier sets of the base types as the
programming language types extended by the undefined value ⊥.  Each value
class here wraps a payload that may be ``None`` (meaning ⊥), and exposes
the total order the range and mapping constructors rely on.

Value classes are immutable, hashable, and ordered.  The undefined value
compares less than every defined value so that canonical orderings stay
total; arithmetic on undefined values propagates undefinedness, matching
the strictness convention of the abstract model.
"""

from __future__ import annotations

from typing import Any, ClassVar, Optional, Type

from repro.errors import TypeMismatch, UndefinedValue

#: Sentinel used in constructors to request the undefined value.
UNDEFINED = None

#: Maximum length of a string value; the storage codec uses a fixed-size
#: character array, per footnote 3 of the paper.
MAX_STRING = 48


class BaseValue:
    """Common behaviour of the four base types.

    Subclasses set ``payload_type`` (the Python type of defined payloads)
    and ``type_name`` (the name used in schemas and error messages).
    """

    __slots__ = ("_value",)
    payload_type: ClassVar[type] = object
    type_name: ClassVar[str] = "base"

    def __init__(self, value: Optional[Any] = UNDEFINED):
        # bool is a subclass of int in Python; only BoolVal may hold bools.
        wrong_bool = (
            value is not UNDEFINED
            and isinstance(value, bool)
            and self.payload_type is not bool
        )
        if value is not UNDEFINED and (
            wrong_bool or not isinstance(value, self.payload_type)
        ):
            coerced = self._coerce(value)
            if coerced is NotImplemented:
                raise TypeMismatch(
                    f"{self.type_name} cannot hold {value!r} "
                    f"of type {type(value).__name__}"
                )
            value = coerced
        object.__setattr__(self, "_value", value)

    @classmethod
    def _coerce(cls, value: Any) -> Any:
        """Attempt a safe payload coercion; NotImplemented if unsafe."""
        return NotImplemented

    @property
    def defined(self) -> bool:
        """True iff this value is not the undefined value ⊥."""
        return self._value is not UNDEFINED

    @property
    def value(self) -> Any:
        """The defined payload; raises :class:`UndefinedValue` on ⊥."""
        if self._value is UNDEFINED:
            raise UndefinedValue(f"{self.type_name} value is undefined")
        return self._value

    def value_or(self, default: Any) -> Any:
        """The payload, or ``default`` when undefined."""
        return default if self._value is UNDEFINED else self._value

    def __setattr__(self, name: str, value: Any):  # immutability
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        # Copies and unpickles go through the constructor: the default
        # slot-state restore would assign, which __setattr__ refuses.
        return (type(self), (self._value,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash((self.type_name, self._value))

    def _order_key(self) -> tuple:
        # Undefined sorts before every defined value.
        if self._value is UNDEFINED:
            return (0,)
        return (1, self._value)

    def __lt__(self, other: "BaseValue") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._order_key() < other._order_key()

    def __le__(self, other: "BaseValue") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._order_key() <= other._order_key()

    def __gt__(self, other: "BaseValue") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._order_key() > other._order_key()

    def __ge__(self, other: "BaseValue") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._order_key() >= other._order_key()

    def __repr__(self) -> str:
        if self._value is UNDEFINED:
            return f"{type(self).__name__}(⊥)"
        return f"{type(self).__name__}({self._value!r})"


class IntVal(BaseValue):
    """The discrete ``int`` type: machine integers plus ⊥."""

    __slots__ = ()
    payload_type = int
    type_name = "int"

    @classmethod
    def _coerce(cls, value: Any) -> Any:
        # bool is a subclass of int in Python; reject it to keep the
        # type system honest.
        if isinstance(value, bool):
            return NotImplemented
        return NotImplemented


class RealVal(BaseValue):
    """The discrete ``real`` type: floating point numbers plus ⊥."""

    __slots__ = ()
    payload_type = float
    type_name = "real"

    @classmethod
    def _coerce(cls, value: Any) -> Any:
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return NotImplemented


class StringVal(BaseValue):
    """The discrete ``string`` type: bounded-length strings plus ⊥."""

    __slots__ = ()
    payload_type = str
    type_name = "string"

    def __init__(self, value: Optional[str] = UNDEFINED):
        if value is not UNDEFINED and isinstance(value, str) and len(value) > MAX_STRING:
            raise TypeMismatch(
                f"string exceeds the fixed storage length of {MAX_STRING} characters"
            )
        super().__init__(value)


class BoolVal(BaseValue):
    """The discrete ``bool`` type: truth values plus ⊥."""

    __slots__ = ()
    payload_type = bool
    type_name = "bool"

    def __bool__(self) -> bool:
        return bool(self.value)


#: Convenience singletons.
TRUE = BoolVal(True)
FALSE = BoolVal(False)


def wrap(value: Any) -> BaseValue:
    """Wrap a plain Python scalar into the matching base value class."""
    if isinstance(value, BaseValue):
        return value
    if isinstance(value, bool):
        return BoolVal(value)
    if isinstance(value, int):
        return IntVal(value)
    if isinstance(value, float):
        return RealVal(value)
    if isinstance(value, str):
        return StringVal(value)
    raise TypeMismatch(f"no base type holds {value!r}")
