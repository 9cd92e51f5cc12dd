"""Exception types shared across the toolchain."""


class PiecewiseError(Exception):
    """Base class for all toolchain errors."""


# --- IR front end ---

class ParseError(PiecewiseError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnresolvedName(PiecewiseError):
    """A statement, initializer or vtable entry names an unknown symbol."""


class InvalidModule(PiecewiseError):
    """A structural Module invariant is violated."""


class OperandOverflow(PiecewiseError):
    """A symbol/type index does not fit in the 16-bit operand field."""


class UnknownType(PiecewiseError):
    """new_object names a type with no declared vtable."""


# --- object format ---

class LayoutMismatch(PiecewiseError):
    """Symbol table and code layout disagree."""


class BadMagic(PiecewiseError):
    pass


class TruncatedSection(PiecewiseError):
    pass


class IndexOutOfRange(PiecewiseError):
    """A serialized symbol index points past the symbol table."""


class AlreadyRelocated(PiecewiseError):
    """A .dep section was relocated twice."""


class MalformedTrace(PiecewiseError):
    """A dlopen/dlsym training trace violates the record format."""


# --- loader ---

class ModuleNotFound(PiecewiseError):
    def __init__(self, name, requester):
        super().__init__(f"module {name!r} (needed by {requester!r}) not found")
        self.name = name
        self.requester = requester


class UnresolvedSymbol(PiecewiseError):
    def __init__(self, symbol, requester):
        super().__init__(f"undefined symbol {symbol!r} (imported by {requester!r})")
        self.symbol = symbol
        self.requester = requester


# --- execution ---

class MissingIR(PiecewiseError):
    """Execution requested on a module that carries no IR section."""


# --- gadget scanning ---

class MisalignedImage(PiecewiseError):
    """Code image length is not a multiple of the instruction width."""
