"""Every exception class of the package survives a pickle round trip, as it
must to come back from a worker process of ``sr --jobs``."""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import mathcorpus


def exception_classes():
    for info in pkgutil.iter_modules(mathcorpus.__path__):
        module = importlib.import_module(f"mathcorpus.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


def instances(cls):
    """Instances built the way the package raises them: a name or message
    first, then any further constructor arguments (offsets) as numbers."""
    try:
        params = inspect.signature(cls).parameters.values()
    except ValueError:  # Exception's own constructor has no signature
        params = []
    named = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    yield cls("x'1")
    for k in range(1, len(named)):
        yield cls("x'1", *range(7, 7 + k))


def test_walk_finds_the_known_classes():
    names = {c.__name__ for c in exception_classes()}
    assert {"UnboundVariable", "UnknownToken", "VocabMismatch", "LatexError",
            "MalformedXml", "SqlSyntax", "DsrError", "UsageError"} <= names


@pytest.mark.parametrize("cls", sorted(exception_classes(),
                                       key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_pickle_round_trip(cls):
    for e in instances(cls):
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is cls
        assert str(back) == str(e)
        assert back.args == e.args
        assert vars(back) == vars(e)
        for attr in ("name", "token_name", "offset"):
            assert getattr(back, attr, None) == getattr(e, attr, None)
