"""The package's public names are its modules' ``__all__`` lists, stated once."""

from collections import Counter

import commkit
from commkit import constructions, lazyops, matrices, scalars, verdict, verifiers

MODULES = (constructions, lazyops, matrices, scalars, verdict, verifiers)


def test_package_exports_exactly_the_modules_names():
    names = [name for module in MODULES for name in module.__all__]
    assert [name for name, count in Counter(names).items() if count > 1] == []
    assert commkit.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(commkit, name) is getattr(module, name), (module.__name__, name)
