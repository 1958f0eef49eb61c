"""The README's library tour is a doctest: every value it shows is checked."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0
    assert result.failed == 0
