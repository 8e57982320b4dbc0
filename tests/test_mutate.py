import pytest

from mutate import EQUIVALENT, PACKAGE, mutant_keys, stale_entries


# A sweep reports stale entries only at its end; this finds them in
# milliseconds, so a moved line shows up in the first test run.
@pytest.mark.parametrize("module", sorted({key[0] for key in EQUIVALENT}))
def test_equivalent_entries_match_a_mutant(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert stale_entries(module, mutant_keys(module, source)) == []
